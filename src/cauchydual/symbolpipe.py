"""From a finitely supported positive measure on the unit circle to the
rational row symbol of the associated shift-invariant kernel.

The pipeline is exact rational arithmetic in floating point: spectral
factorization of the boundary weight polynomial, an outer quotient p/q,
a small hermitian Gram system at the atoms, and a Cholesky split of the
resulting numerator matrix. The output is a row of polynomial numerators
p_1, ..., p_k over the common denominator q with p_j(0) = 0 and

    sum_j |p_j(z)/q(z)|^2 <= 1   on the closed unit disc.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .polyrat import (
    POLE_GAP,
    LaurentHermitian,
    Polynomial,
    fejer_riesz_factor,
)

# circle points on which a symbol's Schur bound is checked
SCHUR_SAMPLES = 512


class EmptyMeasureError(ValueError):
    """Operation needs at least one atom."""


class NotUnimodularError(ValueError):
    """Rotation parameter must lie on the unit circle."""


class GramSingularError(ValueError):
    """The atom Gram matrix is numerically singular."""


class EtaNotPSDError(ValueError):
    """The numerator matrix has a genuinely negative eigenvalue."""


@dataclass(frozen=True)
class CircleMeasure:
    """Atoms (theta_j, c_j) of sum_j c_j * delta at exp(i theta_j).

    Weights must be nonnegative; zero-weight atoms are dropped during
    construction and the surviving atom locations must be pairwise
    distinct. The empty measure is allowed.
    """

    thetas: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.thetas) != len(self.weights):
            raise ValueError("thetas and weights must have equal length")
        kept_t, kept_w = [], []
        for t, w in zip(self.thetas, self.weights):
            t, w = float(t), float(w)
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ValueError(f"atom ({t}, {w}) is not finite")
            if w < 0.0:
                raise ValueError(f"weight {w} is negative")
            if w == 0.0:
                continue
            kept_t.append(t)
            kept_w.append(w)
        zs = [cmath.exp(1j * t) for t in kept_t]
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                if abs(zs[i] - zs[j]) <= POLE_GAP:
                    raise ValueError(
                        f"atoms {i} and {j} coincide on the circle: "
                        f"theta {kept_t[i]} vs {kept_t[j]}")
        object.__setattr__(self, "thetas", tuple(kept_t))
        object.__setattr__(self, "weights", tuple(kept_w))

    @property
    def size(self) -> int:
        return len(self.thetas)

    def zetas(self) -> np.ndarray:
        return np.exp(1j * np.asarray(self.thetas, dtype=float))


def rotate_measure(mu: CircleMeasure, zeta: complex) -> CircleMeasure:
    """Pull the measure back along z -> zeta * z.

    Every atom location zeta_j moves to conj(zeta) * zeta_j; weights are
    unchanged. zeta must be unimodular to 1e-12.
    """
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise NotUnimodularError(f"|zeta| = {abs(zeta)}")
    phi = cmath.phase(zeta)
    return CircleMeasure(tuple(t - phi for t in mu.thetas), mu.weights)


def boundary_polynomial(mu: CircleMeasure) -> LaurentHermitian:
    """Weight polynomial prod_j |z-zeta_j|^2 + sum_j c_j prod_{l!=j} |z-zeta_l|^2.

    Returned as a hermitian Laurent band of bandwidth k = number of atoms,
    using |z - zeta|^2 = 2 - conj(zeta) z - zeta conj(z) on |z| = 1.
    """
    if mu.size == 0:
        raise EmptyMeasureError("the empty measure has no boundary polynomial")
    factors = [
        np.array([-z, 2.0, -np.conj(z)], dtype=complex) for z in mu.zetas()
    ]

    def band_product(fs):
        acc = np.array([1.0 + 0.0j])
        for f in fs:
            acc = np.convolve(acc, f)
        return acc

    k = mu.size
    total = band_product(factors)
    acc = np.zeros(2 * k + 1, dtype=complex)
    acc += total
    for j, c in enumerate(mu.weights):
        partial = band_product(factors[:j] + factors[j + 1:])
        lo = (len(acc) - len(partial)) // 2
        acc[lo: lo + len(partial)] += c * partial
    return LaurentHermitian.from_full(acc)


@dataclass(frozen=True, eq=False)
class OuterData:
    """Outer quotient p/q for a measure: q = prod (z - alpha_j) from the
    spectral factorization and p = (e^{i theta0}/sqrt(gamma)) prod (z - zeta_j),
    with the phase theta0 chosen so p(0)/q(0) > 0."""

    gamma_fr: float
    alphas: tuple[complex, ...]
    p: Polynomial
    q: Polynomial
    theta0: float


def outer_from_measure(mu: CircleMeasure) -> OuterData:
    if mu.size == 0:
        raise EmptyMeasureError("the empty measure has no outer quotient")
    gamma, alphas = fejer_riesz_factor(boundary_polynomial(mu))
    q = Polynomial.from_roots(alphas)
    zetas = mu.zetas()
    monic_at_zero = complex(np.prod(-zetas))
    theta0 = -cmath.phase(monic_at_zero / q(0.0))
    scale = cmath.exp(1j * theta0) / math.sqrt(gamma)
    p = Polynomial.from_roots(zetas, leading=1.0).scaled(scale)
    ratio = p(0.0) / q(0.0)
    if not (abs(ratio.imag) <= 1e-12 * abs(ratio) and ratio.real > 0.0):
        raise RuntimeError(f"normalization failed: p(0)/q(0) = {ratio}")
    return OuterData(gamma, tuple(alphas), p, q, theta0)


@dataclass(frozen=True, eq=False)
class GramData:
    """Gram matrix of the atom interpolation basis and its inverse."""

    gram: np.ndarray
    inverse: np.ndarray
    oprime: np.ndarray       # derivative of p/q at each atom
    numerators: tuple[Polynomial, ...]   # u_j = p / (z - zeta_j), polynomials

    @property
    def condition(self) -> float:
        evals = np.linalg.eigvalsh(self.gram)
        return float(evals.max() / evals.min())


def gram_from_outer(mu: CircleMeasure, outer: OuterData) -> GramData:
    """Hermitian Gram matrix of the functions (p/q) / (O'(zeta_j)(z - zeta_j)).

    Diagonal entries are c_j zeta_j f_j'(zeta_j); off-diagonal entries are
    1 / (O'(zeta_i) conj(O'(zeta_j)) (1 - zeta_i conj(zeta_j))).
    """
    zetas = mu.zetas()
    k = mu.size
    scale = cmath.exp(1j * outer.theta0) / math.sqrt(outer.gamma_fr)
    u = tuple(
        Polynomial.from_roots(np.delete(zetas, j), leading=1.0).scaled(scale)
        for j in range(k)
    )
    q, dq = outer.q, outer.q.derivative()
    oprime = np.array([u[j](zetas[j]) / q(zetas[j]) for j in range(k)])

    G = np.empty((k, k), dtype=complex)
    for i in range(k):
        # f_i = u_i / (O'(zeta_i) q); quotient rule at the atom itself
        du = u[i].derivative()
        fprime = (du(zetas[i]) * q(zetas[i]) - u[i](zetas[i]) * dq(zetas[i])) / (
            oprime[i] * q(zetas[i]) ** 2)
        G[i, i] = mu.weights[i] * zetas[i] * fprime
        for j in range(k):
            if j == i:
                continue
            G[i, j] = 1.0 / (
                oprime[i] * np.conj(oprime[j]) * (1.0 - zetas[i] * np.conj(zetas[j])))
    G = 0.5 * (G + G.conj().T)
    evals = np.linalg.eigvalsh(G)
    if evals.min() <= 1e-13 * max(abs(evals).max(), 1e-300):
        raise GramSingularError(f"Gram eigenvalues {evals}")
    inv = np.linalg.solve(G, np.eye(k, dtype=complex))
    cond = float(abs(evals).max() / abs(evals).min())
    resid = np.abs(G @ inv - np.eye(k)).max()
    if resid > 1e-9 * cond:
        raise GramSingularError(f"inversion residual {resid:.3e} at condition {cond:.3e}")
    return GramData(G, inv, oprime, u)


@dataclass(frozen=True, eq=False)
class RationalSymbol:
    """Row symbol (p_1/q, ..., p_k/q) with numerator matrix eta = chol* chol.

    eta[i, j] is positioned so that

        sum_t p_t(z) conj(p_t(w)) = sum_{i,j} eta[j, i] z^{i+1} conj(w)^{j+1}

    and chol is the upper triangular factor with nonnegative diagonal.
    Pipeline-built symbols read p_t off row t of chol; a symbol assembled
    from raw numerators keeps those numerators, which match the rows of
    chol only up to a constant unitary remixing (the kernel above is what
    is well defined either way).
    """

    k: int
    numerators: tuple[Polynomial, ...]
    q: Polynomial
    alphas: tuple[complex, ...]
    eta: np.ndarray
    chol: np.ndarray
    gamma_fr: float | None = None

    def __post_init__(self):
        """Admit only the class the certificates are stated for: numerators
        vanishing at 0 of degree at most k, k simple poles outside the
        closed disc, and sum_j |p_j/q|^2 <= 1 on the circle, checked on
        SCHUR_SAMPLES points."""
        if len(self.numerators) != self.k:
            raise ValueError(
                f"{len(self.numerators)} numerators for a rank-{self.k} symbol")
        for j, p in enumerate(self.numerators):
            if p.coeffs and abs(p.coeffs[0]) > 1e-14 * max(
                    1.0, max(abs(c) for c in p.coeffs)):
                raise ValueError(f"numerator {j} has nonzero constant term")
            if p.coeffs and p.degree > self.k:
                raise ValueError(f"numerator {j} has degree {p.degree} > {self.k}")
        alphas = np.asarray(self.alphas, dtype=complex)
        if len(alphas) != self.k:
            raise ValueError(f"{len(alphas)} poles for a rank-{self.k} symbol")
        for i in range(self.k):
            if abs(alphas[i]) <= 1.0:
                raise ValueError(f"pole {alphas[i]} is not outside the closed disc")
            for j in range(i + 1, self.k):
                if abs(alphas[i] - alphas[j]) <= POLE_GAP:
                    raise ValueError(f"poles {alphas[i]} and {alphas[j]} coincide")
        zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, SCHUR_SAMPLES, endpoint=False))
        num = np.zeros(SCHUR_SAMPLES)
        for p in self.numerators:
            num += np.abs(p(zs)) ** 2
        den = np.abs(self.q(zs)) ** 2
        excess = float((num / den).max())
        if excess > 1.0 + 1e-8:
            raise ValueError(f"symbol violates the Schur bound: max row norm {excess}")

    @cached_property
    def numerators_at_poles(self) -> np.ndarray:
        """vals[j, r] = p_j(alpha_r), one array Horner pass per numerator,
        computed on first use and shared by the pole pairing and the
        Taylor rows."""
        alphas = np.asarray(self.alphas, dtype=complex)
        vals = np.empty((len(self.numerators), len(alphas)), dtype=complex)
        for j, p in enumerate(self.numerators):
            vals[j] = p(alphas)
        vals.flags.writeable = False
        return vals

    def inverse_pole_powers(self, count: int) -> np.ndarray:
        """P[m - 1, r] = (1/alpha_r)^m for m = 1..count, by running
        products of the reciprocal. The reciprocal lies in the open disc,
        so the powers of a far pole underflow towards 0 where alpha_r^-m
        would overflow. On the benchmark's measure pool, running products
        left slightly less rounding drift in the Taylor engine's forward
        differences than numpy's power of the reciprocal."""
        inverse = 1.0 / np.asarray(self.alphas, dtype=complex)
        return np.cumprod(np.broadcast_to(inverse, (count, len(inverse))), axis=0)


def _phase_fixed_upper(R: np.ndarray) -> np.ndarray:
    out = R.copy()
    for i in range(out.shape[0]):
        d = out[i, i]
        if abs(d) > 1e-300:
            out[i, :] *= np.conj(d) / abs(d)
    return out


def symbol_from_parts(alphas: Sequence[complex],
                      numerators: Sequence[Sequence[complex]],
                      gamma_fr: float | None = None) -> RationalSymbol:
    """Assemble a symbol from raw poles and numerator coefficients."""
    k = len(numerators)
    if len(alphas) != k:
        raise ValueError(f"{len(alphas)} poles with {k} numerators")
    polys = tuple(Polynomial.from_coeffs(cs) for cs in numerators)
    for t, p in enumerate(polys):
        if p.coeffs and p.degree > k:
            raise ValueError(f"numerator {t} has degree {p.degree} > {k}")
    C = np.zeros((k, k), dtype=complex)
    for t, p in enumerate(polys):
        C[t, :] = p.padded(k + 1)[1:]
    eta = C.conj().T @ C
    eta = 0.5 * (eta + eta.conj().T)
    chol = _phase_fixed_upper(np.linalg.qr(C)[1])
    return RationalSymbol(k, polys, Polynomial.from_roots(alphas),
                          tuple(map(complex, alphas)), eta, chol, gamma_fr)


def measure_to_symbol(mu: CircleMeasure) -> RationalSymbol:
    """Run the full pipeline from atoms to the rational row symbol.

    Steps: factor the boundary weight polynomial, build the outer quotient
    p/q, assemble and invert the atom Gram matrix, expand

        q(z) conj(q(w)) - p(z) conj(p(w)) * (1 + correction(z, w))

    in the monomials z^a conj(w)^b, drop the vanishing row and column zero,
    project the remaining k x k matrix to the PSD cone, and split it as
    chol* chol with chol upper triangular. Row t of chol gives p_t.

    The empty measure yields the zero symbol with k = 0.
    """
    if mu.size == 0:
        return symbol_from_parts((), (), gamma_fr=1.0)
    outer = outer_from_measure(mu)
    gram = gram_from_outer(mu, outer)
    k = mu.size

    # weights of the pole-pair correction kernel
    b = gram.inverse
    W = np.conj(b) / (gram.oprime[:, None] * np.conj(gram.oprime)[None, :])
    U = np.zeros((k, k), dtype=complex)
    for j, u in enumerate(gram.numerators):
        U[j, :] = u.padded(k)
    core = U.T @ W @ np.conj(U)

    qc = outer.q.padded(k + 1)
    pc = outer.p.padded(k + 1)
    atilde = np.outer(qc, np.conj(qc)) - np.outer(pc, np.conj(pc))
    atilde[:k, :k] -= core
    atilde[1:, 1:] += core

    scale = max(float(np.abs(atilde).max()), 1e-300)
    edge = max(float(np.abs(atilde[0, :]).max()), float(np.abs(atilde[:, 0]).max()))
    if edge > 1e-9 * scale:
        raise RuntimeError(
            f"numerator expansion has nonvanishing degree-zero edge {edge:.3e}")

    A = atilde[1:, 1:].T
    A = 0.5 * (A + A.conj().T)
    evals, vecs = np.linalg.eigh(A)
    norm = max(float(np.abs(evals).max()), 1e-300)
    if evals.min() < -1e-8 * norm:
        raise EtaNotPSDError(f"numerator matrix eigenvalues {evals}")
    clipped = np.clip(evals, 0.0, None)
    A_psd = (vecs * clipped) @ vecs.conj().T
    A_psd = 0.5 * (A_psd + A_psd.conj().T)

    M = (np.sqrt(clipped)[:, None]) * vecs.conj().T
    P = _phase_fixed_upper(np.linalg.qr(M)[1])
    split = np.abs(P.conj().T @ P - A_psd).max()
    if split > 1e-10 * max(norm, 1.0):
        raise RuntimeError(f"cholesky split residual {split:.3e}")

    polys = tuple(
        Polynomial.from_coeffs(np.concatenate([[0.0], P[t, :]]))
        for t in range(k)
    )
    return RationalSymbol(k, polys, outer.q, outer.alphas, A_psd, P,
                          outer.gamma_fr)


def eta_values(sym: RationalSymbol, z, w) -> np.ndarray:
    """Kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) on a grid.

    z and w are 1-d arrays; the result has shape (len(z), len(w)).
    """
    zs = np.asarray(z, dtype=complex).ravel()
    ws = np.asarray(w, dtype=complex).ravel()
    acc = np.zeros((len(zs), len(ws)), dtype=complex)
    for p in sym.numerators:
        acc += np.outer(p(zs), np.conj(p(ws)))
    return acc / np.outer(sym.q(zs), np.conj(sym.q(ws)))


@dataclass(frozen=True)
class AntipodalClosedForm:
    """Closed-form pipeline output for atoms at +1 and -1.

    gamma1, gamma3 are the nonnegative square roots; the symbol is
    p_1 = gamma1 z + gamma2 z^2, p_2 = gamma3 z^2 over
    q = (z - alpha1)(z - alpha2), and gamma_fr = -1/(alpha1 alpha2).
    """

    c1: float
    c2: float
    c_plus: float
    c_minus: float
    gamma_fr: float
    alpha1: float
    alpha2: float
    gamma1: float
    gamma2: float
    gamma3: float

    def to_symbol(self) -> RationalSymbol:
        return symbol_from_parts(
            [self.alpha1, self.alpha2],
            [[0.0, self.gamma1, self.gamma2], [0.0, 0.0, self.gamma3]],
            gamma_fr=self.gamma_fr)


def closed_form_antipodal(c1: float, c2: float) -> AntipodalClosedForm:
    """Two-atom symbol for c1 * delta_{+1} + c2 * delta_{-1}, in closed form."""
    c1, c2 = float(c1), float(c2)
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("both weights must be positive")
    cp = math.sqrt(c1) + math.sqrt(c2)
    cm = math.sqrt(c1) - math.sqrt(c2)
    rp = math.sqrt(4.0 + cp * cp)
    rm = math.sqrt(4.0 + cm * cm)
    gamma_fr = (rp - cp) ** 2 / 4.0
    alpha1 = (cm + rm) * (cp + rp) / 4.0
    alpha2 = (cm - rm) * (cp + rp) / 4.0
    s = alpha1 + alpha2
    prod = alpha1 * alpha2

    def checked_sqrt(x: float, label: str) -> float:
        if x < -1e-9 * max(1.0, abs(x)):
            raise ArithmeticError(f"{label} radicand {x} is negative")
        return math.sqrt(max(x, 0.0))

    g1 = checked_sqrt(
        s * s + prod * (1.0 - alpha1 ** 2) * (1.0 - alpha2 ** 2) / (prod - 1.0),
        "gamma1")
    # coefficient matching of sum_j p_j(z) conj(p_j(w)) forces
    # gamma2 gamma1 = -(alpha1 + alpha2)(1 + alpha1 alpha2)
    g2 = -s * (1.0 + prod) / g1
    g3 = checked_sqrt(
        1.0 - prod * (3.0 - prod - alpha1 ** 2 - alpha2 ** 2) / (prod - 1.0)
        - g2 * g2,
        "gamma3")
    return AntipodalClosedForm(c1, c2, cp, cm, gamma_fr, alpha1, alpha2,
                               g1, g2, g3)


def single_atom_symbol(tau: float, theta: float = 0.0) -> RationalSymbol:
    """Rank-one symbol for tau * delta at exp(i theta), in closed form.

    The contraction parameter eta in (0, 1) solves eta + 1/eta = 2 + tau;
    the single pole sits at exp(i theta)/eta and the numerator is
    -sqrt(tau/eta) z.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("atom weight must be positive")
    s = 2.0 + tau
    eta = (s - math.sqrt(s * s - 4.0)) / 2.0
    lam = cmath.exp(1j * float(theta))
    return symbol_from_parts(
        [lam / eta],
        [[0.0, -math.sqrt(tau / eta)]],
        gamma_fr=eta)
