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
from typing import Sequence

import numpy as np

from .polyrat import (
    POLE_GAP,
    circle_points,
    _horner,
    fejer_riesz_factor,
    from_roots,
)

# circle points on which a symbol's Schur bound is checked
SCHUR_SAMPLES = 512


class EmptyMeasureError(ValueError):
    """Operation needs at least one atom."""


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


def boundary_polynomial(mu: CircleMeasure) -> np.ndarray:
    """Weight polynomial prod_j |z-zeta_j|^2 + sum_j c_j prod_{l!=j} |z-zeta_l|^2.

    Returned as its full hermitian band (d_{-k}, ..., d_k), ascending in
    the exponent, of bandwidth k = number of atoms, using
    |z - zeta|^2 = 2 - conj(zeta) z - zeta conj(z) on |z| = 1; this is the
    array fejer_riesz_factor takes.
    """
    if mu.size == 0:
        raise EmptyMeasureError("the empty measure has no boundary polynomial")
    factors = [
        np.array([-z, 2.0, -np.conj(z)], dtype=complex) for z in mu.zetas()
    ]
    # prefixes[j] = f_0 * ... * f_{j-1}, convolved in one factor at a time
    prefixes = [np.array([1.0 + 0.0j])]
    for f in factors:
        prefixes.append(np.convolve(prefixes[-1], f))

    # The summation order is load-bearing: the Fejer-Riesz roots amplify a
    # last-bit change in this band. Building each partial product from
    # shared prefix and suffix products instead moved the Agler numbers of
    # 12 of the 511 symbols the benchmark's measure pool builds past its
    # 1e-8 tolerance (worst 7.3e-7, pool measure 8/12) and made the
    # pipeline reject measure 6/25. Partial j continues prefix j through
    # f_{j+1}, ..., the order of one left-to-right product.
    k = mu.size
    acc = np.zeros(2 * k + 1, dtype=complex)
    acc += prefixes[k]
    for j, c in enumerate(mu.weights):
        partial = prefixes[j]
        for f in factors[j + 1:]:
            partial = np.convolve(partial, f)
        lo = (len(acc) - len(partial)) // 2
        acc[lo: lo + len(partial)] += c * partial
    return acc


@dataclass(frozen=True, eq=False)
class OuterData:
    """Outer quotient p/q for a measure: q = prod (z - alpha_j) from the
    spectral factorization and p = (e^{i theta0}/sqrt(gamma)) prod (z - zeta_j),
    with the phase theta0 chosen so p(0)/q(0) > 0; p[-1] is that scale.
    alphas is the sorted pole array of the factorization; p and q are
    ascending coefficient arrays of length k + 1."""

    gamma_fr: float
    alphas: np.ndarray
    p: np.ndarray
    q: np.ndarray


def outer_from_measure(mu: CircleMeasure) -> OuterData:
    if mu.size == 0:
        raise EmptyMeasureError("the empty measure has no outer quotient")
    gamma, alphas = fejer_riesz_factor(boundary_polynomial(mu))
    q = from_roots(alphas)
    zetas = mu.zetas()
    monic_at_zero = complex(np.prod(-zetas))
    theta0 = -cmath.phase(monic_at_zero / complex(q[0]))
    scale = cmath.exp(1j * theta0) / math.sqrt(gamma)
    # Python's complex product, not numpy's, which differs in the last bit
    p = np.array([scale * c for c in from_roots(zetas).tolist()])
    ratio = complex(p[0]) / complex(q[0])
    if not (abs(ratio.imag) <= 1e-12 * abs(ratio) and ratio.real > 0.0):
        raise RuntimeError(f"normalization failed: p(0)/q(0) = {ratio}")
    return OuterData(gamma, alphas, p, q)


@dataclass(frozen=True, eq=False)
class GramData:
    """Gram matrix of the atom interpolation basis and its inverse."""

    gram: np.ndarray
    inverse: np.ndarray
    oprime: np.ndarray       # derivative of p/q at each atom
    U: np.ndarray            # U[j, i]: coefficient of z^i in u_j = p / (z - zeta_j)


def gram_from_outer(mu: CircleMeasure, outer: OuterData) -> GramData:
    """Hermitian Gram matrix of the functions (p/q) / (O'(zeta_j)(z - zeta_j)).

    Diagonal entries are c_j zeta_j f_j'(zeta_j); off-diagonal entries are
    1 / (O'(zeta_i) conj(O'(zeta_j)) (1 - zeta_i conj(zeta_j))).
    """
    zetas = mu.zetas()
    k = mu.size
    # U[j, i] is the coefficient of z^i in u_j = p / (z - zeta_j), by
    # synthetic division for all atoms at once: from the top,
    # U[j, k - 1] = p_k and U[j, i - 1] = p_i + zeta_j U[j, i]
    pc, qc = outer.p, outer.q
    U = np.empty((k, k), dtype=complex)
    U[:, k - 1] = pc[k]
    for i in range(k - 1, 0, -1):
        U[:, i - 1] = pc[i] + zetas * U[:, i]
    powers = np.arange(1, k + 1)
    # row j of U at zeta_j, and q at every atom
    u_at, du_at = _horner(U, zetas), _horner(U[:, 1:] * powers[:-1], zetas)
    q_at, dq_at = _horner(qc, zetas), _horner(qc[1:] * powers, zetas)
    oprime = u_at / q_at

    # f_i = u_i / (O'(zeta_i) q); quotient rule at the atom itself
    fprime = (du_at * q_at - u_at * dq_at) / (oprime * q_at ** 2)
    rotation = 1.0 - zetas[:, None] * np.conj(zetas)[None, :]
    np.fill_diagonal(rotation, 1.0)
    G = 1.0 / (oprime[:, None] * np.conj(oprime)[None, :] * rotation)
    np.fill_diagonal(G, np.asarray(mu.weights) * zetas * fprime)
    G = 0.5 * (G + G.conj().T)
    evals = np.linalg.eigvalsh(G)
    if evals.min() <= 1e-13 * max(abs(evals).max(), 1e-300):
        raise GramSingularError(f"Gram eigenvalues {evals}")
    inv = np.linalg.solve(G, np.eye(k, dtype=complex))
    cond = float(abs(evals).max() / abs(evals).min())
    resid = np.abs(G @ inv - np.eye(k)).max()
    if resid > 1e-9 * cond:
        raise GramSingularError(f"inversion residual {resid:.3e} at condition {cond:.3e}")
    return GramData(G, inv, oprime, U)


@dataclass(frozen=True, eq=False)
class RationalSymbol:
    """Row symbol (p_1/q, ..., p_m/q) with q = prod_r (z - alpha_r).

    The poles and the m x (k + 1) coefficient matrix are the whole symbol,
    each stored as a read-only complex copy: alphas[r] is pole r and
    coefficients[j, i] is the coefficient of z^i in p_j. k, q, the
    numerator matrix eta and the numerators' values at the poles are
    derived from them, each once; the certificates read the poles and
    those values only (certify.PolePairing).
    eta[i, j] is positioned so that

        sum_t p_t(z) conj(p_t(w)) = sum_{i,j} eta[j, i] z^{i+1} conj(w)^{j+1}.
    """

    alphas: np.ndarray
    coefficients: np.ndarray
    gamma_fr: float | None = None

    def __post_init__(self):
        """Admit only the class the certificates are stated for: finite
        poles in a 1-D array and coefficients, an m x (k + 1) matrix (m
        numerators of degree at most k, at least one when k >= 1), each
        numerator vanishing at 0, k simple poles outside the closed disc, and
        sum_j |p_j/q|^2 <= 1 on the circle, checked on SCHUR_SAMPLES
        points."""
        alphas = np.array(self.alphas, dtype=complex)
        if alphas.ndim != 1:
            raise ValueError(f"poles have shape {alphas.shape}, not (k,)")
        C = np.array(self.coefficients, dtype=complex)
        alphas.flags.writeable = C.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "coefficients", C)
        values = np.concatenate([alphas, C.ravel()])
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"pole or numerator coefficient "
                             f"{values[int(np.argmin(finite))]} is not finite")
        if C.ndim != 2 or C.shape[1] != self.k + 1 or len(C) < min(self.k, 1):
            raise ValueError(f"coefficient matrix has shape {C.shape}, "
                             f"not (m, {self.k + 1}) with m >= {min(self.k, 1)}")
        scale = np.maximum(np.abs(C).max(axis=1), 1.0)
        constant = np.flatnonzero(np.abs(C[:, 0]) > 1e-14 * scale)
        if constant.size:
            raise ValueError(f"numerator {constant[0]} has nonzero constant term")
        # scan[i, 0]: pole i lies in the closed disc; scan[i, 1 + j]: poles
        # i < j coincide. The first hit in row-major order is raised, the
        # order of checking pole 0, its pairs (0, j), pole 1, ...
        index = np.arange(self.k)
        scan = np.empty((self.k, self.k + 1), dtype=bool)
        scan[:, 0] = np.abs(alphas) <= 1.0
        scan[:, 1:] = ((np.abs(alphas[:, None] - alphas) <= POLE_GAP)
                       & (index[:, None] < index))
        hits = np.flatnonzero(scan)
        if hits.size:
            i, j = divmod(int(hits[0]), self.k + 1)
            if j == 0:
                raise ValueError(f"pole {alphas[i]} is not outside the closed disc")
            raise ValueError(f"poles {alphas[i]} and {alphas[j - 1]} coincide")
        # by Horner: the pole form sum_j |b_j|^2 = h^T pair conj(h) cancels
        # digits as poles near each other (1.5e-8 off at a gap of 1e-4)
        zs = circle_points(SCHUR_SAMPLES)
        num = (np.abs(_horner(C[:, None, :], zs)) ** 2).sum(axis=0)
        den = np.abs(_horner(self.q, zs)) ** 2
        excess = float((num / den).max())
        if excess > 1.0 + 1e-8:
            raise ValueError(f"symbol violates the Schur bound: max row norm {excess}")

    @property
    def k(self) -> int:
        return len(self.alphas)

    @cached_property
    def q(self) -> np.ndarray:
        """Ascending coefficients of q, read-only."""
        q = from_roots(self.alphas)
        q.flags.writeable = False
        return q

    @cached_property
    def eta(self) -> np.ndarray:
        """eta = C^H C, hermitianized, where row t of C holds the
        coefficients of z^1, ..., z^k in p_t; read-only."""
        C = np.ascontiguousarray(self.coefficients[:, 1:])
        eta = C.conj().T @ C
        eta = 0.5 * (eta + eta.conj().T)
        eta.flags.writeable = False
        return eta

    @cached_property
    def numerators_at_poles(self) -> np.ndarray:
        """vals[j, r] = p_j(alpha_r), one Horner pass over the coefficient
        matrix: the values the pole pairing is built from."""
        vals = _horner(self.coefficients[:, None, :], self.alphas)
        vals.flags.writeable = False
        return vals


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
    """Assemble a symbol from raw poles and numerator coefficient rows.

    Each row is ascending; its trailing zeros are dropped and the rest,
    of degree at most k, is padded into the symbol's coefficient matrix.
    """
    k = np.size(alphas)
    C = np.zeros((len(numerators), k + 1), dtype=complex)
    for j, row in enumerate(numerators):
        cs = np.asarray(row, dtype=complex)
        nonzero = np.flatnonzero(cs)
        n = nonzero[-1] + 1 if nonzero.size else 0
        if n > k + 1:
            raise ValueError(f"numerator {j} has degree {n - 1} > {k}")
        C[j, :n] = cs[:n]
    return RationalSymbol(alphas, C, gamma_fr)


def measure_to_symbol(mu: CircleMeasure) -> RationalSymbol:
    """Run the full pipeline from atoms to the rational row symbol.

    Steps: factor the boundary weight polynomial, build the outer quotient
    p/q, assemble and invert the atom Gram matrix, expand

        q(z) conj(q(w)) - p(z) conj(p(w)) * (1 + correction(z, w))

    in the monomials z^a conj(w)^b, drop the vanishing row and column zero,
    project the remaining k x k matrix to the PSD cone, and split it as
    P* P with P upper triangular. Row t of P gives p_t.

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
    core = gram.U.T @ W @ np.conj(gram.U)

    qc, pc = outer.q, outer.p
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

    # row t of P holds the coefficients of z^1..z^k in p_t
    return RationalSymbol(outer.alphas, np.hstack([np.zeros((k, 1)), P]),
                          outer.gamma_fr)


def closed_form_antipodal(c1: float, c2: float) -> RationalSymbol:
    """Two-atom symbol for c1 * delta_{+1} + c2 * delta_{-1}, in closed form.

    With gamma1, gamma3 the nonnegative square roots, the symbol is
    p_1 = gamma1 z + gamma2 z^2, p_2 = gamma3 z^2 over
    q = (z - alpha1)(z - alpha2) with alpha1 > 1 and alpha2 < -1, and
    gamma_fr = -1/(alpha1 alpha2).
    """
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
    return symbol_from_parts([alpha1, alpha2], [[0.0, g1, g2], [0.0, 0.0, g3]],
                             gamma_fr=gamma_fr)


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
