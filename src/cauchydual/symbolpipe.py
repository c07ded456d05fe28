"""From a finitely supported positive measure on the unit circle to the
rational row symbol of the associated shift-invariant kernel.

The pipeline is exact rational arithmetic in floating point: spectral
factorization of the boundary weight polynomial, an outer quotient p/q,
a small hermitian Gram system at the atoms, and the Cholesky factor of the
resulting numerator matrix. The output is a row of polynomial numerators
p_1, ..., p_k over the common denominator q with p_j(0) = 0 and

    sum_j |p_j(z)/q(z)|^2 <= 1   on the closed unit disc.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .polyrat import (
    CIRCLE,
    POLE_GAP,
    RESIDUAL_STRIDE,
    check_above,
    check_at_most,
    _horner,
    fejer_riesz_factor,
    from_roots,
)


class GramSingularError(ValueError):
    """The atom Gram matrix is numerically singular."""


class EtaNotPSDError(ValueError):
    """The numerator matrix is not numerically positive definite."""


@dataclass(frozen=True)
class CircleMeasure:
    """Atoms (theta_j, c_j) of sum_j c_j * delta at exp(i theta_j).

    Weights must be nonnegative; zero-weight atoms are dropped during
    construction and the surviving atom locations must be pairwise
    distinct. The empty measure is allowed. zetas holds the kept atoms'
    points exp(i theta_j), made once, read-only.
    """

    thetas: tuple[float, ...] = ()
    weights: tuple[float, ...] = ()
    zetas: np.ndarray = field(init=False, repr=False, compare=False)

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
        zs = np.exp(1j * np.asarray(kept_t, dtype=float))
        zs.flags.writeable = False
        # each coinciding pair i < j fails, so the first in row-major order raises
        gaps = np.abs(zs[:, None] - zs)
        for hit in np.flatnonzero(np.triu(gaps <= POLE_GAP, 1)):
            i, j = divmod(int(hit), len(zs))
            check_above(gaps[i, j], POLE_GAP, "gap of atoms {} and {} (theta {} vs {})",
                        ValueError, i, j, kept_t[i], kept_t[j])
        object.__setattr__(self, "thetas", tuple(kept_t))
        object.__setattr__(self, "weights", tuple(kept_w))
        object.__setattr__(self, "zetas", zs)

    @property
    def size(self) -> int:
        return len(self.thetas)


def boundary_polynomial(mu: CircleMeasure) -> np.ndarray:
    """Weight polynomial prod_j |z-zeta_j|^2 + sum_j c_j prod_{l!=j} |z-zeta_l|^2.

    Returned as its full hermitian band (d_{-k}, ..., d_k), ascending in
    the exponent, of bandwidth k = number of atoms, using
    |z - zeta|^2 = 2 - conj(zeta) z - zeta conj(z) on |z| = 1; this is the
    array fejer_riesz_factor takes.
    """
    factors = [
        np.array([-z, 2.0, -np.conj(z)], dtype=complex) for z in mu.zetas
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


def outer_from_measure(mu: CircleMeasure) -> tuple:
    """(alphas, p, q): the outer quotient p/q of a measure, with
    q = prod (z - alpha_j) from the spectral factorization and
    p = (e^{i theta0}/sqrt(gamma)) prod (z - zeta_j), the phase theta0
    chosen so p(0)/q(0) > 0; p[-1] is that scale. alphas is the sorted
    pole array of the factorization; p and q are ascending coefficient
    arrays of length k + 1."""
    gamma, alphas, q = fejer_riesz_factor(boundary_polynomial(mu))
    monic_at_zero = complex(np.prod(-mu.zetas))
    theta0 = -cmath.phase(monic_at_zero / complex(q[0]))
    scale = cmath.exp(1j * theta0) / math.sqrt(gamma)
    # Python's complex product, not numpy's, which differs in the last bit
    p = np.array([scale * c for c in from_roots(mu.zetas).tolist()])
    ratio = complex(p[0]) / complex(q[0])
    check_at_most(abs(ratio.imag), 1e-12 * abs(ratio),
                  "normalization |Im p(0)/q(0)|", RuntimeError)
    check_above(ratio.real, 0.0, "normalization Re p(0)/q(0)", RuntimeError)
    return alphas, p, q


def gram_from_outer(mu: CircleMeasure, p: np.ndarray, q: np.ndarray) -> tuple:
    """(gram, inverse, oprime, U): the hermitian Gram matrix of the atom
    interpolation basis, the functions (p/q) / (O'(zeta_j)(z - zeta_j)),
    its inverse, the derivative O' of p/q at each atom, and U, whose row j
    holds the ascending coefficients of u_j = p / (z - zeta_j).

    Diagonal entries are c_j zeta_j f_j'(zeta_j); off-diagonal entries are
    1 / (O'(zeta_i) conj(O'(zeta_j)) (1 - zeta_i conj(zeta_j))).
    """
    zetas = mu.zetas
    k = mu.size
    # U[j, i] is the coefficient of z^i in u_j = p / (z - zeta_j), by
    # synthetic division for all atoms at once: from the top,
    # U[j, k - 1] = p_k and U[j, i - 1] = p_i + zeta_j U[j, i]
    U = np.empty((k, k), dtype=complex)
    U[:, k - 1] = p[k]
    for i in range(k - 1, 0, -1):
        U[:, i - 1] = p[i] + zetas * U[:, i]
    powers = np.arange(1, k + 1)
    # row j of U at zeta_j, and q at every atom
    u_at, du_at = _horner(U, zetas), _horner(U[:, 1:] * powers[:-1], zetas)
    q_at, dq_at = _horner(q, zetas), _horner(q[1:] * powers, zetas)
    oprime = u_at / q_at

    # f_i = u_i / (O'(zeta_i) q); quotient rule at the atom itself
    fprime = (du_at * q_at - u_at * dq_at) / (oprime * q_at ** 2)
    rotation = 1.0 - zetas[:, None] * np.conj(zetas)[None, :]
    np.fill_diagonal(rotation, 1.0)
    G = 1.0 / (oprime[:, None] * np.conj(oprime)[None, :] * rotation)
    np.fill_diagonal(G, np.asarray(mu.weights) * zetas * fprime)
    G = 0.5 * (G + G.conj().T)
    evals = np.linalg.eigvalsh(G)
    top = max(float(abs(evals).max()), 1e-300)
    check_above(evals.min(), 1e-13 * top, "smallest Gram eigenvalue", GramSingularError)
    inv = np.linalg.solve(G, np.eye(k, dtype=complex))
    cond = float(abs(evals).max() / abs(evals).min())
    check_at_most(np.abs(G @ inv - np.eye(k)).max(), 1e-9 * cond,
                  "Gram inversion residual", GramSingularError)
    return G, inv, oprime, U


@dataclass(frozen=True, eq=False)
class RationalSymbol:
    """Row symbol (p_1/q, ..., p_m/q) with q = prod_r (z - alpha_r).

    The poles and the m x (k + 1) coefficient matrix are the whole symbol,
    each stored as a read-only complex copy: alphas[r] is pole r and
    coefficients[j, i] is the coefficient of z^i in p_j. k, q and gamma_fr
    are derived from them; the certificates read the poles and the
    numerators' values there only, which certify.pole_pairing builds.
    """

    alphas: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        """Admit only the class the certificates are stated for: finite
        poles in a 1-D array and coefficients, an m x (k + 1) matrix (m
        numerators of degree at most k, at least one when k >= 1), each
        numerator vanishing at 0, k simple poles outside the closed disc, and
        sum_j |p_j/q|^2 <= 1 on the circle, checked on
        CIRCLE[::RESIDUAL_STRIDE] and at each pole's direction."""
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
        const = np.abs(C[:, 0])
        bound = 1e-14 * np.maximum(np.abs(C).max(axis=1), 1.0)
        for j in np.flatnonzero(const > bound):     # the first one raises
            check_at_most(const[j], bound[j], "numerator {} constant term", ValueError, j)
        # each fault fails its check, so the first raises: moduli first, then
        # the coinciding pairs i < j in row-major order
        moduli, gaps = np.abs(alphas), np.abs(alphas[:, None] - alphas)
        for i in np.flatnonzero(moduli <= 1.0):
            check_above(moduli[i], 1.0, "modulus of pole {}", ValueError, alphas[i])
        for hit in np.flatnonzero(np.triu(gaps <= POLE_GAP, 1)):
            i, j = divmod(int(hit), self.k)
            check_above(gaps[i, j], POLE_GAP, "gap of poles {} and {}",
                        ValueError, alphas[i], alphas[j])
        # by Horner: the pole form sum_j |b_j|^2 = h^T pair conj(h) cancels
        # digits as poles near each other (1.5e-8 off at a gap of 1e-4); far
        # poles overflow the samples to a NaN row norm, which the check
        # rejects. Pole r's term peaks at z = alpha_r / |alpha_r|, between
        # the grid points in general, so those points are sampled too
        with np.errstate(over="ignore", invalid="ignore"):
            zs = np.concatenate([CIRCLE[::RESIDUAL_STRIDE], alphas / moduli])
            num = (np.abs(_horner(C[:, None, :], zs)) ** 2).sum(axis=0)
            norm = float((num / np.abs(_horner(self.q, zs)) ** 2).max())
        check_at_most(norm, 1.0 + 1e-8, "Schur row norm", ValueError)

    @property
    def k(self) -> int:
        return len(self.alphas)

    @cached_property
    def q(self) -> np.ndarray:
        """Ascending coefficients of q, read-only."""
        q = from_roots(self.alphas)
        q.flags.writeable = False
        return q

    @property
    def gamma_fr(self) -> float:
        """Fejer-Riesz constant 1/prod_r |alpha_r| of the measure whose
        symbol this is: the boundary weight gamma |q|^2 has top coefficient
        of modulus 1. It is 1.0 for the empty symbol."""
        return 1.0 / float(np.prod(np.abs(self.alphas)))


def symbol_from_parts(alphas: Sequence[complex],
                      numerators: Sequence[Sequence[complex]]) -> RationalSymbol:
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
    return RationalSymbol(alphas, C)


def measure_to_symbol(mu: CircleMeasure) -> RationalSymbol:
    """Run the full pipeline from atoms to the rational row symbol.

    Steps: factor the boundary weight polynomial, build the outer quotient
    p/q, assemble and invert the atom Gram matrix, expand

        q(z) conj(q(w)) - p(z) conj(p(w)) * (1 + correction(z, w))

    in the monomials z^a conj(w)^b, drop the vanishing row and column zero,
    and split the remaining k x k matrix as P* P by its Cholesky factor P
    (upper triangular, positive diagonal; EtaNotPSDError where it fails).
    Row t of P gives p_t.

    The empty measure yields the zero symbol with k = 0.
    """
    if mu.size == 0:
        return symbol_from_parts((), ())
    alphas, pc, qc = outer_from_measure(mu)
    _, b, oprime, U = gram_from_outer(mu, pc, qc)
    k = mu.size

    # weights of the pole-pair correction kernel
    W = np.conj(b) / (oprime[:, None] * np.conj(oprime)[None, :])
    core = U.T @ W @ np.conj(U)

    atilde = np.outer(qc, np.conj(qc)) - np.outer(pc, np.conj(pc))
    atilde[:k, :k] -= core
    atilde[1:, 1:] += core

    scale = max(float(np.abs(atilde).max()), 1e-300)
    edge = max(float(np.abs(atilde[0, :]).max()), float(np.abs(atilde[:, 0]).max()))
    check_at_most(edge, 1e-9 * scale, "numerator expansion degree-zero edge",
                  RuntimeError)

    A = atilde[1:, 1:].T
    # entries near the float range overflow A to NaN, which the check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        A = 0.5 * (A + A.conj().T)
        try:
            P = np.linalg.cholesky(A).conj().T
        except np.linalg.LinAlgError:
            evals = np.linalg.eigvalsh(A)
            raise EtaNotPSDError(
                f"numerator matrix has no Cholesky factor: lambda_min {evals[0]:.3e}, "
                f"lambda_max {evals[-1]:.3e}, lambda_min/lambda_max "
                f"{evals[0] / max(abs(evals[-1]), 1e-300):.3e}") from None
        check_at_most(float(np.abs(P.conj().T @ P - A).max()),
                      1e-10 * max(float(np.abs(A).max()), 1.0),
                      "cholesky split residual", RuntimeError)

    # row t of P holds the coefficients of z^1..z^k in p_t
    return RationalSymbol(alphas, np.hstack([np.zeros((k, 1)), P]))


def _shift_root(c: float) -> float:
    """The positive root of x^2 - c x - 1 as a sum or quotient of positive
    terms: (c + sqrt(4 + c^2))/2 for c >= 0, 2/(sqrt(4 + c^2) - c) for c < 0."""
    r = math.sqrt(4.0 + c * c)
    return (c + r) / 2.0 if c >= 0.0 else 2.0 / (r - c)


def closed_form_antipodal(c1: float, c2: float) -> RationalSymbol:
    """Two-atom symbol for c1 * delta_{+1} + c2 * delta_{-1}, in closed form.

    p_1 = gamma1 z + gamma2 z^2 and p_2 = gamma3 z^2 over
    q = (z - alpha1)(z - alpha2). With r_i = sqrt(c_i), h = root(r1 + r2)
    and k = root(r1 - r2) from _shift_root, and t = 1 + h^2: alpha1 = h k,
    alpha2 = -h/k, gamma1 = h sqrt((r1 - r2)^2 + 4 r1 r2 h^2/t),
    gamma2 = (c1 - c2) h^2/gamma1 and gamma3 = 4 r1 r2 h^3/(t gamma1), each
    a sum or product of positive terms. Why: h^2 - (r1 + r2) h = 1 gives
    alpha1 alpha2 = -h^2, alpha1 + alpha2 = (r1 - r2) h and
    1 + alpha1 alpha2 = -(r1 + r2) h. The boundary weight at +-1 is 4 c1
    and 4 c2 and equals |1 -+ alpha1|^2 |1 -+ alpha2|^2/h^2, so
    (alpha1^2 - 1)(alpha2^2 - 1) = 4 r1 r2 h^2. Coefficient matching forces
    gamma1 gamma2 = -(alpha1 + alpha2)(1 + alpha1 alpha2), and sympy factors
    the numerator Gram determinant as gamma1^2 gamma3^2 = -alpha1 alpha2
    (alpha1^2 - 1)^2 (alpha2^2 - 1)^2/(alpha1 alpha2 - 1)^2. h^3 is
    h * h * h, which overflows to inf where ** would raise.
    """
    c1, c2 = float(c1), float(c2)
    if c1 <= 0.0 or c2 <= 0.0:
        raise ValueError("both weights must be positive")
    r1, r2 = math.sqrt(c1), math.sqrt(c2)
    h, k = _shift_root(r1 + r2), _shift_root(r1 - r2)
    t = 1.0 + h * h
    g1 = h * math.sqrt((r1 - r2) * (r1 - r2) + 4.0 * r1 * r2 * h * h / t)
    g2 = (c1 - c2) * h * h / g1
    g3 = 4.0 * r1 * r2 * h * h * h / (t * g1)
    return symbol_from_parts([h * k, -h / k], [[0.0, g1, g2], [0.0, 0.0, g3]])


def single_atom_symbol(tau: float, theta: float = 0.0) -> RationalSymbol:
    """Rank-one symbol for tau * delta at exp(i theta), in closed form.

    With s = sqrt(tau) and h = _shift_root(s), the pole is exp(i theta) h^2
    and the numerator -s h z, so gamma_fr = 1/h^2 is the contraction
    parameter eta: h - 1/h = s gives eta + 1/eta = 2 + tau, and
    |s h|^2 = tau/eta.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError("atom weight must be positive")
    s = math.sqrt(tau)
    h = _shift_root(s)
    lam = cmath.exp(1j * float(theta))
    return symbol_from_parts([lam * (h * h)], [[0.0, -s * h]])
