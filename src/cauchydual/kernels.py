"""Taylor rows of a row symbol, kernel coefficient tables, and the rank-one
closed forms: the mate of a one-pole symbol, the Gram matrix of monomials,
and the Cauchy dual reproducing kernel.

Wherever a quantity admits two independent derivations (pole expansion vs
power-series division, rational vs closed-form kernel evaluation) both are
computed and compared, so a bug in either path shows up as a loud residual
instead of a silently wrong table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyrat import lagrange_denominators
from .symbolpipe import RationalSymbol


class ExtremePointError(ValueError):
    """1 - |b|^2 vanishes in mean on the circle, so no mate exists."""


class GridOutsideDiscError(ValueError):
    """Kernel evaluation grids must stay inside the open unit disc."""


@dataclass(frozen=True, eq=False)
class TaylorTable:
    """Rows B_1, ..., B_N of the symbol: rows[m-1, j] is the coefficient
    of z^m in the j-th component."""

    k: int
    rows: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def row_norms(self) -> np.ndarray:
        return np.linalg.norm(self.rows, axis=1)


def _series_inverse(coeffs: np.ndarray, n_terms: int) -> np.ndarray:
    """Power series of 1/q to n_terms coefficients; q(0) must be nonzero."""
    q0 = coeffs[0]
    out = np.zeros(n_terms, dtype=complex)
    out[0] = 1.0 / q0
    for m in range(1, n_terms):
        acc = 0.0 + 0.0j
        for i in range(1, min(m, len(coeffs) - 1) + 1):
            acc += coeffs[i] * out[m - i]
        out[m] = -acc / q0
    return out


def symbol_taylor(sym: RationalSymbol, n_rows: int) -> TaylorTable:
    """Taylor rows of the symbol via the residue expansion at its poles.

    Component j has the expansion

        b_j(z) = - sum_i p_j(alpha_i) / (alpha_i a_i) * sum_{m>=1} (z/alpha_i)^m

    with a_i the Lagrange denominators of the pole set, so row m is a fixed
    vector contracted against alpha_i^{-m}; RationalSymbol guarantees
    distinct poles with |alpha_i| > 1. The same rows are recomputed by
    dividing each numerator by q as a power series; a mismatch beyond 1e-10
    relative is an internal error.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    alphas = np.asarray(sym.alphas, dtype=complex)
    denoms = lagrange_denominators(alphas)
    # weight[j, i] = p_j(alpha_i) / (alpha_i a_i)
    weight = sym.numerators_at_poles / (alphas * denoms)[None, :]
    rows = -(sym.inverse_pole_powers(n_rows) @ weight.T)

    inv_q = _series_inverse(np.asarray(sym.q.coeffs, dtype=complex), n_rows + 1)
    check = np.zeros_like(rows)
    for j, p in enumerate(sym.numerators):
        pc = np.asarray(p.coeffs, dtype=complex)
        series = np.convolve(pc, inv_q)[: n_rows + 1]
        check[:, j] = series[1:]
    scale = float(np.abs(rows).max(initial=1.0))
    gap = float(np.abs(rows - check).max(initial=0.0))
    if gap > 1e-10 * scale:
        raise RuntimeError(
            f"pole expansion and series division disagree by {gap:.3e}")
    return TaylorTable(sym.k, rows)


def rank1_taylor(gamma: complex, beta: complex, n_rows: int) -> TaylorTable:
    """Rows of b(z) = gamma z / (1 - beta z): B_m = gamma beta^(m-1)."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    if abs(beta) >= 1.0:
        raise ValueError("beta must lie in the open unit disc")
    ms = np.arange(n_rows)
    rows = (complex(gamma) * np.power(complex(beta), ms))[:, None]
    return TaylorTable(1, rows)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """K[m, n] = the (m, n) normalized Taylor coefficient of the kernel
    (1 - B(z) B(w)*) / (1 - z conj(w)) at the origin, 0 <= m, n <= size."""

    size: int
    K: np.ndarray


def kernel_coeffs(taylor: TaylorTable, size: int | None = None) -> KernelTable:
    """Kernel coefficient table from the Taylor rows: K = I - T T^H.

    T is the block-lower-triangular Toeplitz matrix of the rows B_0 = 0,
    B_1, ..., B_size, so for m >= n the entry is
    delta_{m,n} - sum_{k=1}^{n} B_{m-n+k} . B_k*. T T^H is accumulated
    along its diagonals, (T T^H)[m, n] = (T T^H)[m-1, n-1] + B_m . B_n*,
    and reflected into the upper triangle; a dense product would sum in
    another order, and the rank-one measure check compares against this
    table at the level of rounding. Requires rows up to index `size`.
    """
    if size is None:
        size = taylor.n_rows
    if size < 0:
        raise ValueError("size must be nonnegative")
    if taylor.n_rows < size:
        raise ValueError(f"need {size} rows, table has {taylor.n_rows}")
    S = taylor.rows @ taylor.rows.conj().T    # S[m-1, n-1] = B_m . B_n*
    TT = np.zeros((size + 1, size + 1), dtype=complex)   # lower triangle of T T^H
    for n in range(1, size + 1):
        TT[n:, n] = TT[n - 1:-1, n - 1] + S[n - 1:size, n - 1]
    return KernelTable(size, np.eye(size + 1) - TT - np.tril(TT, -1).conj().T)


def rank1_kernel_closed_form(gamma: complex, beta: complex, size: int) -> np.ndarray:
    """The same table for b = gamma z/(1 - beta z), in closed form."""
    g2 = abs(gamma) ** 2
    t = abs(beta) ** 2
    K = np.eye(size + 1, dtype=complex)
    for n in range(0, size + 1):
        ratio = (1.0 - t ** n) / (1.0 - t)
        for m in range(n, size + 1):
            if n >= 1:
                K[m, n] -= g2 * complex(beta) ** (m - n) * ratio
            if m > n:
                K[n, m] = np.conj(K[m, n])
    return K


@dataclass(frozen=True, eq=False)
class Rank1Model:
    """One-pole symbol b = gamma z/(1 - beta z) together with its mate
    a = (rho - sigma z)/(1 - beta z), so |a|^2 + |b|^2 = 1 on the circle,
    a(0) = rho > 0, and a is outer. phi = b/a drives the Cauchy dual
    kernel; nu = |gamma|^2 / (1 - |beta|^2) is the point mass of the
    representing measure at beta."""

    gamma: complex
    beta: complex
    rho: float
    sigma: complex
    nu: float

    def phi_coefficients(self, count: int) -> np.ndarray:
        """Taylor coefficients of phi on indices 0..count."""
        out = np.zeros(count + 1, dtype=complex)
        ratio = self.sigma / self.rho
        out[1:] = (self.gamma / self.rho) * np.power(ratio, np.arange(count))
        return out


def mate_rank1(gamma: complex, beta: complex) -> Rank1Model:
    """Mate of b = gamma z/(1 - beta z) via spectral factorization of
    |1 - beta z|^2 - |gamma|^2 on the circle.

    The factor |rho - sigma z|^2 matches that band when rho^2 solves
    t^2 - (1 + |beta|^2 - |gamma|^2) t + |beta|^2 = 0; the outer choice is
    the larger root, which puts the zero rho/sigma on or outside the unit
    circle (on it exactly when |gamma| = 1 - |beta|, which is still a
    legal, non-inner symbol).
    """
    gamma, beta = complex(gamma), complex(beta)
    if abs(beta) >= 1.0:
        raise ValueError("beta must lie in the open unit disc")
    peak = abs(gamma) / (1.0 - abs(beta))
    if peak > 1.0 + 1e-12:
        raise ValueError(f"symbol exceeds the Schur bound: max |b| = {peak}")
    nu = abs(gamma) ** 2 / (1.0 - abs(beta) ** 2)
    if nu >= 1.0 - 1e-8:
        raise ExtremePointError(
            f"1 - |b|^2 has mean {1.0 - nu:.3e} on the circle")
    s = 1.0 + abs(beta) ** 2 - abs(gamma) ** 2
    disc = max(s * s - 4.0 * abs(beta) ** 2, 0.0)
    rho = math.sqrt((s + math.sqrt(disc)) / 2.0)
    sigma = beta / rho

    zs = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    denom = np.abs(1.0 - beta * zs) ** 2
    resid = np.abs(
        (np.abs(rho - sigma * zs) ** 2 + np.abs(gamma * zs) ** 2) / denom - 1.0
    ).max()
    if resid > 1e-10:
        raise RuntimeError(f"mate identity residual {resid:.3e}")
    return Rank1Model(gamma, beta, rho, sigma, nu)


def gram_monomials_rank1(model: Rank1Model, size: int) -> np.ndarray:
    """Gram matrix <z^m, z^n> of the monomials in the symbol's space.

    With c the Taylor coefficients of phi = b/a,

        <z^m, z^n> = delta_{m,n} + sum_{k=0}^{n} conj(c_{m-n+k}) c_k

    for m >= n, hermitian for m < n.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    c = model.phi_coefficients(size)
    G = np.eye(size + 1, dtype=complex)
    for d in range(0, size + 1):
        terms = np.conj(c[d:]) * c[: len(c) - d]
        sums = np.cumsum(terms)
        for n in range(0, size + 1 - d):
            G[n + d, n] += sums[n]
            if d > 0:
                G[n, n + d] = np.conj(G[n + d, n])
    return G


def cauchy_dual_kernel_rank1(model: Rank1Model, grid_z, grid_w) -> np.ndarray:
    """Cauchy dual kernel (1 + phi(z) conj(phi(w))) / (1 - z conj(w)).

    Evaluated two ways, once through phi = b/a as a quotient of rational
    values and once through the closed form in (rho, sigma); the two
    tables must agree to 1e-10. Grids must lie in the open unit disc.
    """
    zs = np.asarray(grid_z, dtype=complex).ravel()
    ws = np.asarray(grid_w, dtype=complex).ravel()
    if len(zs) and np.abs(zs).max() >= 1.0 or len(ws) and np.abs(ws).max() >= 1.0:
        raise GridOutsideDiscError("kernel grid touches or leaves the unit disc")

    def phi_at(pts):
        b = model.gamma * pts / (1.0 - model.beta * pts)
        a = (model.rho - model.sigma * pts) / (1.0 - model.beta * pts)
        return b / a

    cross = np.outer(zs, np.conj(ws))
    via_phi = (1.0 + np.outer(phi_at(zs), np.conj(phi_at(ws)))) / (1.0 - cross)
    closed = (1.0 + abs(model.gamma) ** 2 * cross
              / np.outer(model.rho - model.sigma * zs,
                         np.conj(model.rho - model.sigma * ws))) / (1.0 - cross)
    gap = float(np.abs(via_phi - closed).max()) if via_phi.size else 0.0
    if gap > 1e-10 * max(1.0, float(np.abs(closed).max()) if closed.size else 1.0):
        raise RuntimeError(f"kernel evaluations disagree by {gap:.3e}")
    return closed
