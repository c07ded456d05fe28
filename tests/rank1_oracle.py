"""The one-pole symbol b = gamma z/(1 - beta z) in closed form, kept as
test oracles: its Taylor rows, its mate, its kernel coefficient table, the
Taylor coefficients of phi = b/a, the Gram matrix of the monomials, and the
Cauchy dual kernel.

`kernels.kernel_coeffs` on these rows and `certify.representing_measure` on
the one-pole symbol must agree with these derivations.
"""
import math
from dataclasses import dataclass

import numpy as np

from cauchydual.polyrat import CIRCLE, RESIDUAL_STRIDE


class ExtremePointError(ValueError):
    """1 - |b|^2 vanishes in mean on the circle, so no mate exists."""


class GridOutsideDiscError(ValueError):
    """Kernel evaluation grids must stay inside the open unit disc."""


def rank1_taylor(gamma: complex, beta: complex, n_rows: int) -> np.ndarray:
    """Rows of b(z) = gamma z / (1 - beta z): B_m = gamma beta^(m-1)."""
    if n_rows < 1:
        raise ValueError("need at least one row")
    if abs(beta) >= 1.0:
        raise ValueError("beta must lie in the open unit disc")
    ms = np.arange(n_rows)
    return (complex(gamma) * np.power(complex(beta), ms))[:, None]


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

    zs = CIRCLE[::RESIDUAL_STRIDE]
    denom = np.abs(1.0 - beta * zs) ** 2
    resid = np.abs(
        (np.abs(rho - sigma * zs) ** 2 + np.abs(gamma * zs) ** 2) / denom - 1.0
    ).max()
    if resid > 1e-10:
        raise RuntimeError(f"mate identity residual {resid:.3e}")
    return Rank1Model(gamma, beta, rho, sigma, nu)


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


def phi_coefficients(model, count: int) -> np.ndarray:
    """Taylor coefficients of phi on indices 0..count."""
    out = np.zeros(count + 1, dtype=complex)
    ratio = model.sigma / model.rho
    out[1:] = (model.gamma / model.rho) * np.power(ratio, np.arange(count))
    return out


def gram_monomials_rank1(model, size: int) -> np.ndarray:
    """Gram matrix <z^m, z^n> of the monomials in the symbol's space.

    With c the Taylor coefficients of phi = b/a,

        <z^m, z^n> = delta_{m,n} + sum_{k=0}^{n} conj(c_{m-n+k}) c_k

    for m >= n, hermitian for m < n.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    c = phi_coefficients(model, size)
    G = np.eye(size + 1, dtype=complex)
    for d in range(0, size + 1):
        terms = np.conj(c[d:]) * c[: len(c) - d]
        sums = np.cumsum(terms)
        for n in range(0, size + 1 - d):
            G[n + d, n] += sums[n]
            if d > 0:
                G[n, n + d] = np.conj(G[n + d, n])
    return G


def cauchy_dual_kernel_rank1(model, grid_z, grid_w) -> np.ndarray:
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
