"""Closed forms of the one-pole symbol b = gamma z/(1 - beta z), kept as
test oracles: its kernel coefficient table, the Taylor coefficients of
phi = b/a, the Gram matrix of the monomials, and the Cauchy dual kernel.

`kernels.kernel_coeffs` on `kernels.rank1_taylor` rows and
`kernels.mate_rank1` must agree with these derivations.
"""
import numpy as np


class GridOutsideDiscError(ValueError):
    """Kernel evaluation grids must stay inside the open unit disc."""


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
