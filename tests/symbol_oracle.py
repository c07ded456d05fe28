"""Second derivations of symbol-level quantities, kept as test oracles:
the rotated measure, for the rotation covariance of the pipeline; the
kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) evaluated on a grid,
for comparing symbols built along different routes; and the atom Gram
matrix built entry by entry from one polynomial per atom, with its
condition number, which `symbolpipe.gram_from_outer` assembles as array
passes over all atoms at once.
"""
import cmath

import numpy as np
from numpy.polynomial import polynomial as npoly

from cauchydual.symbolpipe import (
    CircleMeasure,
    GramData,
    GramSingularError,
    OuterData,
    RationalSymbol,
)


class NotUnimodularError(ValueError):
    """Rotation parameter must lie on the unit circle."""


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


def eta_values(sym: RationalSymbol, z, w) -> np.ndarray:
    """Kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) on a grid.

    z and w are 1-d arrays; the result has shape (len(z), len(w)).
    """
    zs = np.asarray(z, dtype=complex).ravel()
    ws = np.asarray(w, dtype=complex).ravel()
    acc = np.zeros((len(zs), len(ws)), dtype=complex)
    for p in sym.coefficients:
        acc += np.outer(npoly.polyval(zs, p), np.conj(npoly.polyval(ws, p)))
    return acc / np.outer(npoly.polyval(zs, sym.q), np.conj(npoly.polyval(ws, sym.q)))


def gram_from_outer(mu: CircleMeasure, outer: OuterData) -> GramData:
    """Hermitian Gram matrix of the functions (p/q) / (O'(zeta_j)(z - zeta_j)).

    Diagonal entries are c_j zeta_j f_j'(zeta_j); off-diagonal entries are
    1 / (O'(zeta_i) conj(O'(zeta_j)) (1 - zeta_i conj(zeta_j))).
    """
    zetas = mu.zetas()
    k = mu.size
    # p is monic times the scale e^{i theta0}/sqrt(gamma), so p[-1] is it
    scale = outer.p[-1]
    U = np.array([scale * npoly.polyfromroots(np.delete(zetas, j))
                  for j in range(k)])

    def u(i, z, der=0):
        return npoly.polyval(z, npoly.polyder(U[i], der))

    def q(z, der=0):
        return npoly.polyval(z, npoly.polyder(outer.q, der))

    oprime = np.array([u(j, zetas[j]) / q(zetas[j]) for j in range(k)])

    G = np.empty((k, k), dtype=complex)
    for i in range(k):
        # f_i = u_i / (O'(zeta_i) q); quotient rule at the atom itself
        z = zetas[i]
        fprime = (u(i, z, 1) * q(z) - u(i, z) * q(z, 1)) / (oprime[i] * q(z) ** 2)
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
    return GramData(G, inv, oprime, U)


def condition(gram: GramData) -> float:
    """Spectral condition number of the Gram matrix."""
    evals = np.linalg.eigvalsh(gram.gram)
    return float(evals.max() / evals.min())
