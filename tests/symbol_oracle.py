"""Second derivations of symbol-level quantities, kept as test oracles:
the rotated measure, for the rotation covariance of the pipeline, and the
kernel sum_t p_t(z) conj(p_t(w)) / (q(z) conj(q(w))) evaluated on a grid,
for comparing symbols built along different routes.
"""
import cmath

import numpy as np

from cauchydual.symbolpipe import CircleMeasure, RationalSymbol


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
    for p in sym.numerators:
        acc += np.outer(p(zs), np.conj(p(ws)))
    return acc / np.outer(sym.q(zs), np.conj(sym.q(ws)))
