"""Partial fractions over simple poles, the coefficient-wise conjugate, the
power-series inverse and the band's own Horner loop on the circle, kept as
test oracles.

`kernels.symbol_taylor` expands a symbol at its poles through
`polyrat.lagrange_denominators` directly; the residues below are the same
expansion written out, checked against direct evaluation. It checks its
rows at runtime by the recurrence q b_j = p_j; `series_inverse`, the power
series of 1/q, gives the second derivation the tests compare them with,
each numerator divided by q as a series. `fejer_riesz_factor` samples its
band through `polyrat._horner`; `band_on_circle` is the dedicated loop it
ran before, which gives the same samples to the last bit.
"""
from dataclasses import dataclass

import numpy as np

from numpy.polynomial import polynomial as npoly

from cauchydual.polyrat import POLE_GAP, lagrange_denominators


class PolesNotDistinctError(ValueError):
    """Pole set contains a pair closer than the allowed gap."""


class DegreeTooLargeError(ValueError):
    """Numerator degree must stay strictly below the number of poles."""


@dataclass(frozen=True)
class PartialFractionExpansion:
    """p(z) / prod_i (z - poles[i]) = sum_i residues[i] / (z - poles[i])."""

    poles: tuple[complex, ...]
    residues: tuple[complex, ...]
    denominators: tuple[complex, ...]

    def __call__(self, z):
        zc = np.asarray(z, dtype=complex)
        acc = np.zeros(zc.shape, dtype=complex)
        for pole, res in zip(self.poles, self.residues):
            acc = acc + res / (zc - pole)
        if zc.ndim == 0:
            return complex(acc)
        return acc


def partial_fractions_simple(p, poles) -> PartialFractionExpansion:
    """Residues of the polynomial with ascending coefficients p over a set
    of simple poles.

    Requires deg p < len(poles) and pairwise pole gaps above POLE_GAP, so
    the expansion has no polynomial part and every residue is p(pole)/a_r
    with a_r the Lagrange denominator at that pole.
    """
    ps = [complex(x) for x in poles]
    if not ps:
        raise PolesNotDistinctError("need at least one pole")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if abs(ps[i] - ps[j]) <= POLE_GAP:
                raise PolesNotDistinctError(
                    f"poles {i} and {j} are within {POLE_GAP}: "
                    f"{ps[i]} vs {ps[j]}")
    cs = np.trim_zeros(np.asarray(p, dtype=complex), "b")
    if len(cs) > len(ps):
        raise DegreeTooLargeError(
            f"numerator degree {len(cs) - 1} with only {len(ps)} poles")
    denoms = lagrange_denominators(ps)
    # polyval needs at least one coefficient; an empty row is the zero polynomial
    values = npoly.polyval(np.array(ps), cs) if len(cs) else np.zeros(len(ps))
    residues = tuple(map(complex, values / denoms))
    return PartialFractionExpansion(tuple(ps), residues, tuple(map(complex, denoms)))


def conjugate(p) -> np.ndarray:
    """Coefficient-wise conjugate, the polynomial z -> conj(p(conj(z)))."""
    return np.conj(np.asarray(p, dtype=complex))


def series_inverse(coeffs: np.ndarray, n_terms: int) -> np.ndarray:
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


def band_on_circle(upper: np.ndarray, z) -> np.ndarray:
    """d_0 + 2 Re sum_{m >= 1} d_m z^m for the hermitian band with closed
    side upper = (d_0, ..., d_k) at unimodular points z, by Horner's rule
    folded as (acc + d_m) z from the top coefficient down."""
    acc = np.zeros(np.shape(z), dtype=complex)
    for d in upper[:0:-1]:
        acc = (acc + d) * z
    return upper[0].real + 2.0 * acc.real
