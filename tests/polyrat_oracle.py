"""Partial fractions over simple poles, kept as a test oracle.

`kernels.symbol_taylor` expands a symbol at its poles through
`polyrat.lagrange_denominators` directly; the residues below are the same
expansion written out, checked against direct evaluation.
"""
from dataclasses import dataclass

import numpy as np

from cauchydual.polyrat import POLE_GAP, Polynomial, lagrange_denominators


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


def partial_fractions_simple(p: Polynomial, poles) -> PartialFractionExpansion:
    """Residues of p over a set of simple poles.

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
    if p.coeffs and p.degree >= len(ps):
        raise DegreeTooLargeError(
            f"numerator degree {p.degree} with only {len(ps)} poles")
    denoms = lagrange_denominators(ps)
    residues = tuple(complex(p(a)) / complex(d) for a, d in zip(ps, denoms))
    return PartialFractionExpansion(tuple(ps), residues, tuple(map(complex, denoms)))
