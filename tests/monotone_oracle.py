"""Complete monotonicity of the diagonal moment sequence, kept as a test
oracle for the necessary measure.

gamma_m = sum_{r,t} C[r,t] (alpha_r conj(alpha_t))^-(m+2) are exactly the
moments of the necessary measure's atoms, so the truncated difference test
below is implied by the exact check `necessary_measure_test` makes.
"""
import math

import numpy as np

from cauchydual.certify import TOL_PSD, pole_pairing


class InsufficientLengthError(ValueError):
    """Moment sequence is too short for the requested difference depth."""


def gamma_moments(sym, cross: np.ndarray, count: int) -> np.ndarray:
    """Diagonal moment sequence gamma_m = sum_{r,t} C[r,t] (alpha_r conj(alpha_t))^-(m+2)."""
    if sym.k == 0:
        return np.zeros(count)
    alphas = np.asarray(sym.alphas, dtype=complex)
    products = np.outer(alphas, np.conj(alphas))
    out = np.empty(count)
    for m in range(count):
        val = complex((cross * products ** (-(m + 2.0))).sum())
        out[m] = val.real
    return out


def completely_monotone_test(seq, depth: int, levels: int = 12,
                             tol: float = 1e-10):
    """Check (-1)^l (forward difference)^l of seq stays >= -tol for
    l <= levels and positions 0..depth. Returns (passed, worst value)."""
    arr = np.asarray(seq, dtype=float)
    if len(arr) < depth + levels + 1:
        raise InsufficientLengthError(
            f"need {depth + levels + 1} terms, got {len(arr)}")
    worst = math.inf
    for l in range(levels + 1):
        vals = np.diff(arr, n=l) if l else arr
        signed = ((-1.0) ** l) * vals[: depth + 1]
        worst = min(worst, float(signed.min()))
    scale = max(float(np.abs(arr).max()), 1.0)
    return worst >= -tol * scale, worst


def monotone_passed(sym, cfg) -> bool:
    """The monotone certificate as the battery used to run it: depth
    cfg.trunc, cfg.levels differences, tolerance TOL_PSD."""
    moments = gamma_moments(sym, pole_pairing(sym).cross,
                            cfg.trunc + cfg.levels + 1)
    return completely_monotone_test(moments, cfg.trunc, cfg.levels, TOL_PSD)[0]
