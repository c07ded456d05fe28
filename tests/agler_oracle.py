"""The N x N Agler truncations built entry by entry, kept as a test oracle
for the two engines in `certify`.

`agler_pole_test` reads the same pole-side matrix off its rank-k core and
`agler_taylor_test` reaches the same Taylor-side matrix by forward
differences; the builders below are the definitions they must reproduce.
"""
import math

import numpy as np

from cauchydual.certify import InsufficientRowsError, LevelStat


def agler_pole_matrix(sym, cross: np.ndarray, level: int, size: int) -> np.ndarray:
    """Level-l truncation built from the pole data:

        M[m, n] = sum_{r,t} C[r,t] (1 - 1/(alpha_r conj(alpha_t)))^l
                  * alpha_r^-(m+2) conj(alpha_t)^-(n+2).
    """
    if sym.k == 0:
        return np.zeros((size, size), dtype=complex)
    alphas = np.asarray(sym.alphas, dtype=complex)
    G = 1.0 - 1.0 / np.outer(alphas, np.conj(alphas))
    V = alphas[:, None] ** (-(np.arange(size, dtype=float)[None, :] + 2.0))
    M = V.T @ (cross * G ** level) @ np.conj(V)
    return 0.5 * (M + M.conj().T)


def agler_taylor_matrix(taylor, level: int, size: int) -> np.ndarray:
    """The same truncation from raw Taylor rows:

        M[m, n] = sum_{j=0}^{l} (-1)^j binom(l, j) B_{m+1+j} . B_{n+1+j}*.

    Needs rows up to index size + level.
    """
    if len(taylor) < size + level:
        raise InsufficientRowsError(
            f"need {size + level} rows for size {size} at level {level}, "
            f"table has {len(taylor)}")
    S = taylor @ taylor.conj().T
    M = np.zeros((size, size), dtype=complex)
    for j in range(level + 1):
        M += (-1.0) ** j * math.comb(level, j) * S[j: j + size, j: j + size]
    return 0.5 * (M + M.conj().T)


def oracle_stats(build, cfg) -> tuple:
    """LevelStat per level 1..cfg.levels from the full eigvalsh of
    build(level, cfg.trunc)."""
    stats = []
    for level in range(1, cfg.levels + 1):
        evals = np.linalg.eigvalsh(build(level, cfg.trunc))
        stats.append(LevelStat(level, float(evals.min()),
                               float(np.abs(evals).max())))
    return tuple(stats)
