"""Taylor rows of a row symbol and its kernel coefficient table, which the
representing-measure check compares against.

The Taylor rows admit two independent derivations (pole expansion and
power-series division); both are computed and compared, so a bug in
either path shows up as a loud residual instead of a silently wrong table.
"""
from __future__ import annotations

import operator

import numpy as np

from .polyrat import inverse_powers
from .symbolpipe import RationalSymbol


def _series_inverse(coeffs: np.ndarray, n_terms: int) -> np.ndarray:
    """Power series of 1/q to n_terms coefficients; q(0) must be nonzero.

    Term m is -(q_1 s_{m-1} + ... + q_d s_{m-d}) / q_0, summed in that
    order over Python complex numbers, which for these few short terms
    costs less than numpy's per-scalar dispatch."""
    q = [complex(c) for c in coeffs]
    q0, tail = q[0], q[1:]
    out = [1.0 / q0]
    for m in range(1, n_terms):
        # out[m - 1], out[m - 2], ..., at most len(tail) of them
        window = out[m - 1::-1] if m <= len(tail) else out[m - 1:m - 1 - len(tail):-1]
        out.append(-sum(map(operator.mul, tail, window)) / q0)
    return np.array(out)


def symbol_taylor(sym: RationalSymbol, pairing, n_rows: int) -> np.ndarray:
    """Taylor rows of the symbol via the residue expansion at its poles,
    read from its pole pairing (certify.PolePairing): entry [m - 1, j] is
    the coefficient of z^m in the j-th component.

    Component j has the expansion

        b_j(z) = - sum_i p_j(alpha_i) / (alpha_i a_i) * sum_{m>=1} (z/alpha_i)^m

    with a_i the Lagrange denominators of the pole set, so row m is a fixed
    vector contracted against alpha_i^{-m}; RationalSymbol guarantees
    distinct poles with |alpha_i| > 1. The same rows are recomputed by
    dividing each numerator by q as a power series; a mismatch beyond 1e-10
    relative is an internal error. Only this check reads sym.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    # weight[j, i] = p_j(alpha_i) / (alpha_i a_i)
    weight = pairing.values / (pairing.alphas * pairing.a)[None, :]
    rows = -(inverse_powers(pairing.alphas, n_rows) @ weight.T)

    inv_q = _series_inverse(sym.q, n_rows + 1)
    check = np.zeros_like(rows)
    for j, pc in enumerate(sym.coefficients):
        check[:, j] = np.convolve(pc, inv_q)[1:n_rows + 1]
    scale = float(np.abs(rows).max(initial=1.0))
    gap = float(np.abs(rows - check).max(initial=0.0))
    if gap > 1e-10 * scale:
        raise RuntimeError(
            f"pole expansion and series division disagree by {gap:.3e}")
    return rows


def kernel_coeffs(rows: np.ndarray, size: int) -> np.ndarray:
    """Kernel coefficient table from the Taylor rows: K = I - T T^H, where
    K[m, n], 0 <= m, n <= size, is the (m, n) normalized Taylor coefficient
    of the kernel (1 - B(z) B(w)*) / (1 - z conj(w)) at the origin.

    T is the block-lower-triangular Toeplitz matrix of the rows B_0 = 0,
    B_1, ..., B_size, so for m >= n the entry is
    delta_{m,n} - sum_{k=1}^{n} B_{m-n+k} . B_k*. T T^H is accumulated
    along its diagonals, (T T^H)[m, n] = (T T^H)[m-1, n-1] + B_m . B_n*,
    and reflected into the upper triangle; a dense product would sum in
    another order, and the representing-measure check compares against
    this table at the level of rounding. Requires rows up to index `size`.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if len(rows) < size:
        raise ValueError(f"need {size} rows, table has {len(rows)}")
    S = rows[:size] @ rows[:size].conj().T    # S[m-1, n-1] = B_m . B_n*
    TT = np.zeros((size + 1, size + 1), dtype=complex)   # lower triangle of T T^H
    for n in range(1, size + 1):
        TT[n:, n] = TT[n - 1:-1, n - 1] + S[n - 1:size, n - 1]
    return np.eye(size + 1) - TT - np.tril(TT, -1).conj().T
