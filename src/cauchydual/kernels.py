"""Taylor rows of a row symbol and its kernel coefficient table, which the
representing-measure check compares against.

The Taylor rows are expanded at the poles and checked against the
recurrence they satisfy, q b_j = p_j, so a wrong expansion shows up as a
loud residual instead of a silently wrong table.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .polyrat import inverse_powers
from .symbolpipe import RationalSymbol


def symbol_taylor(sym: RationalSymbol, pairing, n_rows: int) -> np.ndarray:
    """Taylor rows of the symbol via the residue expansion at its poles,
    read from its pole pairing (certify.PolePairing): entry [m - 1, j] is
    the coefficient of z^m in the j-th component.

    Component j has the expansion

        b_j(z) = - sum_i p_j(alpha_i) / (alpha_i a_i) * sum_{m>=1} (z/alpha_i)^m

    with a_i the Lagrange denominators of the pole set, so row m is a fixed
    vector contracted against alpha_i^{-m}; RationalSymbol guarantees
    distinct poles with |alpha_i| > 1. The rows are checked against
    q b_j = p_j: the coefficients of z^0..z^n_rows of q times each row
    series, less the numerator's, form a residual, and one beyond
    1e-10 max|q| max|rows| (normwise) is an internal error. Only this
    check reads sym.
    """
    if n_rows < 1:
        raise ValueError("need at least one row")
    # weight[j, i] = p_j(alpha_i) / (alpha_i a_i)
    weight = pairing.values / (pairing.alphas * pairing.a)[None, :]
    rows = -(inverse_powers(pairing.alphas, n_rows) @ weight.T)

    # residual[t, j]: the coefficient of z^t in q b_j - p_j, t = 0..n_rows
    series = np.concatenate([np.zeros((sym.k + 1, rows.shape[1])), rows])
    residual = sliding_window_view(series, sym.k + 1, axis=0) @ sym.q[::-1]
    residual[:sym.k + 1] -= sym.coefficients.T[:n_rows + 1]
    gap = float(np.abs(residual).max(initial=0.0))
    bound = 1e-10 * float(np.abs(sym.q).max()) * float(np.abs(rows).max(initial=0.0))
    if gap > bound:
        raise RuntimeError(
            f"Taylor rows miss q b = p: recurrence residual {gap:.3e} "
            f"exceeds its bound {bound:.3e}")
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
