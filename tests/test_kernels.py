"""Taylor rows, kernel coefficient tables, and the one-pole mate oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cauchydual import kernels
from cauchydual.certify import pole_pairing
from cauchydual.kernels import kernel_coeffs
from cauchydual.symbolpipe import (
    CircleMeasure,
    closed_form_antipodal,
    measure_to_symbol,
    single_atom_symbol,
    symbol_from_parts,
)

from conftest import FIXTURE_NAMES, load_fixture_symbol, pool_like_measures, taylor_of
from polyrat_oracle import series_inverse
from rank1_oracle import (
    ExtremePointError,
    GridOutsideDiscError,
    Rank1Model,
    cauchy_dual_kernel_rank1,
    gram_monomials_rank1,
    mate_rank1,
    phi_coefficients,
    rank1_kernel_closed_form,
    rank1_taylor,
)

REFUTER = symbol_from_parts([2.0, 1.5j], [[0.0, 0.3], [0.0, 0.0, 0.3]])


# ----------------------------------------------------------------- Taylor rows


def test_taylor_rows_sum_to_symbol_values():
    sym = closed_form_antipodal(1.0, 1.0)
    tab = taylor_of(sym, 60)
    zs = 0.4 * np.exp(1j * np.linspace(0, 2 * np.pi, 40, endpoint=False))
    powers = zs[:, None] ** np.arange(1, 61)[None, :]
    partial = powers @ tab  # (40, k)
    for j, p in enumerate(sym.coefficients):
        direct = npoly.polyval(zs, p) / npoly.polyval(zs, sym.q)
        assert np.abs(partial[:, j] - direct).max() <= 1e-12


def _recurrence_residual(sym, rows) -> float:
    """max |coefficient of z^t in q b_j - p_j|, t = 0..len(rows), by one
    full convolution per component, over max|q| max|rows|."""
    n = len(rows)
    gap = 0.0
    for j, pc in enumerate(sym.coefficients):
        prod = np.convolve(sym.q, np.concatenate([[0.0], rows[:, j]]))[:n + 1]
        prod[:len(pc)] -= pc[:n + 1]
        gap = max(gap, float(np.abs(prod).max()))
    return gap / (np.abs(sym.q).max() * np.abs(rows).max())


def test_taylor_rows_match_series_division_oracle():
    # The second derivation: each numerator divided by q as a power
    # series. On this batch the two differ by a few 1e-15 of the largest
    # row entry.
    symbols = [load_fixture_symbol(name) for name in FIXTURE_NAMES]
    for mu in pool_like_measures(43, 6):
        try:
            symbols.append(measure_to_symbol(mu))
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
    n = 52      # N + L at the defaults
    for sym in symbols:
        rows = taylor_of(sym, n)
        inv_q = series_inverse(sym.q, n + 1)
        for j, pc in enumerate(sym.coefficients):
            want = np.convolve(pc, inv_q)[1:n + 1]
            assert np.abs(rows[:, j] - want).max() <= 1e-13 * np.abs(rows).max()
    assert len(symbols) >= 50


def test_taylor_check_fires_on_a_faulty_pairing():
    # a[0] off by 1e-8 relative moves the rows off q b = p by more than
    # the normwise bound 1e-10 max|q| max|rows| on every symbol here
    mus = pool_like_measures(43, 1)
    symbols = [load_fixture_symbol(name) for name in FIXTURE_NAMES]
    symbols += [measure_to_symbol(mus[2]), measure_to_symbol(mus[7])]
    assert [sym.k for sym in symbols[-2:]] == [3, 8]
    for sym in symbols:
        pairing = pole_pairing(sym)
        kernels.symbol_taylor(sym, pairing, 52)
        a = pairing.a.copy()
        a[0] *= 1.0 + 1e-8
        with pytest.raises(RuntimeError,
                           match=r"Taylor recurrence residual check: \S+ is not <= \S+$"):
            kernels.symbol_taylor(sym, dataclasses.replace(pairing, a=a), 52)


def test_taylor_recurrence_residual_floor():
    # Closed forms with poles from 1 + 1e-6 to 1e12 out: the normwise
    # residual stays near 2e-15, 1000x inside the runtime bound.
    decades = [10.0 ** e for e in range(-12, 13)]
    symbols = [single_atom_symbol(tau) for tau in decades]
    for c1 in decades:
        for c2 in decades:
            try:
                symbols.append(closed_form_antipodal(c1, c2))
            except (ValueError, ArithmeticError):
                continue    # the closed form's own limit, not this test's
    assert len(symbols) >= 600
    for sym in symbols:
        assert _recurrence_residual(sym, taylor_of(sym, 52)) <= 1e-13


def test_taylor_rows_decay_geometrically():
    cases = [
        closed_form_antipodal(1.0, 1.0),
        closed_form_antipodal(4.0, 1.0),
        measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0))),
        REFUTER,
    ]
    for sym in cases:
        tab = taylor_of(sym, 60)
        rho = 1.0 / min(abs(a) for a in sym.alphas)
        ratios = np.linalg.norm(tab, axis=1) / rho ** np.arange(1, 61)
        # the geometric envelope is already saturated within the first rows
        assert ratios[10:].max() <= (1.0 + 1e-9) * ratios[:10].max()


def test_rank1_taylor_matches_single_atom_expansion():
    sym = single_atom_symbol(1.0)
    alpha = sym.alphas[0]
    c = sym.coefficients[0, 1]
    # c z / (z - alpha) = gamma z / (1 - beta z) with beta = 1/alpha
    gamma, beta = -c / alpha, 1.0 / alpha
    a = taylor_of(sym, 30)
    b = rank1_taylor(gamma, beta, 30)
    assert np.abs(a - b).max() <= 1e-13


def test_taylor_input_validation():
    with pytest.raises(ValueError):
        rank1_taylor(0.5, 1.0, 10)  # beta on the circle
    with pytest.raises(ValueError):
        rank1_taylor(0.5, 0.2, 0)


def test_zero_symbol_taylor_and_kernel():
    sym = symbol_from_parts([], [])
    tab = taylor_of(sym, 5)
    assert tab.shape == (5, 0)
    K = kernel_coeffs(tab, 4)
    assert np.abs(K - np.eye(5)).max() == 0.0


# ----------------------------------------------------------- kernel coefficients


def test_kernel_table_against_grid_evaluation():
    # sum_{m,n} K[m,n] z^m conj(w)^n must reproduce
    # (1 - sum_j b_j(z) conj(b_j(w))) / (1 - z conj(w)) inside the disc
    for sym in (closed_form_antipodal(1.0, 1.0), REFUTER):
        tab = taylor_of(sym, 80)
        K = kernel_coeffs(tab, 80)
        rng = np.random.default_rng(2)
        zs = 0.45 * np.sqrt(rng.uniform(size=8)) * np.exp(
            2j * np.pi * rng.uniform(size=8))
        ws = 0.45 * np.sqrt(rng.uniform(size=8)) * np.exp(
            2j * np.pi * rng.uniform(size=8))
        zp = zs[:, None] ** np.arange(81)[None, :]
        wp = ws[:, None] ** np.arange(81)[None, :]
        series = zp @ K @ wp.conj().T
        num = 1.0 - sum(
            np.outer(npoly.polyval(zs, p), np.conj(npoly.polyval(ws, p)))
            for p in sym.coefficients) / np.outer(
                npoly.polyval(zs, sym.q), np.conj(npoly.polyval(ws, sym.q)))
        direct = num / (1.0 - np.outer(zs, np.conj(ws)))
        assert np.abs(series - direct).max() <= 1e-12 * max(
            1.0, float(np.abs(direct).max()))


def _kernel_coeffs_loop(taylor, size):
    """The entrywise recursion kernel_coeffs vectorizes, summed in the
    same order from the same Gram of the rows up to `size`."""
    S = taylor[:size] @ taylor[:size].conj().T
    K = np.eye(size + 1, dtype=complex)
    for d in range(0, size + 1):
        length = size - d
        if length < 1:
            continue
        sums = np.cumsum([S[d + i, i] for i in range(length)])
        for n in range(1, length + 1):
            K[n + d, n] -= sums[n - 1]
            if d > 0:
                K[n, n + d] = np.conj(K[n + d, n])
    return K


def test_kernel_table_equals_entrywise_loop():
    # same arithmetic in the same order, so the tables agree bit for bit
    tables = [rank1_taylor(0.4, 0.3 + 0.2j, 40),
              taylor_of(closed_form_antipodal(1.0, 1.0), 40),
              taylor_of(REFUTER, 40),
              taylor_of(measure_to_symbol(
                  CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0))), 40)]
    for tab in tables:
        for size in (0, 1, 17, 40):
            assert np.array_equal(kernel_coeffs(tab, size),
                                  _kernel_coeffs_loop(tab, size))


def test_kernel_table_reads_only_its_rows():
    # the table up to size is a function of rows 1..size alone, bit for bit,
    # whatever the number of rows it is given; a Gram of all the rows
    # rounds the leading block otherwise at some sizes (17 here)
    for tab in (taylor_of(REFUTER, 40), taylor_of(closed_form_antipodal(1.0, 1.0), 40)):
        for size in (1, 3, 17, 20, 39):
            assert np.array_equal(kernel_coeffs(tab, size), kernel_coeffs(tab[:size], size))


def test_kernel_table_structure():
    sym = closed_form_antipodal(4.0, 1.0)
    K = kernel_coeffs(taylor_of(sym, 30), 30)
    assert np.abs(K - K.conj().T).max() <= 1e-14 * np.abs(K).max()
    # the symbol vanishes at the origin, so row and column zero are trivial
    e0 = np.zeros(31)
    e0[0] = 1.0
    assert np.abs(K[0, :] - e0).max() == 0.0
    assert np.abs(K[:, 0] - e0).max() == 0.0


@pytest.mark.parametrize("size", [40, 200])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_kernel_table_is_exactly_hermitian(name, size):
    # the upper triangle is the conjugate of the lower one, not a second
    # computation of it, so K = K^H holds exactly; with zeros made canonical,
    # as the report writes them, the bytes agree too (only the diagonal's
    # imaginary zeros differ in sign)
    K = kernel_coeffs(taylor_of(load_fixture_symbol(name), size + 12), size)
    assert K.shape == (size + 1, size + 1)
    assert (K == K.conj().T).all()
    assert (K + 0.0).tobytes() == (K.conj().T + 0.0).tobytes()


def test_rank1_closed_form_matches_table():
    for gamma, beta in [(0.5, 0.0), (0.4, 0.3 + 0.2j), (0.618, 0.38196601125)]:
        K1 = kernel_coeffs(rank1_taylor(gamma, beta, 25), 25)
        K2 = rank1_kernel_closed_form(gamma, beta, 25)
        assert np.abs(K1 - K2).max() <= 1e-12


@given(st.floats(min_value=0.0, max_value=0.8),
       st.floats(min_value=-3.14, max_value=3.14),
       st.floats(min_value=-3.14, max_value=3.14),
       st.floats(min_value=0.05, max_value=0.99))
@settings(deadline=None, max_examples=60)
def test_rank1_closed_form_property(bmod, barg, garg, gfrac):
    beta = bmod * complex(math.cos(barg), math.sin(barg))
    gamma = gfrac * (1.0 - bmod) * complex(math.cos(garg), math.sin(garg))
    assume(abs(gamma) > 1e-6)
    K1 = kernel_coeffs(rank1_taylor(gamma, beta, 15), 15)
    K2 = rank1_kernel_closed_form(gamma, beta, 15)
    assert np.abs(K1 - K2).max() <= 1e-12


def test_diagonal_differences_are_row_norms():
    # K[m,m] - K[m+1,m+1] = |row m+1|^2: level-zero consistency between the
    # kernel table and the Taylor rows
    for sym in (closed_form_antipodal(1.0, 1.0), REFUTER,
                single_atom_symbol(2.0, 0.7)):
        tab = taylor_of(sym, 31)
        K = kernel_coeffs(tab, 31)
        norms2 = np.linalg.norm(tab, axis=1) ** 2
        diffs = np.diag(K).real[:-1] - np.diag(K).real[1:]
        assert np.abs(diffs - norms2[:31]).max() <= 1e-12


# ------------------------------------------------------------------- the mate


def test_mate_identity_on_fresh_samples():
    for gamma, beta in [(0.5, 0.0), (0.4, 0.3 + 0.2j), (0.3, -0.25 + 0.1j)]:
        model = mate_rank1(gamma, beta)
        zs = np.exp(1j * np.linspace(0.1, 0.1 + 2 * np.pi, 512, endpoint=False))
        a = (model.rho - model.sigma * zs) / (1.0 - model.beta * zs)
        b = model.gamma * zs / (1.0 - model.beta * zs)
        assert np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max() <= 1e-10
        assert model.rho > 0
        if model.sigma != 0:
            assert abs(model.rho / model.sigma) >= 1.0 - 1e-9  # outer zero
        assert abs(model.nu - abs(gamma) ** 2 / (1.0 - abs(beta) ** 2)) <= 1e-12


def test_mate_tangent_case_zero_on_circle():
    # |gamma| = 1 - |beta|: the mate has its zero exactly on the circle but
    # the model is still legal
    sym = single_atom_symbol(1.0)
    beta = 1.0 / sym.alphas[0]
    gamma = -sym.coefficients[0, 1] / sym.alphas[0]
    model = mate_rank1(gamma, beta)
    assert abs(abs(model.rho / model.sigma) - 1.0) <= 1e-9
    assert abs(model.nu - 0.44721359549995787) <= 1e-12


def test_mate_rejections():
    with pytest.raises(ExtremePointError):
        mate_rank1(1.0, 0.0)  # inner symbol, unit point mass
    with pytest.raises(ValueError):
        mate_rank1(0.8, 0.5)  # Schur bound violated
    with pytest.raises(ValueError):
        mate_rank1(0.1, 1.0)  # beta on the circle


def test_phi_coefficients_match_geometric_series():
    model = mate_rank1(0.4, 0.3 + 0.2j)
    c = phi_coefficients(model, 60)
    ratio = model.sigma / model.rho
    expected = np.zeros(61, dtype=complex)
    expected[1:] = (model.gamma / model.rho) * ratio ** np.arange(60)
    assert np.abs(c - expected).max() <= 1e-14
    short = phi_coefficients(model, 5)
    assert short.shape == (6,)
    assert np.abs(short - expected[:6]).max() <= 1e-14


# --------------------------------------------------------- monomial Gram matrix


def test_monomial_gram_is_conjugate_inverse_of_kernel_table():
    # in a reproducing kernel space the monomial Gram matrix is the
    # conjugate of the inverse of the kernel coefficient table; complex
    # beta exercises the orientation
    for gamma, beta in [(0.5, 0.0), (0.4, 0.3 + 0.2j), (0.3, -0.25 + 0.1j)]:
        model = mate_rank1(gamma, beta)
        N, M = 12, 72
        K_big = rank1_kernel_closed_form(gamma, beta, M)
        G = gram_monomials_rank1(model, N)
        K_inv = np.linalg.inv(K_big)[: N + 1, : N + 1]
        assert np.abs(G - np.conj(K_inv)).max() <= 1e-10
        assert np.abs(G - G.conj().T).max() <= 1e-13 * np.abs(G).max()
        assert np.linalg.eigvalsh(G).min() > 0


def test_monomial_gram_size_validation():
    model = mate_rank1(0.5, 0.0)
    with pytest.raises(ValueError):
        gram_monomials_rank1(model, -1)
    assert gram_monomials_rank1(model, 0).shape == (1, 1)


# ------------------------------------------------------------ dual-shift kernel


def test_dual_kernel_symmetry_and_positivity():
    model = mate_rank1(0.4, 0.3 + 0.2j)
    rng = np.random.default_rng(9)
    zs = 0.8 * np.sqrt(rng.uniform(size=25)) * np.exp(2j * np.pi * rng.uniform(size=25))
    M = cauchy_dual_kernel_rank1(model, zs, zs)
    assert np.abs(M - M.conj().T).max() <= 1e-12 * np.abs(M).max()
    evals = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert evals.min() >= -1e-10 * max(1.0, evals.max())
    # value at the origin pair is exactly one
    assert abs(complex(cauchy_dual_kernel_rank1(model, [0.0], [0.0])[0, 0]) - 1.0) <= 1e-14


def test_dual_kernel_grid_validation():
    model = mate_rank1(0.5, 0.0)
    with pytest.raises(GridOutsideDiscError):
        cauchy_dual_kernel_rank1(model, [1.0], [0.0])
    with pytest.raises(GridOutsideDiscError):
        cauchy_dual_kernel_rank1(model, [0.2], [1.2])


def test_taylor_table_shape_accessors():
    # the rows are a plain (rows, k) array, one column per component
    assert rank1_taylor(0.5, 0.3, 7).shape == (7, 1)
    tab = taylor_of(REFUTER, 7)
    assert isinstance(tab, np.ndarray) and tab.shape == (7, 2)
    assert isinstance(mate_rank1(0.5, 0.0), Rank1Model)
