"""Measure -> outer quotient -> Gram -> row symbol pipeline."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cauchydual.polyrat import lagrange_denominators
from cauchydual.symbolpipe import (
    CircleMeasure,
    EmptyMeasureError,
    RationalSymbol,
    boundary_polynomial,
    closed_form_antipodal,
    gram_from_outer,
    measure_to_symbol,
    outer_from_measure,
    single_atom_symbol,
    symbol_from_parts,
)

import symbol_oracle
from conftest import pairing_of, pool_like_measures
from polyrat_oracle import DegreeTooLargeError, PolesNotDistinctError
from rank1_oracle import ExtremePointError, GridOutsideDiscError
from symbol_oracle import (
    NotUnimodularError,
    condition,
    eta_values,
    rotate_measure,
)

SQ2 = math.sqrt(2.0)


def random_measure(rng, k, min_gap=0.3):
    """Measure with k atoms, pairwise angular gap at least min_gap."""
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if gaps.min() > min_gap:
            break
    weights = np.exp(rng.uniform(np.log(0.1), np.log(5.0), size=k))
    return CircleMeasure(tuple(thetas), tuple(weights))


# -------------------------------------------------------------- CircleMeasure


def test_measure_drops_zero_weights_and_validates():
    mu = CircleMeasure((0.0, 1.0, 2.0), (1.0, 0.0, 3.0))
    assert mu.size == 2
    assert mu.thetas == (0.0, 2.0)
    with pytest.raises(ValueError):
        CircleMeasure((0.0,), (-1.0,))
    with pytest.raises(ValueError):
        CircleMeasure((0.0, 2.0 * np.pi), (1.0, 1.0))  # same circle point
    with pytest.raises(ValueError):
        CircleMeasure((float("nan"),), (1.0,))
    with pytest.raises(ValueError):
        CircleMeasure((0.0,), (1.0, 2.0))


def test_rotate_measure_shifts_atoms():
    # pull-back along z -> zeta z: each atom moves to conj(zeta) * atom
    mu = CircleMeasure((0.5, 2.0), (1.0, 2.0))
    rot = rotate_measure(mu, cmath.exp(0.7j))
    zs = sorted(rot.zetas(), key=lambda z: cmath.phase(z))
    expected = sorted(np.exp(1j * (np.array([0.5, 2.0]) - 0.7)),
                      key=lambda z: cmath.phase(z))
    assert max(abs(a - b) for a, b in zip(zs, expected)) <= 1e-12
    assert rot.weights == mu.weights
    with pytest.raises(NotUnimodularError):
        rotate_measure(mu, 1.1)


# -------------------------------------------------- boundary weight polynomial


def test_boundary_polynomial_matches_direct_formula():
    rng = np.random.default_rng(11)
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        band = boundary_polynomial(mu)
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 101, endpoint=False))
        zetas = mu.zetas()
        prod_all = np.prod(np.abs(zs[:, None] - zetas[None, :]) ** 2, axis=1)
        direct = prod_all.copy()
        for j, c in enumerate(mu.weights):
            others = np.delete(zetas, j)
            direct += c * np.prod(np.abs(zs[:, None] - others[None, :]) ** 2, axis=1)
        assert band.shape == (2 * k + 1,)
        got = sum(band[k + m] * zs ** m for m in range(-k, k + 1))
        assert np.abs(got.imag).max() <= 1e-12 * direct.max()
        assert np.abs(got.real - direct).max() <= 1e-12 * direct.max()


def test_boundary_band_from_shared_prefixes_equals_oracle_bit_for_bit():
    # continuing prefix j through f_{j+1}, ... repeats the oracle's
    # left-to-right products exactly, with k + k(k - 1)/2 convolutions
    measures = pool_like_measures(71, 32)
    for mu in measures:
        assert np.array_equal(boundary_polynomial(mu),
                              symbol_oracle.boundary_band(mu))
    assert len(measures) == 256


# ------------------------------------------------------------- outer quotient


def test_outer_quotient_modulus_and_normalization():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        outer = outer_from_measure(mu)
        ratio = outer.p[0] / outer.q[0]
        assert abs(ratio.imag) <= 1e-12 * abs(ratio)
        assert ratio.real > 0
        # |p/q|^2 = 1 / (1 + sum_j c_j / |z - zeta_j|^2) on the circle
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 101, endpoint=False))
        zetas = mu.zetas()
        weight = 1.0 + sum(
            c / np.abs(zs - zeta) ** 2 for zeta, c in zip(zetas, mu.weights))
        got = np.abs(npoly.polyval(zs, outer.p) / npoly.polyval(zs, outer.q)) ** 2
        assert np.abs(got - 1.0 / weight).max() <= 1e-10
        # numerator vanishes exactly at the atoms
        assert np.abs(npoly.polyval(zetas, outer.p)).max() <= 1e-10
        assert outer.p.shape == outer.q.shape == (k + 1,)
        assert isinstance(outer.alphas, np.ndarray) and outer.alphas.shape == (k,)
        assert all(abs(a) > 1.0 for a in outer.alphas)


def test_outer_quotient_rejects_empty_measure():
    with pytest.raises(EmptyMeasureError):
        outer_from_measure(CircleMeasure((), ()))


def test_gram_matrix_is_positive_definite():
    rng = np.random.default_rng(17)
    for k in (2, 3):
        mu = random_measure(rng, k)
        outer = outer_from_measure(mu)
        gram = gram_from_outer(mu, outer)
        assert np.abs(gram.gram - gram.gram.conj().T).max() <= 1e-14 * np.abs(gram.gram).max()
        evals = np.linalg.eigvalsh(gram.gram)
        assert evals.min() > 0
        assert np.abs(gram.gram @ gram.inverse - np.eye(k)).max() <= 1e-9 * condition(gram)
        # the rows of U are p with one linear factor removed
        zetas = mu.zetas()
        z0 = 0.37 + 0.21j
        for j, u in enumerate(gram.U):
            expected = npoly.polyval(z0, outer.p) / (z0 - zetas[j])
            assert abs(npoly.polyval(z0, u) - expected) <= 1e-10 * max(1.0, abs(expected))


# the measures behind the antipodal and single-atom fixtures
FIXTURE_MEASURES = (CircleMeasure((0.0, math.pi), (1.0, 1.0)),
                    CircleMeasure((0.0, math.pi), (4.0, 1.0)),
                    CircleMeasure((0.0,), (1.0,)))


def test_gram_from_outer_matches_scalar_oracle():
    # The array passes round differently from the per-atom loop: on this
    # batch G differs by at most 4e-15 of its largest entry, O' by 3e-14
    # relative and the u_j coefficients by 5e-15 of their largest. The
    # bound leaves a factor of 30 or more.
    measures = FIXTURE_MEASURES + tuple(pool_like_measures(41, 6))
    for mu in measures:
        outer = outer_from_measure(mu)
        got = gram_from_outer(mu, outer)
        want = symbol_oracle.gram_from_outer(mu, outer)
        scale = np.abs(want.gram).max()
        assert np.abs(got.gram - want.gram).max() <= 1e-12 * scale
        assert np.abs(got.gram - got.gram.conj().T).max() == 0.0
        assert (np.abs(got.oprime - want.oprime) <= 1e-12 * np.abs(want.oprime)).all()
        inverse_scale = np.abs(want.inverse).max() * condition(want)
        assert np.abs(got.inverse - want.inverse).max() <= 1e-12 * inverse_scale
        assert got.U.shape == want.U.shape == (mu.size, mu.size)
        # u_j has degree k - 1: its leading coefficient is p's
        assert np.all(got.U[:, -1] == outer.p[-1])
        for u, v in zip(got.U, want.U):
            assert np.abs(u - v).max() <= 1e-12 * np.abs(v).max()
    assert len(measures) == 51


# ----------------------------------------------------------------- the symbol


def test_pipeline_symbol_row_identity_on_circle():
    # column extremality: sum_t |p_t|^2 + |p_outer|^2 = |q|^2 on the circle
    rng = np.random.default_rng(23)
    zs = np.exp(1j * np.linspace(0, 2 * np.pi, 257, endpoint=False))
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        sym = measure_to_symbol(mu)
        outer = outer_from_measure(mu)
        total = np.abs(npoly.polyval(zs, outer.p)) ** 2
        for p in sym.coefficients:
            total += np.abs(npoly.polyval(zs, p)) ** 2
        qq = np.abs(npoly.polyval(zs, sym.q)) ** 2
        assert np.abs(total - qq).max() <= 1e-10 * qq.max()


def test_pipeline_symbol_structure():
    mu = CircleMeasure((0.4, 2.2, 4.3), (1.0, 0.7, 2.5))
    sym = measure_to_symbol(mu)
    assert sym.k == 3
    assert sym.coefficients.shape == (3, 4)
    # every p_t vanishes at 0, and the coefficients of z^1..z^k in p_t form
    # row t of the triangular factor
    assert np.all(sym.coefficients[:, 0] == 0)
    chol = sym.coefficients[:, 1:]
    # chol is upper triangular with nonnegative diagonal and eta = chol* chol
    assert np.abs(np.tril(chol, -1)).max() <= 1e-12 * np.abs(chol).max()
    diag = np.diag(chol)
    assert np.abs(diag.imag).max() <= 1e-12 * np.abs(diag).max()
    assert diag.real.min() >= 0
    assert np.abs(chol.conj().T @ chol - sym.eta).max() <= 1e-10 * np.abs(sym.eta).max()
    # eta is positive semidefinite
    assert np.linalg.eigvalsh(sym.eta).min() >= -1e-10 * np.abs(sym.eta).max()


def test_empty_measure_gives_zero_symbol():
    sym = measure_to_symbol(CircleMeasure((), ()))
    assert sym.k == 0
    assert sym.coefficients.shape == (0, 1)
    assert sym.alphas.shape == (0,) and sym.alphas.dtype == complex


def test_eta_rotation_covariance():
    mu = CircleMeasure((0.4, 1.9), (1.0, 2.0))
    zeta = cmath.exp(1j * np.pi / 7)
    sym = measure_to_symbol(mu)
    sym_rot = measure_to_symbol(rotate_measure(mu, zeta))
    rng = np.random.default_rng(3)
    pts = 0.8 * np.sqrt(rng.uniform(size=10)) * np.exp(2j * np.pi * rng.uniform(size=10))
    lhs = eta_values(sym_rot, pts, pts)
    rhs = eta_values(sym, zeta * pts, zeta * pts)
    assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


# ------------------------------------------------------------ assembled symbols


def test_symbol_from_parts_validation():
    with pytest.raises(ValueError):
        symbol_from_parts([2.0], [[0.1, 0.3]])  # nonzero constant term
    with pytest.raises(ValueError):
        symbol_from_parts([2.0], [[0.0, 0.1, 0.2]])  # degree > k
    with pytest.raises(ValueError):
        symbol_from_parts([0.9], [[0.0, 0.1]])  # pole inside the disc
    with pytest.raises(ValueError):
        symbol_from_parts([2.0, 2.0], [[0.0, 0.1], [0.0, 0.1]])  # coincident
    with pytest.raises(ValueError):
        symbol_from_parts([1.05], [[0.0, 1.2]])  # Schur bound violated
    with pytest.raises(ValueError):
        symbol_from_parts([2.0, 3.0], [])  # poles without a numerator


def test_symbol_from_parts_eta_round_trip():
    sym = symbol_from_parts([2.0, 1.5j], [[0.0, 0.3], [0.0, 0.0, 0.3]])
    assert np.array_equal(sym.coefficients, [[0.0, 0.3, 0.0], [0.0, 0.0, 0.3]])
    C = np.array([[0.3, 0.0], [0.0, 0.3]])
    assert np.abs(sym.eta - C.conj().T @ C).max() <= 1e-14


def test_symbol_from_parts_trims_trailing_zeros():
    # a raw row may carry zeros above degree k; the matrix drops them
    sym = symbol_from_parts([2.0], [[0, 0.1, 0, 0]])
    assert np.array_equal(sym.coefficients, [[0, 0.1]])
    assert sym.coefficients.dtype == complex
    with pytest.raises(ValueError, match=re.escape("numerator 0 has degree 2 > 1")):
        symbol_from_parts([2.0], [[0, 0.1, 0.2]])
    # -0.0 is trimmed like 0, an empty or all-zero row is the zero numerator
    sym = symbol_from_parts([2.0, 3.0, -2.5], [[0, 0.1, 0, -0.0], [], [0, 0, 0, 0, 0]])
    assert np.array_equal(sym.coefficients, [[0, 0.1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    # the first row that is too long is the one named
    with pytest.raises(ValueError, match=re.escape("numerator 1 has degree 3 > 2")):
        symbol_from_parts([2.0, 3.0], [[0, 0.1, 0, 0], [0, 0, 0, 0.3, 0],
                                       [0, 0, 0, 0, 0.2]])


def test_zero_rank_symbol_from_parts():
    sym = symbol_from_parts([], [])
    assert sym.k == 0 and isinstance(sym, RationalSymbol)


def test_directly_built_symbol_is_checked():
    # the constructor itself rejects a symbol outside the admissible class,
    # without going through symbol_from_parts or measure_to_symbol
    with pytest.raises(ValueError, match="not outside the closed disc"):
        RationalSymbol((0.9 + 0.0j,), np.array([[0.0, 0.1]]))
    with pytest.raises(ValueError, match="Schur bound"):
        RationalSymbol((1.05 + 0.0j,), np.array([[0.0, 1.2]]))
    with pytest.raises(ValueError, match="numerator 1 has nonzero constant term"):
        RationalSymbol((2.0, 3.0), np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1]]))


@pytest.mark.parametrize("alphas, numerators", [
    ([math.nan], [[0.0, 0.1]]),
    ([2.0], [[0.0, math.nan]]),
    ([math.inf], [[0.0, 0.1]]),
    ([2.0, math.nan], [[0.0, 0.1], [0.0, 0.0, 0.1]]),
])
def test_non_finite_symbol_is_rejected(alphas, numerators):
    # every comparison with a NaN is False, so without this check such a
    # symbol passes the admissibility tests and gets a verdict
    with pytest.raises(ValueError, match="finite"):
        symbol_from_parts(alphas, numerators)


def test_non_finite_message_names_the_first_value():
    # poles are scanned before numerator coefficients
    with pytest.raises(ValueError, match=re.escape("coefficient (inf+0j) is not")):
        symbol_from_parts([2.0, math.inf], [[0.0, math.nan], [0.0, 0.0, 0.1]])
    with pytest.raises(ValueError, match=re.escape("coefficient (nan+0j) is not")):
        symbol_from_parts([2.0, 3.0], [[0.0, 0.1], [0.0, math.nan, math.inf]])


@pytest.mark.parametrize("alphas, message", [
    ([0.5, 0.3], "pole (0.5+0j) is not outside the closed disc"),
    # pair (0, 2) is scanned before pole 1
    ([2.0, 0.5, 2.0], "poles (2+0j) and (2+0j) coincide"),
    # pole 1 is scanned before pair (2, 3)
    ([2.0, 0.5, 3.0, 3.0], "pole (0.5+0j) is not outside the closed disc"),
    # pair (0, 3) is scanned before pair (1, 2)
    ([2.0, 3.0, 3.0, 2.0], "poles (2+0j) and (2+0j) coincide"),
    ([2.0, -1.0, 3.0], "pole (-1+0j) is not outside the closed disc"),
])
def test_pole_checks_name_the_first_offender(alphas, message):
    # the order of the pole-by-pole scan: pole i, then its pairs (i, j > i)
    numerators = [[0.0, 0.01]] * len(alphas)
    with pytest.raises(ValueError, match=re.escape(message)):
        symbol_from_parts(alphas, numerators)


def test_derived_fields_follow_poles_and_numerators(fixture_symbols):
    rng = np.random.default_rng(31)
    built = [measure_to_symbol(random_measure(rng, k)) for k in (1, 2, 3, 4, 5, 6)]
    for sym in list(fixture_symbols.values()) + built:
        assert sym.k == len(sym.alphas) == len(sym.coefficients)
        want_q = npoly.polyfromroots(sym.alphas)
        assert np.abs(sym.q - want_q).max() <= 1e-13 * np.abs(want_q).max()
        C = sym.coefficients[:, 1:]
        assert np.abs(sym.eta - C.conj().T @ C).max() <= 1e-14 * np.abs(sym.eta).max()
        pairing = pairing_of(sym)
        assert np.array_equal(pairing.a, lagrange_denominators(sym.alphas))
        assert np.array_equal(pairing.products,
                              np.outer(sym.alphas, np.conj(sym.alphas)))
        for derived in (sym.alphas, sym.coefficients, sym.q, sym.eta,
                        sym.numerators_at_poles):
            assert not derived.flags.writeable


def test_directly_built_symbol_needs_one_numerator_per_pole():
    # flipped: any number m >= 1 of numerators over k poles builds
    poles = (2.0 + 0.0j, -3.0 + 0.0j)
    for m in (1, 3):
        C = np.zeros((m, 3))
        C[:, 1] = 0.1
        sym = RationalSymbol(poles, C)
        assert sym.k == 2 and sym.numerators_at_poles.shape == (m, 2)


def test_directly_built_symbol_needs_a_k_by_k_plus_one_matrix():
    # k + 1 columns (degree at most k) and at least one row over k >= 1 poles
    poles = (2.0 + 0.0j, -3.0 + 0.0j)
    for shape in ((2, 2), (2, 4), (6,), (0, 3)):
        with pytest.raises(ValueError, match=re.escape(
                f"coefficient matrix has shape {shape}, not (m, 3) with m >= 1")):
            RationalSymbol(poles, np.zeros(shape))


def test_symbol_poles_are_a_read_only_1d_copy():
    poles = np.array([2.0, -3.0])
    sym = RationalSymbol(poles, np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.1]]))
    assert sym.alphas.dtype == complex and sym.alphas.shape == (2,)
    with pytest.raises(ValueError):
        sym.alphas[0] = 4.0
    poles[0] = 4.0
    assert sym.alphas[0] == 2.0
    # a scalar or a column of poles is refused by name, not built: read
    # flat, either would pass every other check and be certified
    for alphas, shape in ((2.0, "()"), ([[2.0], [3.0]], "(2, 1)")):
        k = max(np.size(alphas), 1)
        C = np.zeros((k, k + 1))
        C[:, 1] = 0.01
        with pytest.raises(ValueError, match=re.escape(
                f"poles have shape {shape}, not (k,)")):
            RationalSymbol(alphas, C)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            symbol_from_parts(alphas, C)


def test_symbol_coefficients_are_a_read_only_copy():
    C = np.array([[0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
    sym = RationalSymbol((2.0 + 0.0j, -3.0 + 0.0j), C)
    assert C.flags.writeable and sym.coefficients is not C
    with pytest.raises(ValueError):
        sym.coefficients[0, 1] = 0.5
    C[0, 1] = 0.5
    assert sym.coefficients[0, 1] == 0.1


# ------------------------------------------------------- antipodal closed form


def _closed_form_parts(c1: float, c2: float):
    """(alpha1, alpha2) and (gamma1, gamma2, gamma3) of the antipodal
    closed form, read off its symbol: p_1 = gamma1 z + gamma2 z^2 and
    p_2 = gamma3 z^2, all real."""
    sym = closed_form_antipodal(c1, c2)
    C = sym.coefficients
    assert not sym.alphas.imag.any() and not C.imag.any()
    assert C[0, 0] == C[1, 0] == C[1, 1] == 0.0
    return sym, sym.alphas.real, (C[0, 1].real, C[0, 2].real, C[1, 2].real)


def test_antipodal_1_1_exact_radicals():
    cf, (alpha1, alpha2), (gamma1, gamma2, gamma3) = _closed_form_parts(1.0, 1.0)
    assert abs(cf.gamma_fr - (3.0 - 2.0 * SQ2)) <= 1e-14
    assert abs(alpha1 - (1.0 + SQ2)) <= 1e-13
    assert abs(alpha2 + (1.0 + SQ2)) <= 1e-13
    assert abs(gamma1 - math.sqrt(10.0 + 7.0 * SQ2)) <= 1e-12
    assert abs(gamma2) <= 1e-14
    assert abs(gamma3 - math.sqrt(2.0 + SQ2)) <= 1e-13


def test_antipodal_4_1_frozen_values():
    cf, (alpha1, alpha2), (gamma1, gamma2, gamma3) = _closed_form_parts(4.0, 1.0)
    assert abs(cf.gamma_fr - (math.sqrt(13.0) - 3.0) ** 2 / 4.0) <= 1e-14
    assert abs(alpha1 - 5.344003239065475) <= 1e-10
    assert abs(alpha2 - (-2.041227601333481)) <= 1e-10
    assert abs(gamma1 - 9.531355676996421) <= 1e-9
    assert abs(gamma2 - 3.433402534601493) <= 1e-9
    assert abs(gamma3 - 2.5393454128848574) <= 1e-9


def test_antipodal_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        closed_form_antipodal(0.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_antipodal(1.0, -2.0)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None, max_examples=60)
def test_antipodal_closed_form_invariants(c1, c2):
    # the closed form must pass the Schur validation inside symbol assembly
    cf, (alpha1, alpha2), _ = _closed_form_parts(c1, c2)
    assert isinstance(cf, RationalSymbol)
    assert cf.k == 2
    assert 0.0 < cf.gamma_fr < 1.0
    assert alpha1 > 1.0 and alpha2 < -1.0
    assert abs(cf.gamma_fr * alpha1 * alpha2 + 1.0) <= 1e-12 * max(
        1.0, abs(alpha1 * alpha2))


def test_antipodal_closed_form_matches_pipeline_eta():
    for c1, c2 in [(1.0, 1.0), (4.0, 1.0), (0.5, 2.0)]:
        cf = closed_form_antipodal(c1, c2)
        mu = CircleMeasure((0.0, np.pi), (c1, c2))
        sym = measure_to_symbol(mu)
        assert abs(sym.gamma_fr - cf.gamma_fr) <= 1e-12
        got = sorted(sym.alphas, key=lambda a: a.real)
        want = sorted(cf.alphas.real)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10
        assert np.abs(sym.eta - cf.eta).max() <= 1e-10 * max(
            1.0, np.abs(sym.eta).max())


# ------------------------------------------------------------ one-atom symbols


def test_single_atom_contraction_equation():
    for tau in (0.1, 1.0, 10.0):
        sym = single_atom_symbol(tau)
        eta = sym.gamma_fr
        assert 0.0 < eta < 1.0
        assert abs(eta + 1.0 / eta - (2.0 + tau)) <= 1e-12 * (2.0 + tau)
        assert abs(sym.alphas[0] - 1.0 / eta) <= 1e-12 / eta
        coeff = sym.coefficients[0, 1]
        assert abs(abs(coeff) ** 2 - tau / eta) <= 1e-11 * (tau / eta)


def test_single_atom_tau1_golden_values():
    # tau = 1: eta solves eta + 1/eta = 3, so eta = (3 - sqrt 5)/2
    sym = single_atom_symbol(1.0)
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(sym.gamma_fr - eta) <= 1e-14
    assert abs(sym.gamma_fr - 0.3819660112501051) <= 1e-12
    assert abs(sym.alphas[0] - 2.6180339887498953) <= 1e-12
    assert abs(sym.coefficients[0, 1] - (-1.618033988749895)) <= 1e-12


def test_single_atom_rotation_moves_pole():
    theta = 1.1
    sym = single_atom_symbol(2.0, theta)
    base = single_atom_symbol(2.0)
    assert abs(sym.alphas[0] - cmath.exp(1j * theta) * base.alphas[0]) <= 1e-12 * abs(
        base.alphas[0])


def test_single_atom_matches_pipeline():
    for tau, theta in [(1.0, 0.0), (0.5, 2.0)]:
        closed = single_atom_symbol(tau, theta)
        sym = measure_to_symbol(CircleMeasure((theta,), (tau,)))
        assert abs(sym.gamma_fr - closed.gamma_fr) <= 1e-12
        assert abs(sym.alphas[0] - closed.alphas[0]) <= 1e-10 * abs(closed.alphas[0])
        assert np.abs(sym.eta - closed.eta).max() <= 1e-10 * max(
            1.0, np.abs(closed.eta).max())


def test_single_atom_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        single_atom_symbol(0.0)
    with pytest.raises(ValueError):
        single_atom_symbol(-1.0)


# -------------------------------------------------------------- eta evaluation


def test_eta_values_against_direct_sum():
    sym = symbol_from_parts([2.0, 1.5j], [[0.0, 0.3], [0.0, 0.0, 0.3]])
    zs = np.array([0.1 + 0.2j, -0.4j, 0.5])
    ws = np.array([0.3, 0.2 - 0.1j])
    got = eta_values(sym, zs, ws)
    for i, z in enumerate(zs):
        for j, w in enumerate(ws):
            direct = sum(npoly.polyval(z, p) * np.conj(npoly.polyval(w, p))
                         for p in sym.coefficients)
            direct /= npoly.polyval(z, sym.q) * np.conj(npoly.polyval(w, sym.q))
            assert abs(got[i, j] - direct) <= 1e-13


def test_exception_hierarchy_is_value_error():
    # the command line maps input and math failures to one exit code; every
    # domain error must therefore derive from ValueError
    from cauchydual import polyrat, symbolpipe
    for exc in (polyrat.DegreeZeroError, PolesNotDistinctError,
                DegreeTooLargeError, polyrat.NotPositiveOnCircleError,
                polyrat.RootOnCircleError, symbolpipe.EmptyMeasureError,
                NotUnimodularError, symbolpipe.GramSingularError,
                symbolpipe.EtaNotPSDError, ExtremePointError,
                GridOutsideDiscError):
        assert issubclass(exc, ValueError)
