"""Measure -> outer quotient -> Gram -> row symbol pipeline."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cauchydual.polyrat import Polynomial
from cauchydual.symbolpipe import (
    AntipodalClosedForm,
    CircleMeasure,
    EmptyMeasureError,
    NotUnimodularError,
    RationalSymbol,
    boundary_polynomial,
    closed_form_antipodal,
    eta_values,
    gram_from_outer,
    measure_to_symbol,
    outer_from_measure,
    rotate_measure,
    single_atom_symbol,
    symbol_from_parts,
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
        got = band.values_on_circle(zs)
        assert np.abs(got - direct).max() <= 1e-12 * direct.max()


# ------------------------------------------------------------- outer quotient


def test_outer_quotient_modulus_and_normalization():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        outer = outer_from_measure(mu)
        ratio = outer.p(0.0) / outer.q(0.0)
        assert abs(ratio.imag) <= 1e-12 * abs(ratio)
        assert ratio.real > 0
        # |p/q|^2 = 1 / (1 + sum_j c_j / |z - zeta_j|^2) on the circle
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 101, endpoint=False))
        zetas = mu.zetas()
        weight = 1.0 + sum(
            c / np.abs(zs - zeta) ** 2 for zeta, c in zip(zetas, mu.weights))
        got = np.abs(outer.p(zs) / outer.q(zs)) ** 2
        assert np.abs(got - 1.0 / weight).max() <= 1e-10
        # numerator vanishes exactly at the atoms
        assert max(abs(outer.p(z)) for z in zetas) <= 1e-10
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
        assert np.abs(gram.gram @ gram.inverse - np.eye(k)).max() <= 1e-9 * gram.condition
        # stored numerators are p with one linear factor removed
        zetas = mu.zetas()
        for j, u in enumerate(gram.numerators):
            z0 = 0.37 + 0.21j
            expected = outer.p(z0) / (z0 - zetas[j])
            assert abs(u(z0) - expected) <= 1e-10 * max(1.0, abs(expected))


# ----------------------------------------------------------------- the symbol


def test_pipeline_symbol_row_identity_on_circle():
    # column extremality: sum_t |p_t|^2 + |p_outer|^2 = |q|^2 on the circle
    rng = np.random.default_rng(23)
    zs = np.exp(1j * np.linspace(0, 2 * np.pi, 257, endpoint=False))
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        sym = measure_to_symbol(mu)
        outer = outer_from_measure(mu)
        total = np.abs(outer.p(zs)) ** 2
        for p in sym.numerators:
            total += np.abs(p(zs)) ** 2
        qq = np.abs(sym.q(zs)) ** 2
        assert np.abs(total - qq).max() <= 1e-10 * qq.max()


def test_pipeline_symbol_structure():
    mu = CircleMeasure((0.4, 2.2, 4.3), (1.0, 0.7, 2.5))
    sym = measure_to_symbol(mu)
    assert sym.k == 3
    assert len(sym.numerators) == 3
    # chol is upper triangular with nonnegative diagonal and eta = chol* chol
    assert np.abs(np.tril(sym.chol, -1)).max() <= 1e-12 * np.abs(sym.chol).max()
    diag = np.diag(sym.chol)
    assert np.abs(diag.imag).max() <= 1e-12 * np.abs(diag).max()
    assert diag.real.min() >= 0
    assert np.abs(sym.chol.conj().T @ sym.chol - sym.eta).max() <= 1e-10 * np.abs(sym.eta).max()
    # pipeline numerators read off the rows of chol, shifted by one degree
    for t, p in enumerate(sym.numerators):
        coeffs = p.padded(sym.k + 1)
        assert abs(coeffs[0]) <= 1e-14
        assert np.abs(coeffs[1:] - sym.chol[t, :]).max() <= 1e-12 * max(
            1.0, np.abs(sym.chol).max())
    # eta is positive semidefinite
    assert np.linalg.eigvalsh(sym.eta).min() >= -1e-10 * np.abs(sym.eta).max()


def test_empty_measure_gives_zero_symbol():
    sym = measure_to_symbol(CircleMeasure((), ()))
    assert sym.k == 0
    assert sym.numerators == ()
    assert sym.alphas == ()


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
        symbol_from_parts([2.0, 3.0], [[0.0, 0.1]])  # pole count mismatch


def test_symbol_from_parts_eta_round_trip():
    sym = symbol_from_parts([2.0, 1.5j], [[0.0, 0.3], [0.0, 0.0, 0.3]])
    C = np.zeros((2, 2), dtype=complex)
    for t, p in enumerate(sym.numerators):
        C[t, :] = p.padded(3)[1:]
    assert np.abs(sym.eta - C.conj().T @ C).max() <= 1e-14


def test_zero_rank_symbol_from_parts():
    sym = symbol_from_parts([], [])
    assert sym.k == 0 and isinstance(sym, RationalSymbol)


def test_directly_built_symbol_is_checked():
    # the constructor itself rejects a symbol outside the admissible class,
    # without going through symbol_from_parts or measure_to_symbol
    with pytest.raises(ValueError, match="not outside the closed disc"):
        RationalSymbol(1, (Polynomial.from_coeffs([0.0, 0.1]),),
                       Polynomial.from_roots([0.9]), (0.9 + 0.0j,),
                       np.array([[0.01 + 0.0j]]), np.array([[0.1 + 0.0j]]))
    with pytest.raises(ValueError, match="Schur bound"):
        RationalSymbol(1, (Polynomial.from_coeffs([0.0, 1.2]),),
                       Polynomial.from_roots([1.05]), (1.05 + 0.0j,),
                       np.array([[1.44 + 0.0j]]), np.array([[1.2 + 0.0j]]))


def test_directly_built_symbol_needs_one_numerator_per_pole():
    poles = (2.0 + 0.0j, -3.0 + 0.0j)
    with pytest.raises(ValueError, match="1 numerators for a rank-2 symbol"):
        RationalSymbol(2, (Polynomial.from_coeffs([0.0, 0.1]),),
                       Polynomial.from_roots(poles), poles,
                       np.zeros((2, 2), dtype=complex), np.zeros((2, 2), dtype=complex))


# ------------------------------------------------------- antipodal closed form


def test_antipodal_1_1_exact_radicals():
    cf = closed_form_antipodal(1.0, 1.0)
    assert abs(cf.gamma_fr - (3.0 - 2.0 * SQ2)) <= 1e-14
    assert abs(cf.alpha1 - (1.0 + SQ2)) <= 1e-13
    assert abs(cf.alpha2 + (1.0 + SQ2)) <= 1e-13
    assert abs(cf.gamma1 - math.sqrt(10.0 + 7.0 * SQ2)) <= 1e-12
    assert abs(cf.gamma2) <= 1e-14
    assert abs(cf.gamma3 - math.sqrt(2.0 + SQ2)) <= 1e-13


def test_antipodal_4_1_frozen_values():
    cf = closed_form_antipodal(4.0, 1.0)
    assert abs(cf.gamma_fr - (math.sqrt(13.0) - 3.0) ** 2 / 4.0) <= 1e-14
    assert abs(cf.alpha1 - 5.344003239065475) <= 1e-10
    assert abs(cf.alpha2 - (-2.041227601333481)) <= 1e-10
    assert abs(cf.gamma1 - 9.531355676996421) <= 1e-9
    assert abs(cf.gamma2 - 3.433402534601493) <= 1e-9
    assert abs(cf.gamma3 - 2.5393454128848574) <= 1e-9


def test_antipodal_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        closed_form_antipodal(0.0, 1.0)
    with pytest.raises(ValueError):
        closed_form_antipodal(1.0, -2.0)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(deadline=None, max_examples=60)
def test_antipodal_closed_form_invariants(c1, c2):
    cf = closed_form_antipodal(c1, c2)
    assert 0.0 < cf.gamma_fr < 1.0
    assert cf.alpha1 > 1.0 and cf.alpha2 < -1.0
    assert abs(cf.gamma_fr * cf.alpha1 * cf.alpha2 + 1.0) <= 1e-12 * max(
        1.0, abs(cf.alpha1 * cf.alpha2))
    # the closed form must pass the Schur validation inside symbol assembly
    sym = cf.to_symbol()
    assert isinstance(cf, AntipodalClosedForm)
    assert sym.k == 2


def test_antipodal_closed_form_matches_pipeline_eta():
    for c1, c2 in [(1.0, 1.0), (4.0, 1.0), (0.5, 2.0)]:
        cf = closed_form_antipodal(c1, c2)
        mu = CircleMeasure((0.0, np.pi), (c1, c2))
        sym = measure_to_symbol(mu)
        assert abs(sym.gamma_fr - cf.gamma_fr) <= 1e-12
        got = sorted(sym.alphas, key=lambda a: a.real)
        want = sorted([cf.alpha1, cf.alpha2])
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10
        assert np.abs(sym.eta - cf.to_symbol().eta).max() <= 1e-10 * max(
            1.0, np.abs(sym.eta).max())


# ------------------------------------------------------------ one-atom symbols


def test_single_atom_contraction_equation():
    for tau in (0.1, 1.0, 10.0):
        sym = single_atom_symbol(tau)
        eta = sym.gamma_fr
        assert 0.0 < eta < 1.0
        assert abs(eta + 1.0 / eta - (2.0 + tau)) <= 1e-12 * (2.0 + tau)
        assert abs(sym.alphas[0] - 1.0 / eta) <= 1e-12 / eta
        coeff = sym.numerators[0].coeffs[1]
        assert abs(abs(coeff) ** 2 - tau / eta) <= 1e-11 * (tau / eta)


def test_single_atom_tau1_golden_values():
    # tau = 1: eta solves eta + 1/eta = 3, so eta = (3 - sqrt 5)/2
    sym = single_atom_symbol(1.0)
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(sym.gamma_fr - eta) <= 1e-14
    assert abs(sym.gamma_fr - 0.3819660112501051) <= 1e-12
    assert abs(sym.alphas[0] - 2.6180339887498953) <= 1e-12
    assert abs(sym.numerators[0].coeffs[1] - (-1.618033988749895)) <= 1e-12


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
            direct = sum(p(z) * complex(p(w)).conjugate() for p in sym.numerators)
            direct /= sym.q(z) * complex(sym.q(w)).conjugate()
            assert abs(got[i, j] - direct) <= 1e-13


def test_exception_hierarchy_is_value_error():
    # the command line maps input and math failures to one exit code; every
    # domain error must therefore derive from ValueError
    from cauchydual import polyrat, symbolpipe, kernels
    for exc in (polyrat.DegreeZeroError, polyrat.PolesNotDistinctError,
                polyrat.DegreeTooLargeError, polyrat.NotPositiveOnCircleError,
                polyrat.RootOnCircleError, symbolpipe.EmptyMeasureError,
                symbolpipe.NotUnimodularError, symbolpipe.GramSingularError,
                symbolpipe.EtaNotPSDError, kernels.ExtremePointError,
                kernels.GridOutsideDiscError):
        assert issubclass(exc, ValueError)
