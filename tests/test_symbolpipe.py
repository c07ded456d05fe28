"""Measure -> outer quotient -> Gram -> row symbol pipeline."""

import cmath
import dataclasses
import inspect
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cauchydual.certify import pole_pairing
from cauchydual.polyrat import lagrange_denominators
from cauchydual.symbolpipe import (
    CircleMeasure,
    EtaNotPSDError,
    GramSingularError,
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
from conftest import ROOT, load_script, pool_like_measures, random_measure
from polyrat_oracle import DegreeTooLargeError, PolesNotDistinctError
from rank1_oracle import ExtremePointError, GridOutsideDiscError
from symbol_oracle import (
    NotUnimodularError,
    condition,
    eta_values,
    rotate_measure,
)

SQ2 = math.sqrt(2.0)


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


def test_measure_circle_points_are_computed_once():
    mu = CircleMeasure((0.3, 0.0, 2.5, 4.0), (1.0, 0.0, 0.5, 2.0))
    zetas = mu.zetas
    assert zetas is mu.zetas and not zetas.flags.writeable
    assert np.array_equal(zetas, np.exp(1j * np.array([0.3, 2.5, 4.0])))
    assert CircleMeasure().zetas.shape == (0,)


@pytest.mark.parametrize("thetas, weights, message", [
    # kept indices, after the zero-weight atom is dropped
    pytest.param(
        (0.0, 5.0, 1.0, 2.0 * np.pi, 1.0 + 2.0 * np.pi), (1.0, 0.0, 1.0, 1.0, 1.0),
        f"gap of atoms 0 and 2 (theta 0.0 vs {2.0 * np.pi}) check: 2.4492936e-16 "
        "is not > 1e-09",
        id=f"thetas0-weights0-atoms 0 and 2 coincide on the circle: theta 0.0 vs "
           f"{2.0 * np.pi}"),
    # pair (0, 3) is scanned before pair (1, 2)
    pytest.param(
        (0.5, 1.0, 1.0 + 2.0 * np.pi, 0.5 + 2.0 * np.pi), (1.0, 1.0, 1.0, 1.0),
        f"gap of atoms 0 and 3 (theta 0.5 vs {0.5 + 2.0 * np.pi}) check: "
        "2.48253415e-16 is not > 1e-09",
        id=f"thetas1-weights1-atoms 0 and 3 coincide on the circle: theta 0.5 vs "
           f"{0.5 + 2.0 * np.pi}"),
])
def test_coincident_atoms_name_the_first_pair(thetas, weights, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        CircleMeasure(thetas, weights)


def test_rotate_measure_shifts_atoms():
    # pull-back along z -> zeta z: each atom moves to conj(zeta) * atom
    mu = CircleMeasure((0.5, 2.0), (1.0, 2.0))
    rot = rotate_measure(mu, cmath.exp(0.7j))
    zs = sorted(rot.zetas, key=lambda z: cmath.phase(z))
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
        zetas = mu.zetas
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


def test_boundary_band_has_length_2k_plus_1_and_unimodular_ends():
    # the band fejer_riesz_factor and poly_roots take without re-checking:
    # 1-D of length 2k + 1, its averaged outermost coefficient
    # prod_j (-conj(zeta_j)) of modulus 1, whatever the weights. Measured:
    # within 4.5e-16 on these measures
    decades = 10.0 ** np.arange(-12, 13)
    measures = [
        *pool_like_measures(73, 16),
        *(CircleMeasure(tuple(2.0 * np.pi * np.arange(k) / k), (mass,) * k)
          for k in range(1, 25) for mass in (0.1, 1.0, float(k))),
        *(CircleMeasure((0.0, np.pi), (c1, c2)) for c1 in decades for c2 in decades)]
    for mu in measures:
        band = boundary_polynomial(mu)
        assert band.shape == (2 * mu.size + 1,)
        top = 0.5 * (band[-1] + np.conj(band[0]))
        assert abs(abs(top) - 1.0) <= 1e-15, mu
    assert len(measures) == 128 + 72 + 625


# ------------------------------------------------------------- outer quotient


def test_outer_quotient_modulus_and_normalization():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        mu = random_measure(rng, k)
        alphas, p, q = outer_from_measure(mu)
        ratio = p[0] / q[0]
        assert abs(ratio.imag) <= 1e-12 * abs(ratio)
        assert ratio.real > 0
        # |p/q|^2 = 1 / (1 + sum_j c_j / |z - zeta_j|^2) on the circle
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 101, endpoint=False))
        zetas = mu.zetas
        weight = 1.0 + sum(
            c / np.abs(zs - zeta) ** 2 for zeta, c in zip(zetas, mu.weights))
        got = np.abs(npoly.polyval(zs, p) / npoly.polyval(zs, q)) ** 2
        assert np.abs(got - 1.0 / weight).max() <= 1e-10
        # numerator vanishes exactly at the atoms
        assert np.abs(npoly.polyval(zetas, p)).max() <= 1e-10
        assert p.shape == q.shape == (k + 1,)
        assert isinstance(alphas, np.ndarray) and alphas.shape == (k,)
        assert all(abs(a) > 1.0 for a in alphas)


def test_empty_measure_has_unit_weight_and_outer_quotient():
    # weight 1 on the circle, so O = 1/1
    mu = CircleMeasure((), ())
    assert np.array_equal(boundary_polynomial(mu), [1.0])
    alphas, p, q = outer_from_measure(mu)
    assert alphas.shape == (0,)
    assert np.array_equal(p, [1.0]) and np.array_equal(q, [1.0])


def test_gram_matrix_is_positive_definite():
    rng = np.random.default_rng(17)
    for k in (2, 3):
        mu = random_measure(rng, k)
        _, p, q = outer_from_measure(mu)
        G, inverse, _, U = gram_from_outer(mu, p, q)
        assert np.abs(G - G.conj().T).max() <= 1e-14 * np.abs(G).max()
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > 0
        assert np.abs(G @ inverse - np.eye(k)).max() <= 1e-9 * condition(G)
        # the rows of U are p with one linear factor removed
        zetas = mu.zetas
        z0 = 0.37 + 0.21j
        for j, u in enumerate(U):
            expected = npoly.polyval(z0, p) / (z0 - zetas[j])
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
        _, p, q = outer_from_measure(mu)
        G, inverse, oprime, U = gram_from_outer(mu, p, q)
        want_G, want_inverse, want_oprime, want_U = symbol_oracle.gram_from_outer(mu, p, q)
        scale = np.abs(want_G).max()
        assert np.abs(G - want_G).max() <= 1e-12 * scale
        assert np.abs(G - G.conj().T).max() == 0.0
        assert (np.abs(oprime - want_oprime) <= 1e-12 * np.abs(want_oprime)).all()
        inverse_scale = np.abs(want_inverse).max() * condition(want_G)
        assert np.abs(inverse - want_inverse).max() <= 1e-12 * inverse_scale
        assert U.shape == want_U.shape == (mu.size, mu.size)
        # u_j has degree k - 1: its leading coefficient is p's
        assert np.all(U[:, -1] == p[-1])
        for u, v in zip(U, want_U):
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
        _, p_outer, _ = outer_from_measure(mu)
        total = np.abs(npoly.polyval(zs, p_outer)) ** 2
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
    eta = symbol_oracle.eta(sym)
    assert np.abs(chol.conj().T @ chol - eta).max() <= 1e-10 * np.abs(eta).max()
    # eta is positive semidefinite
    assert np.linalg.eigvalsh(eta).min() >= -1e-10 * np.abs(eta).max()


def _spy_on_cholesky(monkeypatch) -> list:
    """Record every matrix measure_to_symbol hands to np.linalg.cholesky."""
    seen, cholesky = [], np.linalg.cholesky

    def spy(a):
        seen.append(np.array(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", spy)
    return seen


def test_cholesky_split_matches_the_psd_projection_oracle(monkeypatch):
    # the numerator matrix A is split by one Cholesky factorization; the
    # eigh -> clip -> phase-fixed QR split it replaced gives numerators
    # within 1.2e-11 and a pole pairing Pi, which is all the certificates
    # read, within 1.8e-14 over the benchmark's measure pool
    def refuse(*args, **kwargs):
        raise AssertionError("the split calls eigh, qr or clip")

    seen = _spy_on_cholesky(monkeypatch)
    for name in ("eigh", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(np, "clip", refuse)
    measures = pool_like_measures(29, 4)
    symbols = [measure_to_symbol(mu) for mu in measures]
    assert len(seen) == len(measures)
    monkeypatch.undo()
    for sym, A in zip(symbols, seen):
        P = sym.coefficients[:, 1:]
        assert np.array_equal(P, np.triu(P))
        assert np.all(np.diag(P).imag == 0) and np.all(np.diag(P).real > 0)
        old = symbol_oracle.psd_split(A)
        assert np.abs(P - old).max() <= 1e-10 * np.abs(old).max()
        old_sym = RationalSymbol(sym.alphas, np.hstack([np.zeros((sym.k, 1)), old]))
        pair, old_pair = pole_pairing(sym).pair, pole_pairing(old_sym).pair
        assert np.abs(pair - old_pair).max() <= 1e-13 * np.abs(old_pair).max()


def test_numerator_matrix_without_cholesky_factor_names_its_eigenvalues(monkeypatch):
    mu = pool_like_measures(29, 1)[3]
    seen = _spy_on_cholesky(monkeypatch)
    measure_to_symbol(mu)

    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(EtaNotPSDError) as info:
        measure_to_symbol(mu)
    lo, hi = np.linalg.eigvalsh(seen[0])[[0, -1]]
    assert str(info.value) == (
        f"numerator matrix has no Cholesky factor: lambda_min {lo:.3e}, "
        f"lambda_max {hi:.3e}, lambda_min/lambda_max {lo / hi:.3e}")


def _scaled_solve(a, b, _solve=np.linalg.solve):
    return 2.0 * _solve(a, b)


def _doubled_cholesky(a, _cholesky=np.linalg.cholesky):
    return 2.0 * _cholesky(a)


# a measure near a double atom, lost at the degree-zero edge, and one the
# pipeline builds unless a step is patched to fail
NEAR_DOUBLE = CircleMeasure((0.0, 0.05), (1.0, 20.0))
THREE_ATOMS = CircleMeasure((0.4, 2.2, 4.3), (1.0, 0.7, 2.5))


@pytest.mark.parametrize("patch,mu,exc,pattern", [
    (None, NEAR_DOUBLE, RuntimeError,
     r"numerator expansion degree-zero edge check: \S+ is not <= \S+$"),
    ((np.linalg, "solve", _scaled_solve), THREE_ATOMS, GramSingularError,
     r"Gram inversion residual check: \S+ is not <= \S+$"),
    ((np.linalg, "cholesky", _doubled_cholesky), THREE_ATOMS, RuntimeError,
     r"cholesky split residual check: \S+ is not <= \S+$"),
    # a wrong phase leaves p(0)/q(0) off the real axis; a phase off by pi
    # makes it negative
    ((cmath, "phase", lambda z: 0.5), THREE_ATOMS, RuntimeError,
     r"normalization \|Im p\(0\)/q\(0\)\| check: \S+ is not <= \S+$"),
    ((cmath, "phase", lambda z, _phase=cmath.phase: _phase(z) + math.pi), THREE_ATOMS,
     RuntimeError, r"normalization Re p\(0\)/q\(0\) check: -\S+ is not > 0$"),
])
def test_pipeline_rejections_name_value_and_threshold(patch, mu, exc, pattern,
                                                      monkeypatch):
    if patch is not None:
        monkeypatch.setattr(*patch)
    with pytest.raises(exc, match=pattern):
        measure_to_symbol(mu)


def test_singular_gram_names_its_smallest_eigenvalue():
    # the outer quotient of one measure with the weights of another: the
    # diagonal shrinks a millionfold and the Gram matrix is indefinite
    _, p, q = outer_from_measure(THREE_ATOMS)
    with pytest.raises(GramSingularError,
                       match=r"smallest Gram eigenvalue check: -\S+ is not > \S+$"):
        gram_from_outer(CircleMeasure(THREE_ATOMS.thetas, (1e-6,) * 3), p, q)


def test_nan_gram_eigenvalue_fails_the_floor(monkeypatch):
    # `min <= floor` passed a NaN eigenvalue on to the inversion
    _, p, q = outer_from_measure(THREE_ATOMS)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
    with pytest.raises(GramSingularError,
                       match=r"smallest Gram eigenvalue check: nan is not > \S+$"):
        gram_from_outer(THREE_ATOMS, p, q)


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
    assert np.abs(symbol_oracle.eta(sym) - C.conj().T @ C).max() <= 1e-14


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
    with pytest.raises(ValueError, match=re.escape(
            "modulus of pole (0.9+0j) check: 0.9 is not > 1") + "$"):
        RationalSymbol((0.9 + 0.0j,), np.array([[0.0, 0.1]]))
    with pytest.raises(ValueError, match=r"Schur row norm check: \S+ is not <= 1\.00000001$"):
        RationalSymbol((1.05 + 0.0j,), np.array([[0.0, 1.2]]))
    with pytest.raises(ValueError, match=re.escape(
            "numerator 1 constant term check: 0.1 is not <= 1e-14") + "$"):
        RationalSymbol((2.0, 3.0), np.array([[0.0, 0.1, 0.0], [0.1, 0.0, 0.1]]))


# The row norm of a measure's symbol is 1 at each atom exactly, and at these
# pool measures (perfbench's pool keys k/index) the pipeline's symbol
# exceeds the Schur bound there, by up to 5.1e-6 (5/10); the sampled
# check passes them, as no sample lands on an atom
POOL_OVER_AT_ATOMS = ("5/10", "5/16", "5/62", "6/37", "6/43", "7/15", "7/40",
                      "8/12", "8/20", "8/30", "8/35", "8/52", "8/55")
SCHUR_BOUND = 1.0 + 1e-8


@pytest.fixture(scope="module")
def pool_atom_row_norms():
    """Per pool measure the pipeline builds, the largest row norm
    sum_j |p_j/q|^2 of its symbol at the measure's atoms."""
    workloads = load_script("workloads", ROOT / "perfbench")
    norms = {}
    for k in workloads.POOL_KS:
        for index in range(workloads.POOL_PER_K):
            mu = workloads.draw_measure(k, index)
            try:
                sym = measure_to_symbol(mu)
            except (ValueError, ArithmeticError, RuntimeError):
                continue
            zs = mu.zetas
            num = sum(np.abs(npoly.polyval(zs, p)) ** 2 for p in sym.coefficients)
            norms[workloads.pool_key(k, index)] = float(
                (num / np.abs(npoly.polyval(zs, sym.q)) ** 2).max())
    return norms


@pytest.mark.parametrize("key", [
    pytest.param(key, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="row norm above 1 + 1e-8 at an atom"))
    for key in POOL_OVER_AT_ATOMS])
def test_pool_symbol_meets_the_schur_bound_at_its_atoms(key, pool_atom_row_norms):
    assert pool_atom_row_norms[key] <= SCHUR_BOUND


def test_other_pool_symbols_meet_the_schur_bound_at_their_atoms(pool_atom_row_norms):
    # 511 of the 512 pool measures build (5/2 is rejected)
    assert len(pool_atom_row_norms) == 511
    rest = {key: norm for key, norm in pool_atom_row_norms.items()
            if key not in POOL_OVER_AT_ATOMS}
    assert len(rest) == 498
    assert max(rest.values()) <= SCHUR_BOUND


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
    pytest.param([0.5, 0.3], "modulus of pole (0.5+0j) check: 0.5 is not > 1",
                 id="alphas0-pole (0.5+0j) is not outside the closed disc"),
    # moduli first: pole 1 before pair (0, 2)
    pytest.param([2.0, 0.5, 2.0], "modulus of pole (0.5+0j) check: 0.5 is not > 1",
                 id="alphas1-pole (0.5+0j) is not outside the closed disc"),
    # moduli first: pole 1 before pair (2, 3)
    pytest.param([2.0, 0.5, 3.0, 3.0], "modulus of pole (0.5+0j) check: 0.5 is not > 1",
                 id="alphas2-pole (0.5+0j) is not outside the closed disc"),
    # then pairs in row-major order: pair (0, 3) before pair (1, 2)
    pytest.param([2.0, 3.0, 3.0, 2.0], "gap of poles (2+0j) and (2+0j) check: 0 is not > 1e-09",
                 id="alphas3-poles (2+0j) and (2+0j) coincide"),
    # a pole on the circle fails the strict check
    pytest.param([2.0, -1.0, 3.0], "modulus of pole (-1+0j) check: 1 is not > 1",
                 id="alphas4-pole (-1+0j) is not outside the closed disc"),
])
def test_pole_checks_name_the_first_offender(alphas, message):
    # moduli first, then pairs in row-major order
    numerators = [[0.0, 0.01]] * len(alphas)
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        symbol_from_parts(alphas, numerators)


def test_derived_fields_follow_poles_and_numerators(fixture_symbols):
    rng = np.random.default_rng(31)
    built = [measure_to_symbol(random_measure(rng, k)) for k in (1, 2, 3, 4, 5, 6)]
    for sym in list(fixture_symbols.values()) + built:
        assert sym.k == len(sym.alphas) == len(sym.coefficients)
        want_q = npoly.polyfromroots(sym.alphas)
        assert np.abs(sym.q - want_q).max() <= 1e-13 * np.abs(want_q).max()
        C = sym.coefficients[:, 1:]
        eta = symbol_oracle.eta(sym)
        assert np.abs(eta - C.conj().T @ C).max() <= 1e-14 * np.abs(eta).max()
        pairing = pole_pairing(sym)
        assert np.array_equal(pairing.a, lagrange_denominators(sym.alphas))
        assert np.array_equal(pairing.products,
                              np.outer(sym.alphas, np.conj(sym.alphas)))
        # the numerator values at the poles are a pairing table, built
        # per call like a and the products, not held by the symbol
        assert pairing.values.shape == (len(sym.coefficients), sym.k)
        for derived in (sym.alphas, sym.coefficients, sym.q, pairing.values):
            assert not derived.flags.writeable


def test_symbol_is_its_poles_and_numerators():
    # gamma_fr and eta are derived or gone, never stored or passed in
    assert [f.name for f in dataclasses.fields(RationalSymbol)] == [
        "alphas", "coefficients"]
    assert list(inspect.signature(symbol_from_parts).parameters) == [
        "alphas", "numerators"]
    assert not hasattr(RationalSymbol, "eta")
    # the outer quotient is handed on as plain arrays: poles, p and q
    outer = outer_from_measure(THREE_ATOMS)
    assert isinstance(outer, tuple) and len(outer) == 3
    assert all(isinstance(part, np.ndarray) for part in outer)


def test_gamma_fr_is_the_factorization_constant():
    # the boundary weight gamma |q|^2 has a top coefficient of modulus 1,
    # so the poles fix gamma = 1 / prod_r |alpha_r|. It is judged against
    # the constant at 50 digits, where it is off by at most 2.7e-11 here.
    # The factorization's own gamma, read from the float band, is not the
    # judge: it is off by up to 1.4e-10 (entry 54, k = 7), 1.1e-10 from
    # the derived one
    measures = pool_like_measures(97, 8)
    for mu in measures:
        sym = measure_to_symbol(mu)
        exact = symbol_oracle.fejer_riesz_gamma_50_digits(mu, sym.alphas)
        assert abs(sym.gamma_fr - exact) <= 1e-10 * exact
    assert len(measures) == 64


def test_gamma_fr_matches_the_antipodal_closed_form():
    weights = np.logspace(-4.0, 4.0, 33)
    for c1 in weights:
        for c2 in weights:
            gamma = symbol_oracle.antipodal_gamma(c1, c2)
            assert abs(closed_form_antipodal(c1, c2).gamma_fr - gamma) <= 1e-11 * gamma


def test_directly_built_symbol_needs_one_numerator_per_pole():
    # flipped: any number m >= 1 of numerators over k poles builds
    poles = (2.0 + 0.0j, -3.0 + 0.0j)
    for m in (1, 3):
        C = np.zeros((m, 3))
        C[:, 1] = 0.1
        sym = RationalSymbol(poles, C)
        assert sym.k == 2 and pole_pairing(sym).values.shape == (m, 2)


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


@pytest.mark.parametrize("c1, c2, pole_tol, numerator_tol", [
    (1e-4, 1e4, 3.5e-16, 2.5e-16),
    (1e-3, 1e3, 2e-16, 4.5e-16),
    (1e-2, 1.0, 2.5e-16, 1e-16),
    (1e-8, 1.0, 3e-16, 3e-16),
    (1e-6, 1e6, 2.5e-16, 5.5e-17),
    (1e-12, 1e-12, 7.5e-17, 3e-16),
    (1e6, 1e6, 5e-17, 2.5e-16),
])
def test_antipodal_closed_form_at_extreme_weights(c1, c2, pole_tol, numerator_tol):
    """The float closed form against its radical form at 60 digits, entry
    by entry, at weight ratios beyond the hypothesis range and mirrored.
    Measured: poles within 1.7e-16 and numerators within 1.2e-16 at
    1e-4 : 1e4, 9.9e-17 and 2.1e-16 at 1e-3 : 1e3, 1.2e-16 and 5.1e-17 at
    1e-2 : 1, 1.4e-16 and 1.4e-16 at 1e-8 : 1, 1.3e-16 and 2.7e-17 at
    1e-6 : 1e6, 3.8e-17 and 1.4e-16 at 1e-12 : 1e-12, 2.3e-17 and 1.3e-16
    at 1e6 : 1e6; each bound is about twice that. gamma2 is exactly 0 at
    equal weights, in both forms."""
    for a, b in ((c1, c2), (c2, c1)):
        _, alphas, gammas = _closed_form_parts(a, b)
        want_alphas, want_gammas = symbol_oracle.antipodal_radicals_60_digits(a, b)
        for got, want in zip(alphas, want_alphas):
            assert abs(got - want) <= pole_tol * abs(want), (a, b)
        for got, want in zip(gammas, want_gammas):
            assert abs(got - want) <= numerator_tol * abs(want), (a, b)


def test_antipodal_closed_form_matches_pipeline_eta():
    for c1, c2 in [(1.0, 1.0), (4.0, 1.0), (0.5, 2.0)]:
        cf = closed_form_antipodal(c1, c2)
        mu = CircleMeasure((0.0, np.pi), (c1, c2))
        sym = measure_to_symbol(mu)
        assert abs(sym.gamma_fr - cf.gamma_fr) <= 1e-12
        got = sorted(sym.alphas, key=lambda a: a.real)
        want = sorted(cf.alphas.real)
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10
        eta = symbol_oracle.eta(sym)
        assert np.abs(eta - symbol_oracle.eta(cf)).max() <= 1e-10 * max(
            1.0, np.abs(eta).max())


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


@pytest.mark.parametrize("tau", [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12])
def test_single_atom_pole_and_numerator_at_50_digits(tau):
    # the textbook root (s - sqrt(s^2 - 4))/2 of eta + 1/eta = s = 2 + tau
    # keeps more than 25 of its 50 digits over this range; in floats it
    # cancels: 3.7e-10 off at tau = 1e4, 34 % at 1e8, a division by zero at
    # 1e12, and s^2 - 4 itself cancels at 1e-12. The closed form is within
    # 2.3e-16 of it at these tau and theta; the bound is about twice that
    with mpmath.workdps(50):
        s = 2 + mpmath.mpf(tau)
        eta = (s - mpmath.sqrt(s * s - 4)) / 2
        numerator = mpmath.sqrt(mpmath.mpf(tau) / eta)
        for theta in (0.0, 2.0, math.pi):
            sym = single_atom_symbol(tau, theta)
            pole = mpmath.expj(theta) / eta
            assert abs(mpmath.mpc(complex(sym.alphas[0])) - pole) <= 5e-16 * abs(pole)
            got = abs(complex(sym.coefficients[0, 1]))
            assert abs(got - numerator) <= 5e-16 * numerator


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
        eta = symbol_oracle.eta(closed)
        assert np.abs(symbol_oracle.eta(sym) - eta).max() <= 1e-10 * max(
            1.0, np.abs(eta).max())


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
    for exc in (PolesNotDistinctError,
                DegreeTooLargeError, polyrat.NotPositiveOnCircleError,
                polyrat.RootOnCircleError,
                NotUnimodularError, symbolpipe.GramSingularError,
                symbolpipe.EtaNotPSDError, ExtremePointError,
                GridOutsideDiscError):
        assert issubclass(exc, ValueError)
