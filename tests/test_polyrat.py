"""Polynomials, partial fractions, hermitian Laurent bands, spectral factors."""

import cmath
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cauchydual import polyrat
from cauchydual.polyrat import (
    CIRCLE_ROOT_TOL,
    DegreeZeroError,
    NotPositiveOnCircleError,
    RootOnCircleError,
    _horner,
    circle_points,
    fejer_riesz_factor,
    from_roots,
    lagrange_denominators,
    poly_roots,
)
from cauchydual.symbolpipe import boundary_polynomial

from conftest import pool_like_measures
from polyrat_oracle import (
    DegreeTooLargeError,
    PolesNotDistinctError,
    conjugate,
    partial_fractions_simple,
)


# --------------------------------------------------------------- polynomials


def test_zero_polynomial_degree_and_eval():
    # no coefficients, or only zeros: the value is 0 everywhere, and the
    # degree is below the 1 root finding needs
    z = np.array([2.3 + 1.0j, -0.5])
    for coeffs in (np.zeros(0, dtype=complex), np.zeros(3, dtype=complex)):
        assert np.array_equal(_horner(coeffs, z), np.zeros(2))
        with pytest.raises(DegreeZeroError):
            poly_roots(coeffs)


def test_from_roots_evaluates_to_product():
    roots = [1.5, -2.0 + 1.0j, 0.3j]
    p = from_roots(roots)
    assert p.shape == (4,) and p[-1] == 1.0
    assert np.abs(p - npoly.polyfromroots(roots)).max() <= 1e-14
    for z in [0.0, 1.0 + 1.0j, -3.0]:
        direct = np.prod([z - r for r in roots])
        assert abs(npoly.polyval(z, p) - direct) <= 1e-12 * max(1.0, abs(direct))
    assert np.array_equal(from_roots([]), [1.0])


def test_conjugate_polynomial_identity():
    p = np.array([1.0 + 2.0j, -0.5j, 3.0])
    for z in [0.3 + 0.4j, -1.2, 2.0j]:
        lhs = npoly.polyval(z, conjugate(p))
        rhs = complex(npoly.polyval(complex(z).conjugate(), p)).conjugate()
        assert abs(lhs - rhs) <= 1e-12


def test_circle_points_built_once_and_read_only():
    for n in (512, 4096):
        zs = circle_points(n)
        assert circle_points(n) is zs
        assert not zs.flags.writeable
        assert np.array_equal(
            zs, np.exp(1j * np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)))


def test_poly_roots_rejects_constants():
    for coeffs in ([3.0], [], [3.0, 0.0, 0.0]):
        with pytest.raises(DegreeZeroError):
            poly_roots(np.array(coeffs, dtype=complex))
    # trailing zeros do not add roots
    roots = poly_roots(np.array([1.0, 2.0, 0.0]))
    assert isinstance(roots, np.ndarray) and roots.dtype == complex
    assert roots.tolist() == [-0.5 + 0.0j]


def _sorted_numpy_roots(coeffs):
    roots = npoly.polyroots(np.trim_zeros(np.asarray(coeffs, dtype=complex), "b"))
    return roots[np.lexsort((np.hypot(roots.real, roots.imag), np.angle(roots)))]


def test_poly_roots_equal_numpy_polynomial_bit_for_bit():
    # the same companion matrix and eigensolver as numpy.polynomial, in the
    # same sorted order, on pool-like boundary bands and random polynomials
    bands = [boundary_polynomial(mu) for mu in pool_like_measures(73, 16)]
    rng = np.random.default_rng(79)
    randoms = [rng.normal(size=(d + 1, 2)) @ [1.0, 1.0j]
               for d in range(1, 17) for _ in range(8)]
    for coeffs in bands + randoms:
        assert np.array_equal(poly_roots(coeffs), _sorted_numpy_roots(coeffs))
    assert len(bands) == 128 and len(randoms) == 128


@st.composite
def annulus_roots(draw, min_size=1, max_size=8):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    mods = draw(st.lists(st.floats(min_value=1.1, max_value=5.0),
                         min_size=n, max_size=n))
    args = draw(st.lists(st.floats(min_value=-3.14, max_value=3.14),
                         min_size=n, max_size=n))
    return [m * cmath.exp(1j * a) for m, a in zip(mods, args)]


@given(annulus_roots())
@settings(deadline=None, max_examples=60)
def test_roots_round_trip(roots):
    gaps = [abs(roots[i] - roots[j])
            for i in range(len(roots)) for j in range(i + 1, len(roots))]
    assume(all(g > 0.1 for g in gaps))
    recovered = poly_roots((1.3 - 0.7j) * from_roots(roots))
    assert len(recovered) == len(roots)
    pool = list(recovered)
    for r in roots:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - r))
        assert abs(pool[best] - r) <= 1e-7
        pool.pop(best)


# ---------------------------------------------------------- partial fractions


def test_lagrange_denominators_small_case():
    a = lagrange_denominators([1.0, 2.0, 4.0])
    assert np.allclose(a, [(1 - 2) * (1 - 4), (2 - 1) * (2 - 4), (4 - 1) * (4 - 2)])


def test_lagrange_denominators_single_pole_is_one():
    assert np.allclose(lagrange_denominators([3.0 + 1.0j]), [1.0])


def test_partial_fractions_rejects_bad_inputs():
    p = [1.0]
    with pytest.raises(PolesNotDistinctError):
        partial_fractions_simple(p, [])
    with pytest.raises(PolesNotDistinctError):
        partial_fractions_simple(p, [2.0, 2.0])
    with pytest.raises(DegreeTooLargeError):
        partial_fractions_simple([0.0, 0.0, 1.0], [2.0, 3.0])


@st.composite
def pf_instances(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    mods = draw(st.lists(st.floats(min_value=0.5, max_value=5.0),
                         min_size=n, max_size=n))
    args = draw(st.lists(st.floats(min_value=-3.14, max_value=3.14),
                         min_size=n, max_size=n))
    poles = [m * cmath.exp(1j * a) for m, a in zip(mods, args)]
    coeffs = draw(st.lists(
        st.tuples(st.floats(min_value=-3, max_value=3),
                  st.floats(min_value=-3, max_value=3)).map(lambda t: complex(*t)),
        min_size=0, max_size=n))
    return poles, coeffs


@given(pf_instances())
@settings(deadline=None, max_examples=60)
def test_partial_fractions_reconstruct(instance):
    poles, coeffs = instance
    gaps = [abs(poles[i] - poles[j])
            for i in range(len(poles)) for j in range(i + 1, len(poles))]
    assume(all(g > 0.1 for g in gaps))
    pf = partial_fractions_simple(coeffs, poles)
    # evaluate far from every pole: radius 7 (poles stay within 5) and 0.05
    zs = np.concatenate([7.0 * np.exp(1j * np.linspace(0, 2 * np.pi, 8, endpoint=False)),
                         0.05 * np.exp(1j * np.linspace(0, 2 * np.pi, 4, endpoint=False))])
    direct = npoly.polyval(zs, coeffs or [0.0]) / np.prod(
        zs[:, None] - np.asarray(poles)[None, :], axis=1)
    err = np.abs(pf(zs) - direct)
    assert err.max() <= 1e-10 * max(1.0, float(np.abs(direct).max()))


def test_partial_fractions_residue_values():
    # 1 / ((z - 2)(z - 3)) = -1/(z - 2) + 1/(z - 3)
    pf = partial_fractions_simple([1.0], [2.0, 3.0])
    assert np.allclose(pf.residues, [-1.0, 1.0])


# ------------------------------------------------------------ Laurent bands


def test_laurent_requires_real_constant():
    # an empty band has no d_0; a non-real d_0 is its own non-conjugate pair
    with pytest.raises(ValueError, match=re.escape("band has shape (0,)")):
        fejer_riesz_factor([])
    for band in ([1.0j], [0.5, 1.0 + 1.0j, 0.5]):
        with pytest.raises(ValueError, match="not hermitian"):
            fejer_riesz_factor(band)


def test_fejer_riesz_drops_zero_outer_pairs():
    padded = fejer_riesz_factor([0.0, 1.0, 2.5, 1.0, 0.0])
    bare = fejer_riesz_factor([1.0, 2.5, 1.0])
    assert padded[0] == bare[0] and np.array_equal(padded[1], bare[1])
    assert len(bare[1]) == 1
    gamma, alphas = fejer_riesz_factor([0.0, 0.0, 2.5, 0.0, 0.0])
    assert gamma == 2.5 and alphas.shape == (0,) and alphas.dtype == complex


def test_laurent_from_full_averages_and_gates():
    # one side off by 1e-12: within tolerance, factored as the average
    near = np.array([0.5 + 0.5j + 1e-12, 2.5, 0.5 - 0.5j])
    average = 0.5 * (near + np.conj(near[::-1]))
    assert not np.array_equal(near, average)
    gamma, alphas = fejer_riesz_factor(near)
    gamma_avg, alphas_avg = fejer_riesz_factor(average)
    assert gamma == gamma_avg and np.array_equal(alphas, alphas_avg)
    assert len(alphas) == 1 and abs(alphas[0]) > 1.0
    for band, message in (([1.0, 2.0, 3.0, 4.0], "shape (4,)"),
                          (np.full((3, 3), 1.0), "shape (3, 3)"),
                          # its average 3 + 1.5 cos(2t) would factor
                          ([1.0, 0.0, 3.0, 0.0, 0.5], "not hermitian")):
        with pytest.raises(ValueError, match=re.escape(message)):
            fejer_riesz_factor(band)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("band,entry", [
    ([NAN], "d_0 is (nan+0j)"),
    ([NAN, 3.0, NAN], "d_-1 is (nan+0j)"),
    ([1.0, INF, 1.0], "d_0 is (inf+0j)"),
    ([INF], "d_0 is (inf+0j)"),
    ([1.0, 2.5, complex(1.0, NAN)], "d_1 is (1+nanj)"),
    # a non-finite entry is named before the sides are compared
    ([-INF, 2.5, 1.0], "d_-1 is (-inf+0j)"),
], ids=str)
def test_fejer_riesz_refuses_non_finite_band(band, entry):
    with pytest.raises(ValueError, match=re.escape(f"band entry {entry}, not finite")):
        fejer_riesz_factor(band)


@given(st.lists(st.tuples(st.floats(min_value=-2, max_value=2),
                          st.floats(min_value=-2, max_value=2)),
                min_size=1, max_size=5))
@settings(deadline=None, max_examples=60)
def test_laurent_values_real_and_match_direct_sum(pairs):
    upper = np.array([complex(re, im) for re, im in pairs])
    upper[0] = upper[0].real
    zs = np.exp(1j * np.linspace(0, 2 * np.pi, 37, endpoint=False))
    k = len(upper) - 1
    full = np.concatenate([np.conj(upper[:0:-1]), upper])
    direct = sum(full[k + m] * zs ** m for m in range(-k, k + 1))
    scale = max(1.0, float(np.abs(direct).max()))
    assert np.abs(direct.imag).max() <= 1e-12 * scale
    got = polyrat._band_on_circle(upper, zs)
    assert got.dtype == float
    assert np.abs(got - direct.real).max() <= 1e-12 * scale


# --------------------------------------------------------- spectral factors


def _band_of_abs_squared(h: np.ndarray) -> np.ndarray:
    """Full Laurent band of |h(z)|^2 on the circle, built by convolution."""
    return np.convolve(h, np.conj(h)[::-1])


def test_fejer_riesz_recovers_known_factor():
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg = int(rng.integers(1, 4))
        # roots kept at least 0.3 away from the circle so sampling sees
        # a healthy positive minimum
        inner = 0.7 * rng.uniform(0.1, 1.0, size=deg // 2) * np.exp(
            2j * np.pi * rng.uniform(size=deg // 2))
        outer = rng.uniform(1.3, 2.5, size=deg - deg // 2) * np.exp(
            2j * np.pi * rng.uniform(size=deg - deg // 2))
        lead = complex(rng.normal(), rng.normal()) + 1.5
        h = lead * from_roots(np.concatenate([inner, outer]))
        band = _band_of_abs_squared(h)
        gamma, alphas = fejer_riesz_factor(band)
        assert gamma > 0
        assert all(abs(a) > 1.0 for a in alphas)
        expected = sorted(
            list(outer) + [1.0 / complex(w).conjugate() for w in inner],
            key=lambda r: (np.angle(r), abs(r)))
        assert len(alphas) == len(expected)
        assert max(abs(a - e) for a, e in zip(alphas, expected)) <= 1e-6
        zs = np.exp(1j * np.linspace(0, 2 * np.pi, 256, endpoint=False))
        recon = gamma * np.prod(
            np.abs(zs[:, None] - np.asarray(alphas)[None, :]) ** 2, axis=1)
        target = np.abs(npoly.polyval(zs, h)) ** 2
        assert np.abs(recon - target).max() <= 1e-8 * target.max()


def test_fejer_riesz_bandwidth_zero():
    gamma, alphas = fejer_riesz_factor([2.5])
    assert gamma == 2.5 and alphas.shape == (0,) and alphas.dtype == complex


def test_fejer_riesz_rejects_sign_changes():
    with pytest.raises(NotPositiveOnCircleError):
        fejer_riesz_factor([1.0, 0.0, 1.0])  # 2 cos(t)
    with pytest.raises(NotPositiveOnCircleError):
        fejer_riesz_factor([-1.0])


def test_fejer_riesz_names_the_relative_gate(monkeypatch):
    # 2 + 2e-12 + 2 cos(t) is positive but dips to about 5e-13 of its
    # maximum, below the relative gate
    monkeypatch.setattr(polyrat, "POSITIVITY_SAMPLES", 4)
    with pytest.raises(NotPositiveOnCircleError) as err:
        fejer_riesz_factor([1.0, 2.0 + 2e-12, 1.0])
    message = str(err.value)
    assert "relative sampling gate" in message and "1e-10" in message
    assert "min/max of 4 circle samples is 5.000e-13" in message


def test_fejer_riesz_rejects_root_hiding_between_samples():
    # root just off the circle, angularly between two sample points, so the
    # positivity sampling misses the dip and the root gate must catch it
    w = (1.0 + 1e-9) * cmath.exp(1j * np.pi / 4096)
    assert abs(abs(w) - 1.0) < CIRCLE_ROOT_TOL
    band = [-w, 1.0 + abs(w) ** 2, -w.conjugate()]
    with pytest.raises(RootOnCircleError):
        fejer_riesz_factor(band)
