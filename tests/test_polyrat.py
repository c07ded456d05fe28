"""Polynomials, partial fractions, hermitian Laurent bands, spectral factors."""

import cmath
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from cauchydual import polyrat
from cauchydual.polyrat import (
    CIRCLE,
    CIRCLE_ROOT_TOL,
    RESIDUAL_STRIDE,
    DegreeZeroError,
    NotPositiveOnCircleError,
    RootOnCircleError,
    _horner,
    check_at_most,
    fejer_riesz_factor,
    from_roots,
    lagrange_denominators,
    poly_roots,
)
from cauchydual.symbolpipe import CircleMeasure, boundary_polynomial

from conftest import pool_like_measures
from polyrat_oracle import (
    DegreeTooLargeError,
    PolesNotDistinctError,
    band_on_circle,
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
    # one module array; the residual and Schur grid is a view of it
    for stride in (RESIDUAL_STRIDE, 1):
        zs = CIRCLE[::stride]
        n = 4096 // stride
        assert zs.base is CIRCLE and not zs.flags.writeable
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


def test_poly_roots_degree_one_is_the_quotient():
    # the 1x1 companion matrix [-c0/c1] gives the quotient itself, with
    # components over 16 decades and some exactly 0 (signed zeros aside)
    rng = np.random.default_rng(83)
    draws = rng.normal(size=(4000, 4)) * 10.0 ** rng.uniform(-8, 8, (4000, 4))
    draws[rng.random(draws.shape) < 0.2] = 0.0
    checked = 0
    for cs in draws.view(complex):
        if cs[1] == 0:
            continue
        roots = poly_roots(cs)
        assert roots.shape == (1,) and roots[0] == -cs[0] / cs[1]
        checked += 1
    assert checked > 3800


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
        with pytest.raises(ValueError, match="hermitian band side gap check"):
            fejer_riesz_factor(band)


def test_fejer_riesz_drops_zero_outer_pairs():
    padded = fejer_riesz_factor([0.0, 1.0, 2.5, 1.0, 0.0])
    bare = fejer_riesz_factor([1.0, 2.5, 1.0])
    assert padded[0] == bare[0] and np.array_equal(padded[1], bare[1])
    assert np.array_equal(padded[2], bare[2])
    assert len(bare[1]) == 1 and len(bare[2]) == 2
    gamma, alphas, q = fejer_riesz_factor([0.0, 0.0, 2.5, 0.0, 0.0])
    assert gamma == 2.5 and alphas.shape == (0,) and alphas.dtype == complex
    assert np.array_equal(q, [1.0]) and q.dtype == complex


def test_laurent_from_full_averages_and_gates():
    # one side off by 1e-12: within tolerance, factored as the average
    near = np.array([0.5 + 0.5j + 1e-12, 2.5, 0.5 - 0.5j])
    average = 0.5 * (near + np.conj(near[::-1]))
    assert not np.array_equal(near, average)
    gamma, alphas, q = fejer_riesz_factor(near)
    gamma_avg, alphas_avg, q_avg = fejer_riesz_factor(average)
    assert gamma == gamma_avg and np.array_equal(alphas, alphas_avg)
    assert np.array_equal(q, q_avg)
    assert len(alphas) == 1 and abs(alphas[0]) > 1.0
    for band, message in (([1.0, 2.0, 3.0, 4.0], "shape (4,)"),
                          (np.full((3, 3), 1.0), "shape (3, 3)"),
                          # its average 3 + 1.5 cos(2t) would factor
                          ([1.0, 0.0, 3.0, 0.0, 0.5],
                           "hermitian band side gap check: 0.5 is not <= 3e-09")):
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


@pytest.mark.parametrize("value,bound,shown", [
    (2.0, 1.0, "2 is not <= 1"),
    # `value > bound` passes a NaN on either side; the check fails it
    (NAN, 1.0, "nan is not <= 1"),
    (0.5, NAN, "0.5 is not <= nan"),
    (NAN, NAN, "nan is not <= nan"),
    # a Schur row norm 4e-7 above 1, against the bound 1 + 1e-8
    (1.0000004, 1.0 + 1e-8, "1.0000004 is not <= 1.00000001"),
])
def test_check_at_most_fails_nan_and_names_value_and_bound(value, bound, shown):
    check_at_most(1.0, 1.0, "toy gap", RootOnCircleError)
    with pytest.raises(RootOnCircleError, match=re.escape(f"toy gap check: {shown}") + "$"):
        check_at_most(value, bound, "toy gap", RootOnCircleError)
    # a name with arguments, as the root gate names its root
    check_at_most(1.0, 1.0, "gap of root {}", RootOnCircleError, 2j)
    with pytest.raises(RootOnCircleError, match=re.escape(f"gap of root 2j check: {shown}")):
        check_at_most(value, bound, "gap of root {}", RootOnCircleError, 2j)


def test_fejer_riesz_rejects_nan_circle_samples(monkeypatch):
    # NaN samples passed every `<=` floor and the residual gate and came
    # out as a NaN gamma; the positivity floor now stops them
    monkeypatch.setattr(polyrat, "_band_on_circle", lambda upper, z: np.full(len(z), NAN))
    with pytest.raises(NotPositiveOnCircleError,
                       match=re.escape("largest circle sample check: nan is not > 0") + "$"):
        fejer_riesz_factor([1.0, 2.5, 1.0])


def test_fejer_riesz_names_a_factor_constant_that_is_not_positive(monkeypatch):
    # roots at 1e200 and its mirror 1e-200 pass the root gate and the
    # split check, and |1 - alpha|^2 overflows, so gamma = R(1) / inf is 0
    monkeypatch.setattr(polyrat, "poly_roots",
                        lambda coeffs: np.array([1e-200, 1e200], dtype=complex))
    with np.errstate(over="ignore"), pytest.raises(
            NotPositiveOnCircleError,
            match=re.escape("factor constant gamma check: 0 is not > 0") + "$"):
        fejer_riesz_factor([1.0, 2.5, 1.0])


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


def _positive_bands(seed: int, per_degree: int) -> list:
    """Full bands |h|^2 of per_degree random complex h of each degree 1..20."""
    rng = np.random.default_rng(seed)
    hs = [rng.normal(size=(d + 1, 2)) @ [1.0, 1.0j]
          for d in range(1, 21) for _ in range(per_degree)]
    return [np.convolve(h, np.conj(h)[::-1]) for h in hs]


def test_band_samples_equal_the_loop_oracle(monkeypatch):
    # fejer_riesz_factor samples the band once, at the positivity points;
    # the samples, and sample 0 as R(1), are the old loop's to the last bit
    zs = CIRCLE
    assert zs[0] == 1.0 + 0.0j
    assert np.array_equal(zs[::RESIDUAL_STRIDE], np.exp(
        1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)))
    calls, sample = [], polyrat._band_on_circle

    def spy(upper, z):
        calls.append((upper, z, sample(upper, z)))
        return calls[-1][2]

    monkeypatch.setattr(polyrat, "_band_on_circle", spy)
    bands = [boundary_polynomial(mu) for mu in pool_like_measures(89, 16)]
    bands += _positive_bands(91, 50)
    for band in bands:
        calls.clear()
        gamma, alphas, _ = fejer_riesz_factor(band)
        assert len(calls) == 1
        upper, z, vals = calls[0]
        assert z is zs
        assert np.array_equal(vals, band_on_circle(upper, zs))
        r1 = band_on_circle(upper, 1.0 + 0.0j)
        assert vals[0] == r1
        assert gamma == float(r1) / float(np.prod(np.abs(1.0 - alphas) ** 2))
    assert len(bands) == 128 + 1000


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
        gamma, alphas, _ = fejer_riesz_factor(band)
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
    gamma, alphas, q = fejer_riesz_factor([2.5])
    assert gamma == 2.5 and alphas.shape == (0,) and alphas.dtype == complex
    assert np.array_equal(q, from_roots(alphas)) and q.shape == (1,)


def test_fejer_riesz_rejects_sign_changes():
    with pytest.raises(NotPositiveOnCircleError):
        fejer_riesz_factor([1.0, 0.0, 1.0])  # 2 cos(t)
    with pytest.raises(NotPositiveOnCircleError):
        fejer_riesz_factor([-1.0])


def test_fejer_riesz_names_the_relative_gate(monkeypatch):
    # 2 + 2e-12 + 2 cos(t) is positive but dips to about 5e-13 of its
    # maximum, below the relative gate, on the 4 points 1, i, -1, -i
    # (min 2e-12 against a floor of 1e-10 x max 4)
    monkeypatch.setattr(polyrat, "CIRCLE", CIRCLE[::1024])
    with pytest.raises(NotPositiveOnCircleError,
                       match=r"smallest circle sample vs 1e-10 x largest check: "
                             r"2\.000\d*e-12 is not > 4e-10$"):
        fejer_riesz_factor([1.0, 2.0 + 2e-12, 1.0])


def test_fejer_riesz_rejects_root_hiding_between_samples():
    # root just off the circle, angularly between two sample points, so the
    # positivity sampling misses the dip and the root gate must catch it
    w = (1.0 + 1e-9) * cmath.exp(1j * np.pi / 4096)
    assert abs(abs(w) - 1.0) < CIRCLE_ROOT_TOL
    band = [-w, 1.0 + abs(w) ** 2, -w.conjugate()]
    with pytest.raises(RootOnCircleError,
                       match=r"distance to the circle of root \S+ check: \S+ is not > 1e-07$"):
        fejer_riesz_factor(band)


def _move_first_inner_root(move):
    roots_of = polyrat.poly_roots

    def moved(coeffs):
        roots = roots_of(coeffs).copy()
        i = int(np.flatnonzero(np.abs(roots) < 1.0)[0])
        roots[i] = move(roots[i])
        return roots
    return moved


@pytest.mark.parametrize("move,pattern", [
    # off its mirror by 1e-5 of its modulus: no returned value reads an
    # inner root, so the factor comes out bit for bit the same
    pytest.param(lambda w: w * (1.0 + 1e-5), None, id="inner-root-moved"),
    # reflected outside: the split is uneven
    (lambda w: 1.0 / np.conj(w),
     r"expected 3 roots on each side of the circle, got 4 outside and 2 inside$"),
])
def test_fejer_riesz_root_gates_fire(move, pattern, monkeypatch):
    band = boundary_polynomial(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))
    unpatched = fejer_riesz_factor(band)
    monkeypatch.setattr(polyrat, "poly_roots", _move_first_inner_root(move))
    if pattern is None:
        gamma, alphas, q = fejer_riesz_factor(band)
        assert gamma == unpatched[0]
        assert alphas.tobytes() == unpatched[1].tobytes()
        assert q.tobytes() == unpatched[2].tobytes()
        return
    with pytest.raises(RootOnCircleError, match=pattern):
        fejer_riesz_factor(band)


def test_fejer_riesz_residual_gate_fires(monkeypatch):
    # no pool-like band trips the residual gate
    bands = [boundary_polynomial(mu) for mu in pool_like_measures(73, 16)]
    for band in bands:
        fejer_riesz_factor(band)
    roots_of = polyrat.poly_roots

    def shift_outer(coeffs, with_mirror):
        roots = roots_of(coeffs).copy()
        j = int(np.flatnonzero(np.abs(roots) > 1.0)[0])
        i = int(np.argmin(np.abs(roots - 1.0 / np.conj(roots[j]))))
        roots[j] *= 1.0 + 1e-5
        if with_mirror:
            roots[i] = 1.0 / np.conj(roots[j])
        return roots

    # one outer root w moves to w (1 + 1e-5), alone or with its mirror:
    # the pole is off, and the coefficients of gamma |q|^2 miss R's
    for with_mirror in (False, True):
        monkeypatch.setattr(polyrat, "poly_roots",
                            lambda coeffs, m=with_mirror: shift_outer(coeffs, m))
        for band in bands[::16]:
            with pytest.raises(RuntimeError, match=r"factorization residual check: \S+ is not "
                                                     r"<= \S+$"):
                fejer_riesz_factor(band)


def _rings_and_close_pairs() -> list:
    """Equally spaced rings of k = 3..18 atoms at weight 1 each, total
    mass 0.1 and total mass 1; atoms 0.05 apart with weights 1:1, 1:3 and
    1:100; the near-antipodal pairs at 0 and pi - eps, weights 1 and 3."""
    rings = [CircleMeasure(tuple(2.0 * cmath.pi * j / k for j in range(k)), (w,) * k)
             for k in range(3, 19) for w in (1.0, 0.1 / k, 1.0 / k)]
    pairs = [CircleMeasure((0.0, 0.05), (1.0, w)) for w in (1.0, 3.0, 100.0)]
    antipodal = [CircleMeasure((0.0, cmath.pi - eps), (1.0, 3.0))
                 for eps in (1e-6, 1e-7, 3e-8, 1e-8, 1e-9)]
    return rings + pairs + antipodal


def test_coefficient_residual_bounds_the_sampled_one():
    # the residual gate compares gamma q(z) z^k conj(q(1/conj z)) with
    # z^k R(z) coefficient by coefficient; its l1 gap bounds the gap on
    # the whole circle, so it is never below the product form's gap on
    # every RESIDUAL_STRIDE-th CIRCLE point, the gate it replaced, up to
    # that oracle's own rounding of about one unit roundoff per factor
    eps = np.finfo(float).eps
    measures = pool_like_measures(73, 16) + _rings_and_close_pairs()
    checked = 0
    for mu in measures:
        band = boundary_polynomial(mu)
        try:
            gamma, alphas, q = fejer_riesz_factor(band)
        except ValueError as err:
            # only a ring too ill-conditioned to be hermitian within tolerance
            assert "hermitian band side gap check" in str(err)
            continue
        assert np.array_equal(q, from_roots(alphas))
        mid = len(band) // 2
        upper = 0.5 * (band[mid:] + np.conj(band[mid::-1]))
        k = len(alphas)
        assert len(upper) == k + 1
        vals = band_on_circle(upper, CIRCLE)
        vmax = float(vals.max())
        zs = CIRCLE[::RESIDUAL_STRIDE]
        recon = gamma * np.prod(np.abs(zs[:, None] - alphas) ** 2, axis=1)
        sampled = float(np.abs(recon - vals[::RESIDUAL_STRIDE]).max())
        trimmed = np.concatenate([np.conj(upper[:0:-1]), upper])
        l1 = float(np.abs(gamma * np.convolve(q, np.conj(q[::-1])) - trimmed).sum())
        assert l1 >= sampled - (2 * k + 2) * eps * vmax
        assert max(l1, sampled) <= 1e-8 * vmax
        checked += 1
    assert checked == len(measures) - 1
