"""Certificate battery: orthogonality, truncated positivity, moment checks."""

import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from cauchydual import certify, cli, kernels, symbolpipe
from cauchydual.certify import (
    TOL_PSD,
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    CertificateConfig,
    InsufficientRowsError,
    LevelStat,
    agler_pole_test,
    agler_taylor_test,
    necessary_measure_test,
    orthogonality_test,
    representing_measure,
    run_certificates,
)
from cauchydual.polyrat import CIRCLE, RESIDUAL_STRIDE, _horner
from cauchydual.symbolpipe import (
    CircleMeasure,
    RationalSymbol,
    closed_form_antipodal,
    measure_to_symbol,
    single_atom_symbol,
    symbol_from_parts,
)

import necessary_oracle
from agler_oracle import agler_pole_matrix, agler_taylor_matrix, oracle_stats
from conftest import (FIXTURE_NAMES, FIXTURES, load_fixture_symbol,
                      pairing_of, pool_like_measures, taylor_of)
from monotone_oracle import (
    InsufficientLengthError,
    completely_monotone_test,
    gamma_moments,
    monotone_passed,
)
from rank1_oracle import mate_rank1
from symbol_oracle import rotate_measure

CFG = CertificateConfig()
SQ2 = math.sqrt(2.0)


def _re_im(z):
    return z.real, z.imag


def make_refuter():
    return symbol_from_parts([2.0, 1.5j], [[0.0, 0.3], [0.0, 0.0, 0.3]])


def make_six_equal_atoms():
    return measure_to_symbol(CircleMeasure(tuple(np.arange(6.0)), (1.0,) * 6))


def _fixtures_and_seeded_batch(seed, draws):
    """The five fixture symbols, then the pipeline's symbols for `draws`
    random measures: k <= 6 atoms at gaps >= 0.05, weights log-uniform in
    [0.1, 5]."""
    symbols = [load_fixture_symbol(name) for name in FIXTURE_NAMES]
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        k = int(rng.integers(1, 7))
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k > 1 and gaps.min() < 0.05:
            continue
        weights = np.exp(rng.uniform(np.log(0.1), np.log(5.0), size=k))
        try:
            symbols.append(measure_to_symbol(
                CircleMeasure(tuple(thetas), tuple(weights))))
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
    return symbols


def _pole_engine(sym, cfg):
    """The pole engine's (stats, Q, cores) on sym's pole pairing."""
    return agler_pole_test(pairing_of(sym), cfg)


def make_orthogonal_pair(eps=0.0, s=0.25):
    """Two components interpolating orthogonal vectors at the poles; eps
    shifts one coefficient to dial in a small orthogonality defect."""
    a1, a2 = 2.0, 1.5j
    d1 = a1 * (a1 - a2)
    d2 = a2 * (a2 - a1)
    p1 = [0.0, -s * a2 / d1, s / d1 + eps]
    p2 = [0.0, -s * a1 / d2, s / d2]
    return symbol_from_parts([a1, a2], [p1, p2])


# ----------------------------------------------------------------- cross Gram


def test_cross_gram_matches_hand_loop():
    sym = make_refuter()
    got = pairing_of(sym).cross
    alphas = sym.alphas
    denoms = [alphas[0] - alphas[1], alphas[1] - alphas[0]]
    expected = np.empty((2, 2), dtype=complex)
    for r in range(2):
        for t in range(2):
            acc = 0.0 + 0.0j
            for p in sym.coefficients:
                acc += complex(npoly.polyval(alphas[r], p)) * complex(
                    npoly.polyval(alphas[t], p)).conjugate()
            expected[r, t] = acc / (denoms[r] * complex(denoms[t]).conjugate())
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_cross_gram_hermitian_and_psd():
    for sym in (make_refuter(), closed_form_antipodal(2.0, 0.7)):
        C = pairing_of(sym).cross
        assert np.abs(C - C.conj().T).max() <= 1e-13 * np.abs(C).max()
        assert np.linalg.eigvalsh(C).min() >= -1e-12 * np.abs(C).max()


def test_numerators_at_poles_equal_scalar_horner():
    # the one pass over the padded matrix gives, bit for bit, each numerator
    # without its zeros above the degree evaluated at each pole alone (a 0-d
    # array, so numpy's array multiply runs, not its scalar one)
    symbols = _fixtures_and_seeded_batch(59, 60) + [make_refuter()]
    for sym in symbols:
        scalar = np.array([[_horner(np.trim_zeros(p, "b"), np.asarray(a))
                            for a in sym.alphas]
                           for p in sym.coefficients], dtype=complex)
        values = pairing_of(sym).values
        assert np.array_equal(values, scalar)
        want = np.array([npoly.polyval(np.array(sym.alphas), p)
                         for p in sym.coefficients])
        assert np.abs(values - want).max() <= 1e-13 * max(
            1.0, np.abs(want).max())
    assert len(symbols) >= 50


def test_certificates_evaluate_numerators_once(monkeypatch):
    # one run_certificates call evaluates the numerators at the poles once:
    # one Horner pass whose points are the poles and whose result holds
    # every numerator at every pole
    sym = measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))
    poles = np.asarray(sym.alphas, dtype=complex)
    at_poles = []
    horner = certify._horner

    def counting(coeffs, z):
        vals = horner(coeffs, z)
        if np.shape(z) == poles.shape and np.array_equal(z, poles):
            at_poles.append(vals.shape)
        return vals

    monkeypatch.setattr(certify, "_horner", counting)
    run_certificates(sym)
    assert at_poles == [(sym.k, sym.k)]


def test_certificates_build_pole_tables_once(monkeypatch):
    # the Lagrange denominators and the pole products are tables of the
    # pole pairing, built once per run: the cross Gram and the Taylor rows
    # read the same denominators, and the necessary measure groups the
    # pairing's products, so doubling them halves every location
    sym = measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))
    calls = []
    denominators = certify.lagrange_denominators

    def counting(poles):
        calls.append(len(poles))
        return denominators(poles)

    monkeypatch.setattr(certify, "lagrange_denominators", counting)
    run_certificates(sym)
    pairing = run_certificates(sym, CertificateConfig(levels=3, trunc=10)).pairing
    assert calls == [sym.k, sym.k]
    doubled = dataclasses.replace(pairing, products=2.0 * pairing.products)
    atoms = [necessary_measure_test(p)[0].locations.tolist() for p in (pairing, doubled)]
    assert sorted(atoms[1], key=_re_im) == sorted((x / 2.0 for x in atoms[0]), key=_re_im)


def _random_unitary(rng, m):
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def test_certificates_depend_on_numerators_only_through_the_pairing():
    # a unitary U mixes the numerators but keeps pair = conj(E^H E), so the
    # outcome stays and the numbers move only by rounding
    rng = np.random.default_rng(83)
    checked = 0
    for mu in pool_like_measures(89, 16):
        try:
            sym = measure_to_symbol(mu)
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
        U = _random_unitary(rng, len(sym.coefficients))
        mixed = RationalSymbol(sym.alphas, U @ sym.coefficients)
        want, got = run_certificates(sym), run_certificates(mixed)
        for field in ("verdict", "certified_by", "refuted_by", "refuted_level",
                      "orth_passed", "necessary_passed", "agler_passed",
                      "exactness"):
            assert getattr(got, field) == getattr(want, field), field
        for a, b in zip(want.agler_pole + want.agler_taylor,
                        got.agler_pole + got.agler_taylor):
            scale = 1e-9 * max(a.norm, 1e-300)
            assert abs(a.min_eig - b.min_eig) <= scale
            assert abs(a.norm - b.norm) <= scale
            assert abs(a.gap - b.gap) <= scale
        pair = want.pairing.pair
        assert np.abs(got.pairing.pair - pair).max() <= 1e-9 * np.abs(pair).max()
        checked += 1
    assert checked >= 120


def test_schur_check_stays_on_the_monomials():
    # poles 1e-6 apart: sum_j |b_j|^2 read from the pairing,
    # sum_{r,t} h_r pair[r, t] conj(h_t) with h_r = z / (a_r alpha_r (z - alpha_r)),
    # cancels digits and is off by about 1e-4, past the 1e-8 Schur
    # tolerance; Horner on the coefficients admits the symbol at its bound
    alphas = np.array([2.0, 2.0 + 1e-6], dtype=complex)
    zs = CIRCLE[::RESIDUAL_STRIDE]
    p = np.array([0.0, -3.0, 1.0], dtype=complex)

    def horner_max(coeffs):
        q = _horner(np.array([alphas[0] * alphas[1], -alphas.sum(), 1.0]), zs)
        return float((np.abs(_horner(coeffs, zs)) ** 2 / np.abs(q) ** 2).max())

    sym = symbol_from_parts(alphas, [math.sqrt(0.9 / horner_max(p)) * p])
    assert abs(horner_max(sym.coefficients[0]) - 0.9) <= 1e-12
    pairing = pairing_of(sym)
    h = zs[:, None] / (pairing.a * alphas * (zs[:, None] - alphas))
    pole_form = np.einsum("zr,rt,zt->z", h, pairing.pair, h.conj()).real
    horner = np.abs(_horner(sym.coefficients[0], zs) / _horner(sym.q, zs)) ** 2
    assert np.abs(pole_form - horner).max() > 1e-8


# -------------------------------------------------------------- orthogonality


def test_orthogonality_antipodal_passes():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c1, c2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        sym = closed_form_antipodal(c1, c2)
        residual, passed = orthogonality_test(pairing_of(sym))
        assert passed and residual <= 1e-9


def test_orthogonality_refuter_value():
    residual, passed = orthogonality_test(pairing_of(make_refuter()))
    assert not passed
    assert abs(residual - 0.4743) <= 1e-3


def test_orthogonality_vacuous_for_single_pole():
    # and for the empty symbol: no off-diagonal pairing to measure
    for sym in (single_atom_symbol(1.0), symbol_from_parts((), ())):
        residual, passed = orthogonality_test(pairing_of(sym))
        assert passed and residual == 0.0


# -------------------------------------------------------------- Agler engines


def test_engine_equivalence_spot_checks():
    for sym in (closed_form_antipodal(1.0, 1.0), make_refuter()):
        cross = pairing_of(sym).cross
        taylor = taylor_of(sym, 20 + 12)
        for level in (1, 5, 12):
            A = agler_pole_matrix(sym, cross, level, 20)
            B = agler_taylor_matrix(taylor, level, 20)
            scale = max(1.0, float(np.abs(A).max()))
            assert np.abs(A - B).max() <= 1e-10 * scale


def test_certified_cases_pass_both_engines():
    for sym in (closed_form_antipodal(1.0, 1.0),
                closed_form_antipodal(4.0, 1.0),
                single_atom_symbol(1.0),
                make_orthogonal_pair()):
        rep = run_certificates(sym)
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.certified_by == "orthogonality"
        assert rep.agler_passed
        for st in rep.agler_pole + rep.agler_taylor:
            assert st.min_eig >= -TOL_PSD * max(st.norm, 1e-300)
        assert monotone_passed(sym, CFG)
        assert rep.exit_code == 0


def test_insufficient_rows_for_taylor_engine():
    sym = make_refuter()
    taylor = taylor_of(sym, 15)
    too_deep = CertificateConfig(levels=6, trunc=10)
    fits = CertificateConfig(levels=5, trunc=10)
    with pytest.raises(InsufficientRowsError):
        agler_taylor_test(taylor, *_pole_engine(sym, too_deep)[1:], too_deep)
    stats, _ = agler_taylor_test(taylor, *_pole_engine(sym, fits)[1:], fits)
    assert len(stats) == 5


def test_engines_match_oracle_eigvalsh():
    six = make_six_equal_atoms()
    cases = [(sym, CFG) for sym in _fixtures_and_seeded_batch(31, 30)]
    cases += [(symbol_from_parts([], []), CFG),
              (six, CertificateConfig(levels=5, trunc=3)),
              (six, CertificateConfig(levels=5, trunc=6)),
              (make_refuter(), CertificateConfig(levels=8, trunc=2))]
    assert len(cases) >= 25
    for sym, cfg in cases:
        cross = pairing_of(sym).cross
        taylor = taylor_of(sym, cfg.trunc + cfg.levels)
        pole_stats, Q, cores = _pole_engine(sym, cfg)
        for got, want, tol in (
                (pole_stats, oracle_stats(
                    lambda l, n: agler_pole_matrix(sym, cross, l, n), cfg), 1e-12),
                (agler_taylor_test(taylor, Q, cores, cfg)[0], oracle_stats(
                    lambda l, n: agler_taylor_matrix(taylor, l, n), cfg), 1e-10)):
            assert [st.level for st in got] == list(range(1, cfg.levels + 1))
            for st, ref in zip(got, want):
                assert abs(st.min_eig - ref.min_eig) <= tol * ref.norm
                assert abs(st.norm - ref.norm) <= tol * ref.norm


def test_pole_engine_eigensolves_at_rank(monkeypatch):
    # both engines: one batched eigvalsh call, no matrix side above min(k, N)
    sides, calls = [], []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shape = np.shape(a)
        calls.append(shape)
        sides.extend([shape[-2:]] * math.prod(shape[:-2]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    six = make_six_equal_atoms()
    for sym in (make_refuter(), single_atom_symbol(1.0), six,
                symbol_from_parts([], [])):
        for trunc in (2, 3, 40, 200):
            cfg = CertificateConfig(levels=7, trunc=trunc)
            pairing = pairing_of(sym)
            _, Q, cores = agler_pole_test(pairing, cfg)
            taylor = taylor_of(sym, trunc + 7)
            for engine in (lambda: agler_pole_test(pairing, cfg),
                           lambda: agler_taylor_test(taylor, Q, cores, cfg)):
                sides.clear()
                calls.clear()
                engine()
                side = min(sym.k, trunc)
                assert sides == ([(side, side)] * 7 if side else [])
                assert len(calls) == (1 if side else 0)


def test_taylor_engine_builds_no_n_by_n_array():
    # at N = 2000 one N x N complex array is 64 MB; the windows and their
    # projection are N x (L + 1) k, under 1 MB for the refuter's k = 2
    cfg = CertificateConfig(levels=12, trunc=2000)
    sym = make_refuter()
    _, Q, cores = _pole_engine(sym, cfg)
    taylor = taylor_of(sym, cfg.trunc + cfg.levels)
    tracemalloc.start()
    try:
        agler_taylor_test(taylor, Q, cores, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_taylor_residual_and_gap_match_oracle_matrix():
    # rows with a part outside the pole basis: the basis residual is that
    # of the windows A = [A_0 ... A_L] built here, ||A - Q Q^H A|| / ||A||,
    # and the gap is that of the oracle's N x N matrix M, ||Q^H M Q - core||_F
    rng = np.random.default_rng(44)
    cfg = CertificateConfig(levels=6, trunc=12)
    for sym in (make_refuter(), make_six_equal_atoms(),
                closed_form_antipodal(1.0, 1.0)):
        _, Q, cores = _pole_engine(sym, cfg)
        rows = taylor_of(sym, cfg.trunc + cfg.levels)
        re, im = 1e-3 * np.abs(rows).max() * rng.standard_normal((2,) + rows.shape)
        taylor = rows + re + 1j * im
        A = np.hstack([taylor[j:j + cfg.trunc] for j in range(cfg.levels + 1)])
        residual = (np.linalg.norm(A - Q @ Q.conj().T @ A)
                    / np.linalg.norm(A))
        stats, got = agler_taylor_test(taylor, Q, cores, cfg)
        assert residual > 1e-4
        assert abs(got - residual) <= 1e-10 * residual
        for st in stats:
            M = agler_taylor_matrix(taylor, st.level, cfg.trunc)
            P = Q.conj().T @ M @ Q
            gap = np.linalg.norm(P - cores[st.level - 1])
            assert abs(st.gap - gap) <= 1e-10 * gap


def test_level_passes_needs_small_gap():
    tol = TOL_PSD
    assert LevelStat(1, -0.5 * tol, 1.0, 0.5 * tol).passes()
    assert LevelStat(1, 0.0, 0.0).passes()
    assert not LevelStat(1, -2.0 * tol, 1.0).passes()
    assert not LevelStat(1, 0.0, 1.0, gap=2.0 * tol).passes()


def test_taylor_drift_keeps_agler_from_passing():
    # antipodal_1_1 at L=80: every eigenvalue passes, but rounding in the
    # alternating sums moved the Taylor levels from the pole cores by more
    # than TOL_PSD, so the levels cannot vouch for positivity;
    # orthogonality still certifies
    cfg = CertificateConfig(levels=80, trunc=40)
    rep = run_certificates(load_fixture_symbol("antipodal_1_1"), cfg)
    bound = [TOL_PSD * st.norm for st in rep.agler_taylor]
    assert all(st.min_eig >= -TOL_PSD * st.norm
               for st in rep.agler_pole + rep.agler_taylor)
    assert any(st.gap > b for st, b in zip(rep.agler_taylor, bound))
    assert not rep.agler_passed
    assert (rep.verdict, rep.certified_by) == (VERDICT_CERTIFIED, "orthogonality")


def test_engine_gap_alone_keeps_agler_from_passing(monkeypatch):
    # Taylor rows of the same poles with the numerators scaled by 0.9 lie
    # in the pole basis (no basis residual) and have positive levels, but
    # they disagree with the pole cores
    original = kernels.symbol_taylor
    monkeypatch.setattr(kernels, "symbol_taylor",
                        lambda sym, pairing, n: 0.9 * original(sym, pairing, n))
    rep = run_certificates(single_atom_symbol(1.0))
    tol = TOL_PSD
    assert rep.taylor_basis_residual <= tol
    assert all(st.min_eig >= -tol * st.norm
               for st in rep.agler_pole + rep.agler_taylor)
    assert all(st.gap > tol * st.norm for st in rep.agler_taylor)
    assert not rep.agler_passed


def test_basis_residual_alone_keeps_agler_from_passing(monkeypatch):
    # every level of both engines passes, but windows that leave the pole
    # basis by more than TOL_PSD keep the Agler levels from passing
    sym = single_atom_symbol(1.0)
    assert run_certificates(sym).agler_passed
    tol = TOL_PSD
    engine = certify.agler_taylor_test
    monkeypatch.setattr(certify, "agler_taylor_test", lambda *args: (
        engine(*args)[0], 2.0 * tol))
    rep = run_certificates(sym)
    assert rep.taylor_basis_residual == 2.0 * tol
    assert all(st.passes() for st in rep.agler_pole + rep.agler_taylor)
    assert not rep.agler_passed


def test_run_certificates_leaves_qr_and_eigensolves_to_the_engines(monkeypatch):
    # with both engines stubbed by their own outputs, run_certificates
    # makes no QR and no eigvalsh call of its own
    cfg = CertificateConfig(levels=5, trunc=10)
    for sym in (make_refuter(), make_six_equal_atoms(), single_atom_symbol(1.0)):
        pole = _pole_engine(sym, cfg)
        taylor = agler_taylor_test(taylor_of(sym, cfg.trunc + cfg.levels),
                                   *pole[1:], cfg)
        want = run_certificates(sym, cfg)
        calls = []
        monkeypatch.setattr(certify, "agler_pole_test", lambda *args: pole)
        monkeypatch.setattr(certify, "agler_taylor_test", lambda *args: taylor)
        for name in ("qr", "eigvalsh"):
            def recording(*args, name=name, fn=getattr(np.linalg, name), **kw):
                calls.append(name)
                return fn(*args, **kw)
            monkeypatch.setattr(np.linalg, name, recording)
        rep = run_certificates(sym, cfg)
        monkeypatch.undo()
        assert calls == []
        assert (rep.agler_pole, rep.agler_taylor, rep.taylor_basis_residual) == (
            want.agler_pole, want.agler_taylor, want.taylor_basis_residual)


@pytest.mark.parametrize("alphas,numerator,table", [
    ([1e80, 2e80], [0.0, 1.0, 1.0], "Pi"),
    ([1e200, 2e200], [0.0, 1.0, 1.0], "E"),
    ([1e200], [0.0, 1e-200], "the pole products"),
    ([1e170], [0.0, 1e-100], "the pole products")])
def test_pole_pairing_refuses_non_finite_tables(alphas, numerator, table):
    # numerator z + z^2 at poles 1e80, 2e80: the values are finite but
    # their pairing overflows; at 1e200, 2e200 the values do. One far pole
    # under a tiny numerator keeps E, a, Pi and C finite while
    # alpha conj(alpha) overflows.
    with np.errstate(all="ignore"):
        sym = symbol_from_parts(alphas, [numerator])
        with pytest.raises(ValueError, match=f"^pole pairing: {table}, "):
            pairing_of(sym)


# ----------------------------------------------------------- verdict plumbing


def test_refuter_full_report():
    rep = run_certificates(make_refuter())
    assert rep.verdict == VERDICT_REFUTED
    assert rep.refuted_by == "necessary_measure"
    assert rep.refuted_level == 0
    assert rep.exit_code == 1
    assert not rep.orth_passed
    assert rep.exactness
    assert abs(rep.necessary.worst_violation - 0.219) <= 1e-2
    assert abs(rep.necessary.worst_location + 1j / 3.0) <= 1e-9
    # the truncated positivity tests independently cross the refutation
    # threshold for this symbol, on both engines
    thresh = -10.0 * TOL_PSD
    assert any(st.min_eig < thresh * max(st.norm, 1e-300) for st in rep.agler_pole)
    assert any(st.min_eig < thresh * max(st.norm, 1e-300) for st in rep.agler_taylor)
    assert not monotone_passed(make_refuter(), CFG)


def test_exactness_window_refutes_at_level_zero():
    # orthogonality defect large enough to fail its gate but too small to
    # move the necessary measure: the exactness condition must settle it
    rep = run_certificates(make_orthogonal_pair(eps=8e-10))
    assert rep.verdict == VERDICT_REFUTED
    assert rep.refuted_by == "orthogonality_exactness"
    assert rep.refuted_level == 0
    assert not rep.orth_passed
    assert rep.necessary_passed
    assert rep.exit_code == 1


@pytest.mark.parametrize("alphas, numerators", [
    ((2.0, 3.0), [[0.0, 0.5]]),
    ((2.0, -3.0), [[0.0, 0.5]]),
    ((2.0 + 1.0j, 2.0 - 1.0j), [[0.0, 0.5]]),
    ((2.0, -3.0), [[0.0, 0.3], [0.0, 0.1, 0.05], [0.0, 0.2, -0.1]]),
], ids=["one-over-2,3", "one-over-2,-3", "one-over-2+-i", "three-over-2,-3"])
def test_numerator_count_need_not_match_pole_count(alphas, numerators):
    # the paper's scalar case and a wider row: the battery runs unchanged on
    # an m x (k + 1) coefficient matrix, and the two engines agree
    sym = symbol_from_parts(alphas, numerators)
    assert (sym.k, len(sym.coefficients)) == (2, len(numerators))
    rep = run_certificates(sym)
    assert (rep.verdict, rep.refuted_by) == (VERDICT_REFUTED, "necessary_measure")
    assert rep.taylor.shape == (CFG.trunc + CFG.levels, len(numerators))
    for pole_st, taylor_st in zip(rep.agler_pole, rep.agler_taylor):
        gap = abs(pole_st.min_eig - taylor_st.min_eig)
        assert gap <= 1e-8 * max(pole_st.norm, 1e-300)


def _orth_residual_50_digits(sym) -> float:
    """max_{r != t} |p(alpha_r) conj(p(alpha_t))| / max_r |p(alpha_r)|^2 for
    a scalar symbol, with p evaluated at the poles at 50 digits."""
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(c) for c in sym.coefficients[0][::-1]]
        sizes = [abs(mpmath.polyval(coeffs, mpmath.mpc(a))) for a in sym.alphas]
        off = max(sizes[r] * sizes[t] for r in range(sym.k)
                  for t in range(sym.k) if r != t)
        return float(off / max(sizes) ** 2)


def test_scalar_symbols_with_distinct_pole_products_are_never_certified():
    # For scalar b = p/q the pairing is v v^H with v_r = p(alpha_r) != 0, so
    # when the off-diagonal pole products are pairwise distinct each
    # off-diagonal class block [[0, c], [conj(c), 0]] is indefinite: the
    # exactness condition holds, orthogonality fails, and b is refuted.
    rng = np.random.default_rng(2024)
    zs = CIRCLE[::RESIDUAL_STRIDE]
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(2, 5))
        alphas = rng.uniform(1.3, 4.0, k) * np.exp(2j * np.pi * rng.uniform(size=k))
        p = np.concatenate([[0.0], rng.standard_normal(k) + 1j * rng.standard_normal(k)])
        q = npoly.polyfromroots(alphas)
        schur = np.abs(npoly.polyval(zs, p) / npoly.polyval(zs, q))
        sym = symbol_from_parts(alphas, [0.9 * p / schur.max()])
        rep = run_certificates(sym)
        assert rep.exactness and not rep.orth_passed
        assert rep.verdict == VERDICT_REFUTED
        want = _orth_residual_50_digits(sym)
        worst = max(worst, abs(rep.orth_residual - want) / want)
    assert worst <= 1e-12


def test_inconclusive_fixture_report(inconclusive_symbol):
    rep = run_certificates(inconclusive_symbol)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.exit_code == 2
    assert not rep.orth_passed
    assert rep.necessary_passed
    assert not rep.exactness
    assert rep.agler_passed
    assert rep.refuted_by is None and rep.certified_by is None


def test_inconclusive_fixture_refutes_at_deep_truncation(inconclusive_symbol,
                                                         capsys):
    # The only verdict the Agler levels decide: at (N, L) = (40, 80) and
    # (120, 40) level 29 has min_eig -2.3238e-4 against a norm of
    # 2.9507e-3, far below -10 TOL_PSD ||M_29||, while (40, 12) stops short
    # of it. The pole engine is read first, so its numbers are the report's.
    for trunc, levels in ((40, 80), (120, 40)):
        rep = run_certificates(inconclusive_symbol, CertificateConfig(levels, trunc))
        assert rep.verdict == VERDICT_REFUTED and rep.exit_code == 1
        assert (rep.refuted_by, rep.refuted_level) == ("agler_truncation", 29)
        assert rep.certified_by is None and not rep.agler_passed
        level = rep.agler_pole[28]
        assert level.level == 29 and rep.refuted_min_eig == level.min_eig
        assert level.min_eig == pytest.approx(-2.3238e-4, rel=1e-4)
        assert level.norm == pytest.approx(2.9507e-3, rel=1e-4)
        # no earlier level of either engine refutes
        for st in rep.agler_pole[:28] + rep.agler_taylor[:28]:
            assert st.min_eig >= -10.0 * TOL_PSD * max(st.norm, 1e-300)
    rep = run_certificates(inconclusive_symbol, CertificateConfig(12, 40))
    assert rep.verdict == VERDICT_INCONCLUSIVE and rep.refuted_by is None
    path = str(FIXTURES / "inconclusive.json")
    assert cli.main(["--input", path, "--levels", "80"]) == 1
    assert "RefutedAtLevel" in capsys.readouterr().out


def test_zero_symbol_certified():
    rep = run_certificates(symbol_from_parts([], []))
    assert rep.verdict == VERDICT_CERTIFIED
    assert rep.exit_code == 0


def test_empty_measure_is_the_zero_symbol():
    built = measure_to_symbol(CircleMeasure())
    zero = symbol_from_parts((), ())
    for sym in (built, zero):
        assert sym.k == 0 and sym.alphas.shape == (0,)
        assert sym.coefficients.shape == (0, 1)
        assert np.array_equal(sym.q, [1.0])
        # the empty product of pole moduli: gamma_fr is derived, never None
        assert sym.gamma_fr == 1.0
    rep = run_certificates(built)
    assert (rep.verdict, rep.certified_by) == (VERDICT_CERTIFIED, "orthogonality")
    zeros = tuple(LevelStat(l, 0.0, 0.0) for l in range(1, CFG.levels + 1))
    assert rep.agler_pole == zeros and rep.agler_taylor == zeros
    assert rep.taylor.shape == (CFG.trunc + CFG.levels, 0)
    assert rep.necessary.locations.shape == rep.necessary.weights.shape == (0,)
    assert not rep.exactness


def test_rotated_certified_family_stays_certified():
    rng = np.random.default_rng(14)
    for _ in range(6):
        c1, c2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        mu = rotate_measure(CircleMeasure((0.0, np.pi), (c1, c2)),
                            cmath.exp(1j * phase))
        sym = measure_to_symbol(mu)
        rep = run_certificates(sym)
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.agler_passed and monotone_passed(sym, CFG)


# The paper's application: mu with atoms at 0 and theta, weights 1 and w.
# Antipodal support certifies for every weight; every other two-point
# measure the pipeline builds is refuted by the necessary measure.
TWO_POINT_THETAS = [*np.linspace(0.05, math.pi - 0.05, 16).tolist(), math.pi]
TWO_POINT_WEIGHTS = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 20.0]
# valid measures near a double atom that the pipeline loses to rounding
TWO_POINT_LOST = {
    (0.05, 0.05): (ValueError, "Schur row norm check: 1.0000004 is not <= "
                               "1.00000001"),
    (0.05, 0.2): (ValueError, "Schur row norm check: 1.00000014 is not <= "
                              "1.00000001"),
    (0.05, 20.0): (RuntimeError, "numerator expansion degree-zero edge check: "
                                 "9.14262728e-07 is not <= 4.92399757e-07"),
}


def _two_point_params():
    for theta in TWO_POINT_THETAS:
        for weight in TWO_POINT_WEIGHTS:
            lost = TWO_POINT_LOST.get((theta, weight))
            marks = () if lost is None else pytest.mark.xfail(
                strict=True, raises=lost[0], reason=lost[1])
            yield pytest.param(theta, weight, marks=marks,
                               id=f"theta={theta:.4f}-w={weight:g}")


@pytest.mark.parametrize("theta,weight", _two_point_params())
def test_two_point_measure_certifies_only_when_antipodal(theta, weight):
    rep = run_certificates(measure_to_symbol(
        CircleMeasure((0.0, theta), (1.0, weight))))
    if theta == math.pi:
        assert (rep.verdict, rep.certified_by) == (VERDICT_CERTIFIED, "orthogonality")
    else:
        assert (rep.verdict, rep.refuted_by) == (VERDICT_REFUTED, "necessary_measure")


# The near-antipodal family of ROADMAP items 2 and 17: atoms at 0 and
# pi - eps with weights 1 and 3. Its orthogonality residual is about
# 0.031 eps, so below eps = 3e-8 the tolerance TOL_ORTH = 1e-9, not an
# error bound, decides the verdict: eps = 3e-8, 1e-8 and 1e-9 certify with
# residuals 9.3e-10, 3.1e-10 and 3.1e-11.
def _near_antipodal(eps: float):
    return run_certificates(measure_to_symbol(
        CircleMeasure((0.0, math.pi - eps), (1.0, 3.0))))


@pytest.mark.parametrize("eps,refuted_by", [(1e-6, "necessary_measure"),
                                            (1e-7, "orthogonality_exactness")])
def test_near_antipodal_measure_is_refuted(eps, refuted_by):
    rep = _near_antipodal(eps)
    assert (rep.verdict, rep.refuted_by) == (VERDICT_REFUTED, refuted_by)


@pytest.mark.parametrize("eps", [1e-6, 1e-7, 3e-8, 1e-8, 1e-9])
def test_near_antipodal_orthogonality_residual_is_linear_in_eps(eps):
    assert 0.030 <= _near_antipodal(eps).orth_residual / eps <= 0.032


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="TOL_ORTH decides: a residual below 1e-9 certifies")
@pytest.mark.parametrize("eps", [3e-8, 1e-8, 1e-9])
def test_near_antipodal_measure_is_not_certified(eps):
    assert _near_antipodal(eps).verdict != VERDICT_CERTIFIED


# ------------------------------------------------------------ necessary measure


def test_necessary_measure_antipodal_locations():
    sym = closed_form_antipodal(1.0, 1.0)
    necessary, passed, _ = necessary_measure_test(pairing_of(sym))
    assert passed
    assert len(necessary.locations) == 2
    locs = sorted(necessary.locations, key=lambda x: x.real)
    gamma_fr = 3.0 - 2.0 * SQ2  # 1 / alpha^2
    assert abs(locs[0] + gamma_fr) <= 1e-9
    assert abs(locs[1] - gamma_fr) <= 1e-9
    by_loc = dict(zip(necessary.locations, necessary.weights))
    scale = sum(abs(w) for w in necessary.weights)
    for loc, w in by_loc.items():
        if loc.real > 0:
            assert w.real > 0.1 * scale
        else:
            assert abs(w) <= 1e-12 * scale


def test_necessary_measure_single_atom():
    sym = single_atom_symbol(1.0)
    necessary, passed, _ = necessary_measure_test(pairing_of(sym))
    assert passed
    assert len(necessary.locations) == 1
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(necessary.locations[0] - eta ** 2) <= 1e-12
    assert necessary.weights[0].real > 0


def test_necessary_measure_equals_class_loop_oracle():
    # On the fixtures and the pool-like batch no class has more than two
    # members, so the one reduceat adds in the loop's order and the whole
    # result is bit-identical.
    symbols = [load_fixture_symbol(name) for name in FIXTURE_NAMES]
    for mu in pool_like_measures(47, 6):
        try:
            symbols.append(measure_to_symbol(mu))
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
    for sym in symbols:
        pairing = pairing_of(sym)
        (got, passed, exact) = necessary_measure_test(pairing)
        (want, want_passed, want_exact) = necessary_oracle.necessary_measure_test(pairing)
        assert (passed, exact) == (want_passed, want_exact)
        for field in ("locations", "weights"):
            got_array = getattr(got, field)
            assert isinstance(got_array, np.ndarray) and got_array.dtype == complex
            assert np.array_equal(got_array, getattr(want, field))
        assert got.worst_violation == want.worst_violation
        assert got.worst_location == want.worst_location
    assert len(symbols) >= 50


@pytest.mark.parametrize("k", [5, 6, 8])
def test_necessary_measure_large_classes_match_oracle(k):
    # Equally spaced equal atoms: classes of up to k products, which the
    # reduceat sums in another order than numpy's pairwise sum (3e-17 of
    # the total variation at k = 8).
    sym = measure_to_symbol(CircleMeasure(
        tuple(2.0 * math.pi * j / k for j in range(k)), (1.0,) * k))
    pairing = pairing_of(sym)
    classes = necessary_oracle.union_find_classes(pairing.products)
    assert max(len(members) for members, _ in classes) == k
    (got, passed, exact) = necessary_measure_test(pairing)
    (want, want_passed, want_exact) = necessary_oracle.necessary_measure_test(pairing)
    assert (passed, exact) == (want_passed, want_exact)
    assert np.array_equal(got.locations, want.locations)
    assert got.worst_location == want.worst_location
    total = sum(abs(w) for w in want.weights)
    assert max(abs(a - b) for a, b in zip(got.weights, want.weights)) <= 1e-15 * total
    assert abs(got.worst_violation - want.worst_violation) <= 1e-15


def test_necessary_atom_order_survives_last_bit_changes():
    # a conjugate pair of pole products ties in |weight| and in the real
    # part of its location in exact arithmetic; scaling the numerators by
    # 1 +- 1e-14 must not reorder the atoms of any pool-like symbol
    checked = []
    for mu in pool_like_measures(53, 15):
        try:
            sym = measure_to_symbol(mu)
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
        orders = []
        for factor in (1.0, 1.0 + 1e-14, 1.0 - 1e-14):
            scaled = symbolpipe.RationalSymbol(sym.alphas,
                                               factor * sym.coefficients)
            necessary, _, _ = necessary_measure_test(pairing_of(scaled))
            orders.append(np.array(necessary.locations))
        for order in orders[1:]:
            assert np.abs(order - orders[0]).max() <= 1e-9
        checked.append(sym.k)
    assert len(checked) >= 100 and set(checked) == set(range(1, 9))


def test_necessary_worst_location_survives_last_bit_changes():
    # violations that tie in exact arithmetic (a conjugate pair, or classes
    # of equal weight) must not let the last bit pick the reported location
    checked = flagged = 0
    for mu in pool_like_measures(61, 15):
        try:
            sym = measure_to_symbol(mu)
        except (ValueError, ArithmeticError, RuntimeError):
            continue    # the pipeline's conditioning limit, not this test's
        found = []
        for factor in (1.0, 1.0 + 1e-14, 1.0 - 1e-14):
            scaled = symbolpipe.RationalSymbol(sym.alphas,
                                               factor * sym.coefficients)
            necessary, passed, _ = necessary_measure_test(pairing_of(scaled))
            found.append((necessary.worst_location, passed))
        for location, passed in found[1:]:
            assert passed == found[0][1]
            assert (location is None) == (found[0][0] is None)
            if location is not None:
                assert abs(location - found[0][0]) <= 1e-9
        checked += 1
        flagged += found[0][0] is not None
    assert checked >= 100 and flagged >= 50


def test_necessary_measure_weights_close_under_conjugation():
    for sym in (make_refuter(),
                measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))):
        necessary, _, _ = necessary_measure_test(pairing_of(sym))
        pairs = sorted(zip(necessary.locations, necessary.weights),
                       key=lambda lw: (round(lw[0].real, 9), round(lw[0].imag, 9)))
        conj_pairs = sorted(
            ((complex(l).conjugate(), complex(w).conjugate()) for l, w in pairs),
            key=lambda lw: (round(lw[0].real, 9), round(lw[0].imag, 9)))
        scale = max(abs(w) for _, w in pairs)
        for (l1, w1), (l2, w2) in zip(pairs, conj_pairs):
            assert abs(l1 - l2) <= 1e-9 * max(1.0, abs(l1))
            assert abs(w1 - w2) <= 1e-9 * scale


# ------------------------------------------------------------- moment sequence


def test_gamma_moments_match_kernel_diagonal():
    for sym in (closed_form_antipodal(1.0, 1.0), make_refuter()):
        cross = pairing_of(sym).cross
        moments = gamma_moments(sym, cross, 30)
        taylor = taylor_of(sym, 31)
        norms2 = np.linalg.norm(taylor, axis=1) ** 2
        # gamma_m = |row m+1|^2 = K[m,m] - K[m+1,m+1]; norms2[m] holds
        # exactly that square for the row of index m+1
        assert np.abs(moments - norms2[:30]).max() <= 1e-12 * max(
            1.0, norms2.max())


def test_completely_monotone_examples():
    halves = 0.5 ** np.arange(60)
    passed, worst = completely_monotone_test(halves, 40, 12)
    assert passed and worst >= -1e-12
    linear = np.arange(60, dtype=float)
    passed, _ = completely_monotone_test(linear, 40, 12)
    assert not passed
    with pytest.raises(InsufficientLengthError):
        completely_monotone_test(halves, 50, 12)


def test_antipodal_moments_completely_monotone():
    sym = closed_form_antipodal(4.0, 1.0)
    moments = gamma_moments(sym, pairing_of(sym).cross, 53)
    passed, worst = completely_monotone_test(moments, 40, 12)
    assert passed
    assert worst >= -1e-10 * max(1.0, moments.max())


def test_monotone_oracle_implied_by_necessary_measure():
    # gamma_m are the moments of the necessary measure's atoms, so the
    # truncated monotone test must pass wherever the exact check on the
    # atoms passes; this is why the battery no longer runs it
    symbols = _fixtures_and_seeded_batch(2103, 120)
    checked = 0
    for sym in symbols:
        if run_certificates(sym).necessary_passed:
            checked += 1
            assert monotone_passed(sym, CFG)
    assert len(symbols) >= 100 and checked >= 20


# ------------------------------------------------------- representing measure


# one-pole models b = gamma z / (1 - beta z); the last one is single_atom_tau1,
# whose mate has its zero on the circle
RANK1_MODELS = [(0.4, 0.3 + 0.2j), (0.3, -0.25 + 0.1j),
                (0.61803398874989479, 0.3819660112501051)]


def _one_pole_symbol(gamma, beta):
    """gamma z / (1 - beta z) as c z / (z - alpha): alpha = 1/beta,
    c = -gamma alpha."""
    return symbol_from_parts([1.0 / beta], [[0.0, -gamma / beta]])


def _measure_of(sym):
    result = run_certificates(sym)
    return result, representing_measure(result.pairing, result.taylor)


def test_rank1_representing_measure_checks():
    # at one pole the masses are the mate's point mass nu, and the moments
    # reproduce the kernel table
    for gamma, beta in RANK1_MODELS:
        model = mate_rank1(gamma, beta)
        result, measure = _measure_of(_one_pole_symbol(gamma, beta))
        assert result.orth_passed
        assert abs(measure.atoms[0] - beta) <= 1e-15
        assert abs(measure.masses[0] - model.nu) <= 1e-15
        assert measure.max_residual <= 1e-14
        assert abs(measure.moments[0, 0] - 1.0) <= 1e-14
        assert measure.moments.shape == (21, 21)


def test_rank1_representing_measure_tangent_model():
    sym = single_atom_symbol(1.0)
    model = mate_rank1(-sym.coefficients[0, 1] / sym.alphas[0], 1.0 / sym.alphas[0])
    _, measure = _measure_of(sym)
    assert abs(measure.masses[0] - model.nu) <= 1e-15
    assert measure.max_residual <= 1e-14
    assert abs(measure.moments[0, 0] - 1.0) <= 1e-14


def _moments_by_power_matrix(atoms, masses, size, quad_points):
    """The moments by quadrature as a dense product, E[m, q] =
    e^{i m theta_q} against the density, plus the atoms: an independent
    reference for the closed-form moments of representing_measure, exact
    but for aliasing of about |beta|^quad_points."""
    theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
    unit = np.exp(1j * theta)
    density = np.ones(quad_points)
    for beta, nu in zip(atoms, masses):
        density -= nu * (2.0 * (1.0 / (1.0 - np.conj(unit) * beta)).real - 1.0)
    E = unit[None, :] ** np.arange(size + 1)[:, None]
    moments = (E * density[None, :] / quad_points) @ np.conj(E).T
    for beta, nu in zip(atoms, masses):
        bpow = np.power(beta, np.arange(size + 1))
        moments += nu * np.outer(bpow, np.conj(bpow))
    return moments


def test_rank1_moments_match_power_matrix_quadrature():
    symbols = [_one_pole_symbol(g, b) for g, b in RANK1_MODELS]
    symbols += [load_fixture_symbol(name) for name in ("antipodal_1_1", "antipodal_4_1")]
    for sym in symbols:
        _, measure = _measure_of(sym)
        # every |beta| here is at most 0.62, so 4096 nodes alias below
        # 0.62^4096; the moments are at most about 1
        assert np.abs(measure.atoms).max() <= 0.62
        oracle = _moments_by_power_matrix(measure.atoms, measure.masses, 20, 4096)
        gap = np.abs(measure.moments - oracle).max()
        assert gap <= 16 * np.finfo(float).eps


# light atoms put a pole within about sqrt(weight) of the circle
NEAR_CIRCLE = [
    *((single_atom_symbol, (tau, theta))
      for tau in (1e-6, 1e-8, 1e-12) for theta in (0.0, 1.0)),
    *((closed_form_antipodal, weights) for weights in
      ((1e-12, 1e-12), (1e-10, 1e-10), (1e-6, 1.0), (1e-12, 1e2)))]


@pytest.mark.parametrize("make, args", NEAR_CIRCLE,
                         ids=[f"{make.__name__}{args}" for make, args in NEAR_CIRCLE])
def test_representing_measure_with_poles_near_the_circle(make, args):
    # a quadrature of the density aliases by about |beta|^nodes there
    # (2e-4 at 4096 nodes for tau = 1e-12); the closed-form moments stay
    # at rounding
    result, measure = _measure_of(make(*args))
    assert result.certified_by == "orthogonality"
    assert np.abs(measure.atoms).max() > 0.99
    assert measure.max_residual <= 1e-14
    assert abs(measure.moments[0, 0] - 1.0) <= 1e-14


def test_rank1_density_is_nonnegative():
    # the absolutely continuous part of the representing measure must be a
    # genuine density for a subnormal model
    for gamma, beta in RANK1_MODELS:
        _, measure = _measure_of(_one_pole_symbol(gamma, beta))
        assert measure.density_min >= -1e-13
        assert (measure.masses >= 0).all()


@pytest.mark.parametrize("tau, theta", [(1e-8, 1.0), (1e-12, 1.0), (1e-6, 2.5),
                                        (1.0, 1.0)])
def test_density_min_samples_the_atom_direction(tau, theta):
    # one atom of weight tau has w = (1 - eta)^2 with eta = |beta|, so its
    # density 1 - w / |1 - conj(z) beta|^2 vanishes at z = beta / |beta|;
    # the 4096 nodes alone miss that dip and read 0.707, 1.0, 0.131 and 2.4e-8
    result, measure = _measure_of(single_atom_symbol(tau, theta))
    assert result.certified_by == "orthogonality"
    assert abs(measure.density_min) <= 1e-9


@pytest.mark.parametrize("sym", [
    *(load_fixture_symbol(name)
      for name in ("antipodal_1_1", "antipodal_4_1", "single_atom_tau1")),
    *(measure_to_symbol(CircleMeasure((0.0, math.pi), (1.0, w)))
      for w in TWO_POINT_WEIGHTS)],
    ids=["antipodal_1_1", "antipodal_4_1", "single_atom_tau1",
         *(f"pi-w={w:g}" for w in TWO_POINT_WEIGHTS)])
def test_representing_measure_of_certified_symbols(sym):
    # every symbol certified by orthogonality, at any number of poles, has
    # a representing measure: a density that stays nonnegative plus one
    # atom at each reciprocal pole, whose moments are the kernel table
    result, measure = _measure_of(sym)
    assert result.certified_by == "orthogonality"
    assert np.array_equal(measure.atoms, 1.0 / sym.alphas)
    assert measure.max_residual <= 1e-14
    assert measure.density_min >= -1e-13
    assert (measure.masses > 0).all()


def _pairwise_exactness(sym):
    """Reference scan: every off-diagonal product is off the ray [1, oo)
    and farther than 1e-9 from every other off-diagonal product."""
    if sym.k < 2:
        return False
    alphas = np.asarray(sym.alphas, dtype=complex)
    prods = [alphas[r] * np.conj(alphas[t])
             for r in range(sym.k) for t in range(sym.k) if r != t]
    for i, p in enumerate(prods):
        x = 1.0 / p
        if math.hypot(x.real - min(max(x.real, 0.0), 1.0), x.imag) <= 1e-8:
            return False
        if any(abs(p - q) <= 1e-9 for q in prods[i + 1:]):
            return False
    return True


def test_coincidence_classes_match_union_find():
    ray = cmath.exp(1j * np.pi / 5)
    symbols = [make_refuter(), single_atom_symbol(1.0),
               symbol_from_parts([], []),
               closed_form_antipodal(1.0, 1.0),
               symbol_from_parts([2.0, 3.0], [[0.0, 0.1], [0.0, 0.0, 0.1]]),
               symbol_from_parts([2.0 * ray, 3.0 * ray, 5.0],
                                 [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]),
               symbol_from_parts([2.0 * ray, 3.0 * ray * cmath.exp(0.3j), 5.0],
                                 [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]),
               measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0))),
               measure_to_symbol(CircleMeasure((0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                                               (1.0,) * 6))]
    for sym in symbols:
        pairing = pairing_of(sym)
        necessary, _, exact = necessary_measure_test(pairing)
        expected = necessary_oracle.union_find_classes(pairing.products)
        # one atom per class, at the reciprocal of the class's mean product
        assert sorted(necessary.locations.tolist(), key=_re_im) == sorted(
            (complex(1.0 / p) for _, p in expected), key=_re_im)
        assert exact == necessary_oracle.necessary_measure_test(pairing)[2]
        assert exact == _pairwise_exactness(sym)


# ------------------------------------------------------------------- exactness


def _exact(sym):
    exact = necessary_measure_test(pairing_of(sym))[2]
    assert exact == necessary_oracle.necessary_measure_test(pairing_of(sym))[2]
    return exact


def test_exactness_applies_cases():
    assert _exact(make_refuter())
    assert not _exact(closed_form_antipodal(1.0, 1.0))
    assert not _exact(single_atom_symbol(1.0))
    # real pair: the two cross products coincide
    assert not _exact(symbol_from_parts([2.0, 3.0], [[0.0, 0.1], [0.0, 0.0, 0.1]]))
    # common ray: a cross product lands on [1, infinity)
    ray = cmath.exp(1j * np.pi / 5)
    assert not _exact(symbol_from_parts(
        [2.0 * ray, 3.0 * ray, 5.0],
        [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]))
    # generic triple: distinct products, all off the ray
    assert _exact(symbol_from_parts(
        [2.0 * ray, 3.0 * ray * cmath.exp(0.3j), 5.0],
        [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]))


# --------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError, match=r"got levels=0, trunc=40$"):
        CertificateConfig(levels=0)
    with pytest.raises(ValueError, match=r"got levels=12, trunc=1$"):
        CertificateConfig(trunc=1)
    small = CertificateConfig(levels=2, trunc=5)
    rep = run_certificates(single_atom_symbol(1.0), small)
    assert rep.verdict == VERDICT_CERTIFIED
    assert len(rep.agler_pole) == 2 and len(rep.agler_taylor) == 2
