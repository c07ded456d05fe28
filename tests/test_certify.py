"""Certificate battery: orthogonality, truncated positivity, moment checks."""

import cmath
import math

import numpy as np
import pytest

from cauchydual import kernels, polyrat
from cauchydual.certify import (
    VERDICT_CERTIFIED,
    VERDICT_INCONCLUSIVE,
    VERDICT_REFUTED,
    CertificateConfig,
    InsufficientRowsError,
    LevelStat,
    agler_pole_test,
    agler_taylor_test,
    coincidence_classes,
    exactness_applies,
    necessary_measure_test,
    orthogonality_test,
    pole_basis,
    pole_cores,
    pole_pairing,
    rank1_representing_measure,
    run_certificates,
)
from cauchydual.kernels import TaylorTable, mate_rank1, symbol_taylor
from cauchydual.polyrat import Polynomial
from cauchydual.symbolpipe import (
    CircleMeasure,
    closed_form_antipodal,
    measure_to_symbol,
    rotate_measure,
    single_atom_symbol,
    symbol_from_parts,
)

from agler_oracle import agler_pole_matrix, agler_taylor_matrix, oracle_stats
from conftest import FIXTURE_NAMES, load_fixture_symbol
from monotone_oracle import (
    InsufficientLengthError,
    completely_monotone_test,
    gamma_moments,
    monotone_passed,
)

CFG = CertificateConfig()
SQ2 = math.sqrt(2.0)


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


def _basis_and_cores(sym, cfg):
    """The pole basis Q and the level cores both engines run on."""
    Q, R = pole_basis(sym, cfg.trunc)
    return Q, pole_cores(sym, pole_pairing(sym).cross, R, cfg.levels)


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
    got = pole_pairing(sym).cross
    alphas = sym.alphas
    denoms = [alphas[0] - alphas[1], alphas[1] - alphas[0]]
    expected = np.empty((2, 2), dtype=complex)
    for r in range(2):
        for t in range(2):
            acc = 0.0 + 0.0j
            for p in sym.numerators:
                acc += complex(p(alphas[r])) * complex(p(alphas[t])).conjugate()
            expected[r, t] = acc / (denoms[r] * complex(denoms[t]).conjugate())
    assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()


def test_cross_gram_hermitian_and_psd():
    for sym in (make_refuter(), closed_form_antipodal(2.0, 0.7).to_symbol()):
        C = pole_pairing(sym).cross
        assert np.abs(C - C.conj().T).max() <= 1e-13 * np.abs(C).max()
        assert np.linalg.eigvalsh(C).min() >= -1e-12 * np.abs(C).max()


def test_numerators_at_poles_equal_scalar_horner():
    symbols = _fixtures_and_seeded_batch(59, 60) + [make_refuter()]
    for sym in symbols:
        scalar = np.array([[complex(p(a)) for a in sym.alphas]
                           for p in sym.numerators], dtype=complex)
        assert np.array_equal(sym.numerators_at_poles, scalar)
    assert len(symbols) >= 50


def test_certificates_evaluate_numerators_once(monkeypatch):
    sym = measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))
    calls = []
    poly_eval = polyrat.poly_eval

    def counting(p, z):
        calls.append(np.shape(z))
        return poly_eval(p, z)

    monkeypatch.setattr(polyrat, "poly_eval", counting)
    run_certificates(sym)
    assert calls == [(sym.k,)] * len(sym.numerators)


# -------------------------------------------------------------- orthogonality


def test_orthogonality_antipodal_passes():
    rng = np.random.default_rng(1)
    for _ in range(10):
        c1, c2 = np.exp(rng.uniform(np.log(0.1), np.log(10.0), size=2))
        sym = closed_form_antipodal(c1, c2).to_symbol()
        residual, passed = orthogonality_test(pole_pairing(sym), CFG)
        assert passed and residual <= 1e-9


def test_orthogonality_refuter_value():
    residual, passed = orthogonality_test(pole_pairing(make_refuter()), CFG)
    assert not passed
    assert abs(residual - 0.4743) <= 1e-3


def test_orthogonality_vacuous_for_single_pole():
    residual, passed = orthogonality_test(pole_pairing(single_atom_symbol(1.0)), CFG)
    assert passed and residual == 0.0


# -------------------------------------------------------------- Agler engines


def test_engine_equivalence_spot_checks():
    for sym in (closed_form_antipodal(1.0, 1.0).to_symbol(), make_refuter()):
        cross = pole_pairing(sym).cross
        taylor = symbol_taylor(sym, 20 + 12)
        for level in (1, 5, 12):
            A = agler_pole_matrix(sym, cross, level, 20)
            B = agler_taylor_matrix(taylor, level, 20)
            scale = max(1.0, float(np.abs(A).max()))
            assert np.abs(A - B).max() <= 1e-10 * scale


def test_certified_cases_pass_both_engines():
    for sym in (closed_form_antipodal(1.0, 1.0).to_symbol(),
                closed_form_antipodal(4.0, 1.0).to_symbol(),
                single_atom_symbol(1.0),
                make_orthogonal_pair()):
        rep = run_certificates(sym)
        assert rep.verdict == VERDICT_CERTIFIED
        assert rep.certified_by == "orthogonality"
        assert rep.agler_passed
        for st in rep.agler_pole + rep.agler_taylor:
            assert st.min_eig >= -CFG.tol_psd * max(st.norm, 1e-300)
        assert monotone_passed(sym, CFG)
        assert rep.exit_code == 0


def test_insufficient_rows_for_taylor_engine():
    sym = make_refuter()
    taylor = symbol_taylor(sym, 15)
    too_deep = CertificateConfig(levels=6, trunc=10)
    fits = CertificateConfig(levels=5, trunc=10)
    with pytest.raises(InsufficientRowsError):
        agler_taylor_test(taylor, *_basis_and_cores(sym, too_deep), too_deep)
    assert len(agler_taylor_test(taylor, *_basis_and_cores(sym, fits), fits)) == 5


def test_engines_match_oracle_eigvalsh():
    six = make_six_equal_atoms()
    cases = [(sym, CFG) for sym in _fixtures_and_seeded_batch(31, 30)]
    cases += [(symbol_from_parts([], []), CFG),
              (six, CertificateConfig(levels=5, trunc=3)),
              (six, CertificateConfig(levels=5, trunc=6)),
              (make_refuter(), CertificateConfig(levels=8, trunc=2))]
    assert len(cases) >= 25
    for sym, cfg in cases:
        cross = pole_pairing(sym).cross
        taylor = symbol_taylor(sym, cfg.trunc + cfg.levels)
        Q, cores = _basis_and_cores(sym, cfg)
        for got, want, tol in (
                (agler_pole_test(cores, cfg), oracle_stats(
                    lambda l, n: agler_pole_matrix(sym, cross, l, n), cfg), 1e-12),
                (agler_taylor_test(taylor, Q, cores, cfg), oracle_stats(
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
            Q, cores = _basis_and_cores(sym, cfg)
            taylor = symbol_taylor(sym, trunc + 7)
            for engine in (lambda: agler_pole_test(cores, cfg),
                           lambda: agler_taylor_test(taylor, Q, cores, cfg)):
                sides.clear()
                calls.clear()
                engine()
                side = min(sym.k, trunc)
                assert sides == ([(side, side)] * 7 if side else [])
                assert len(calls) == (1 if side else 0)


def test_taylor_residual_and_gap_match_oracle_matrix():
    # rows with a part outside the pole basis: the residual and the gap are
    # those of the oracle's N x N matrix M, ||M - Q Q^H M Q Q^H||_F and
    # ||Q^H M Q - core||_F
    rng = np.random.default_rng(44)
    cfg = CertificateConfig(levels=6, trunc=12)
    for sym in (make_refuter(), make_six_equal_atoms(),
                closed_form_antipodal(1.0, 1.0).to_symbol()):
        Q, cores = _basis_and_cores(sym, cfg)
        rows = symbol_taylor(sym, cfg.trunc + cfg.levels).rows
        re, im = 1e-3 * np.abs(rows).max() * rng.standard_normal((2,) + rows.shape)
        taylor = TaylorTable(sym.k, rows + re + 1j * im)
        for st in agler_taylor_test(taylor, Q, cores, cfg):
            M = agler_taylor_matrix(taylor, st.level, cfg.trunc)
            P = Q.conj().T @ M @ Q
            residual = np.linalg.norm(M - Q @ P @ Q.conj().T)
            gap = np.linalg.norm(P - cores[st.level - 1])
            assert residual > 1e-3 * st.norm
            assert abs(st.residual - residual) <= 1e-10 * residual
            assert abs(st.gap - gap) <= 1e-10 * gap


def test_level_passes_needs_small_residual_and_gap():
    tol = CFG.tol_psd
    assert LevelStat(1, -0.5 * tol, 1.0, 0.5 * tol, 0.5 * tol).passes(tol)
    assert LevelStat(1, 0.0, 0.0).passes(tol)
    assert not LevelStat(1, -2.0 * tol, 1.0).passes(tol)
    assert not LevelStat(1, 0.0, 1.0, residual=2.0 * tol).passes(tol)
    assert not LevelStat(1, 0.0, 1.0, gap=2.0 * tol).passes(tol)


def test_taylor_drift_keeps_agler_from_passing():
    # antipodal_1_1 at L=80: every eigenvalue passes, but the differences
    # drifted out of the pole basis by more than tol_psd, so the levels
    # cannot vouch for positivity; orthogonality still certifies
    cfg = CertificateConfig(levels=80, trunc=40)
    rep = run_certificates(load_fixture_symbol("antipodal_1_1"), cfg)
    bound = [cfg.tol_psd * st.norm for st in rep.agler_taylor]
    assert all(st.min_eig >= -cfg.tol_psd * st.norm
               for st in rep.agler_pole + rep.agler_taylor)
    assert any(st.residual > b for st, b in zip(rep.agler_taylor, bound))
    assert not rep.agler_passed
    assert (rep.verdict, rep.certified_by) == (VERDICT_CERTIFIED, "orthogonality")


def test_engine_gap_alone_keeps_agler_from_passing(monkeypatch):
    # Taylor rows of the same poles with the numerators scaled by 0.9 lie
    # in the pole basis (no residual) and have positive levels, but they
    # disagree with the pole cores
    original = kernels.symbol_taylor
    monkeypatch.setattr(kernels, "symbol_taylor", lambda sym, n: TaylorTable(
        sym.k, 0.9 * original(sym, n).rows))
    rep = run_certificates(single_atom_symbol(1.0))
    tol = CFG.tol_psd
    assert all(st.min_eig >= -tol * st.norm and st.residual <= tol * st.norm
               for st in rep.agler_pole + rep.agler_taylor)
    assert all(st.gap > tol * st.norm for st in rep.agler_taylor)
    assert not rep.agler_passed


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
    thresh = -10.0 * CFG.tol_psd
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


def test_inconclusive_fixture_report(inconclusive_symbol):
    rep = run_certificates(inconclusive_symbol)
    assert rep.verdict == VERDICT_INCONCLUSIVE
    assert rep.exit_code == 2
    assert not rep.orth_passed
    assert rep.necessary_passed
    assert not rep.exactness
    assert rep.agler_passed
    assert rep.refuted_by is None and rep.certified_by is None


def test_zero_symbol_certified():
    rep = run_certificates(symbol_from_parts([], []))
    assert rep.verdict == VERDICT_CERTIFIED
    assert rep.exit_code == 0


def test_empty_measure_is_the_zero_symbol():
    built = measure_to_symbol(CircleMeasure())
    zero = symbol_from_parts((), ())
    for sym in (built, zero):
        assert (sym.k, sym.numerators, sym.alphas) == (0, (), ())
        assert sym.q == Polynomial((1.0 + 0.0j,))
        for matrix in (sym.eta, sym.chol):
            assert matrix.shape == (0, 0) and matrix.dtype == complex
    assert built.gamma_fr == 1.0 and zero.gamma_fr is None
    rep = run_certificates(built)
    assert (rep.verdict, rep.certified_by) == (VERDICT_CERTIFIED, "orthogonality")
    zeros = tuple(LevelStat(l, 0.0, 0.0) for l in range(1, CFG.levels + 1))
    assert rep.agler_pole == zeros and rep.agler_taylor == zeros
    assert rep.taylor.rows.shape == (CFG.trunc + CFG.levels, 0)
    assert rep.necessary.locations == () and not rep.exactness


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


# ------------------------------------------------------------ necessary measure


def test_necessary_measure_antipodal_locations():
    sym = closed_form_antipodal(1.0, 1.0).to_symbol()
    necessary, passed = necessary_measure_test(
        pole_pairing(sym).cross, coincidence_classes(sym), CFG)
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
    necessary, passed = necessary_measure_test(
        pole_pairing(sym).cross, coincidence_classes(sym), CFG)
    assert passed
    assert len(necessary.locations) == 1
    eta = (3.0 - math.sqrt(5.0)) / 2.0
    assert abs(necessary.locations[0] - eta ** 2) <= 1e-12
    assert necessary.weights[0].real > 0


def test_necessary_measure_weights_close_under_conjugation():
    for sym in (make_refuter(),
                measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0)))):
        necessary, _ = necessary_measure_test(
            pole_pairing(sym).cross, coincidence_classes(sym), CFG)
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
    for sym in (closed_form_antipodal(1.0, 1.0).to_symbol(), make_refuter()):
        cross = pole_pairing(sym).cross
        moments = gamma_moments(sym, cross, 30)
        taylor = symbol_taylor(sym, 31)
        norms2 = taylor.row_norms() ** 2
        # gamma_m = |row m+1|^2 = K[m,m] - K[m+1,m+1]; row_norms()[m] holds
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
    sym = closed_form_antipodal(4.0, 1.0).to_symbol()
    moments = gamma_moments(sym, pole_pairing(sym).cross, 53)
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


def test_rank1_representing_measure_checks():
    for gamma, beta in [(0.5, 0.0), (0.4, 0.3 + 0.2j)]:
        model = mate_rank1(gamma, beta)
        check = rank1_representing_measure(model, 20)
        assert check.max_residual <= 1e-7
        assert abs(check.mass - 1.0) <= 1e-9
        assert abs(check.kernel[0, 0] - 1.0) <= 1e-14


def test_rank1_representing_measure_tangent_model():
    sym = single_atom_symbol(1.0)
    beta = 1.0 / sym.alphas[0]
    gamma = -sym.numerators[0].coeffs[1] / sym.alphas[0]
    model = mate_rank1(gamma, beta)
    check = rank1_representing_measure(model, 20)
    assert check.max_residual <= 1e-7
    assert abs(check.mass - 1.0) <= 1e-9


def _moments_by_power_matrix(model, size, quad_points):
    """The quadrature as a dense product, E[m, q] = e^{i m theta_q} against
    the density, plus the atom at beta: the reference for the moments that
    rank1_representing_measure takes from one inverse DFT."""
    theta = 2.0 * np.pi * np.arange(quad_points) / quad_points
    unit = np.exp(1j * theta)
    density = 1.0 - model.nu * (
        2.0 * (1.0 / (1.0 - np.conj(unit) * model.beta)).real - 1.0)
    E = unit[None, :] ** np.arange(size + 1)[:, None]
    moments = (E * density[None, :] / quad_points) @ np.conj(E).T
    bpow = np.power(model.beta, np.arange(size + 1))
    return moments + model.nu * np.outer(bpow, np.conj(bpow))


def test_rank1_moments_match_power_matrix_quadrature():
    sym = single_atom_symbol(1.0)
    tangent = mate_rank1(-sym.numerators[0].coeffs[1] / sym.alphas[0],
                         1.0 / sym.alphas[0])
    for model in (mate_rank1(0.5, 0.0), mate_rank1(0.4, 0.3 + 0.2j), tangent):
        # fewer nodes than the 41 distinct m - n alias in both derivations;
        # the moments are at most about 1, and the two summation orders
        # measured up to 6 ulp apart here (at 7 nodes)
        for quad_points in (1, 7, 41, 100, 4096):
            check = rank1_representing_measure(model, 20, quad_points)
            oracle = _moments_by_power_matrix(model, 20, quad_points)
            gap = np.abs(check.moments - oracle).max()
            assert gap <= 16 * np.finfo(float).eps


def test_rank1_density_is_nonnegative():
    # the absolutely continuous part of the representing measure must be a
    # genuine density for a subnormal model
    for gamma, beta in [(0.5, 0.0), (0.4, 0.3 + 0.2j)]:
        model = mate_rank1(gamma, beta)
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        unit = np.exp(1j * theta)
        density = 1.0 - model.nu * (
            2.0 * (1.0 / (1.0 - np.conj(unit) * model.beta)).real - 1.0)
        assert density.min() >= -1e-12
        assert model.nu >= 0


def _union_find_classes(sym):
    """Pairwise union-find over the pole products, the reference grouping:
    (members, mean product) per class, classes by first member."""
    alphas = np.asarray(sym.alphas, dtype=complex)
    flat = np.outer(alphas, np.conj(alphas)).ravel()
    parent = list(range(len(flat)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if abs(flat[i] - flat[j]) <= 1e-9:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(len(flat)):
        groups.setdefault(find(i), []).append(i)
    return [(members, np.mean(flat[members])) for members in groups.values()]


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
               closed_form_antipodal(1.0, 1.0).to_symbol(),
               symbol_from_parts([2.0, 3.0], [[0.0, 0.1], [0.0, 0.0, 0.1]]),
               symbol_from_parts([2.0 * ray, 3.0 * ray, 5.0],
                                 [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]),
               symbol_from_parts([2.0 * ray, 3.0 * ray * cmath.exp(0.3j), 5.0],
                                 [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]]),
               measure_to_symbol(CircleMeasure((0.3, 1.8, 4.0), (1.0, 0.5, 2.0))),
               measure_to_symbol(CircleMeasure((0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                                               (1.0,) * 6))]
    for sym in symbols:
        classes = coincidence_classes(sym)
        expected = _union_find_classes(sym)
        assert [m.tolist() for m in classes.members] == [m for m, _ in expected]
        assert list(classes.locations) == [complex(1.0 / p) for _, p in expected]
        assert exactness_applies(classes) == _pairwise_exactness(sym)


# ------------------------------------------------------------------- exactness


def test_exactness_applies_cases():
    assert exactness_applies(coincidence_classes(make_refuter()))
    assert not exactness_applies(
        coincidence_classes(closed_form_antipodal(1.0, 1.0).to_symbol()))
    assert not exactness_applies(coincidence_classes(single_atom_symbol(1.0)))
    # real pair: the two cross products coincide
    assert not exactness_applies(coincidence_classes(
        symbol_from_parts([2.0, 3.0], [[0.0, 0.1], [0.0, 0.0, 0.1]])))
    # common ray: a cross product lands on [1, infinity)
    ray = cmath.exp(1j * np.pi / 5)
    assert not exactness_applies(coincidence_classes(symbol_from_parts(
        [2.0 * ray, 3.0 * ray, 5.0],
        [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]])))
    # generic triple: distinct products, all off the ray
    assert exactness_applies(coincidence_classes(symbol_from_parts(
        [2.0 * ray, 3.0 * ray * cmath.exp(0.3j), 5.0],
        [[0.0, 0.1], [0.0, 0.0, 0.1], [0.0, 0.0, 0.0, 0.1]])))


# --------------------------------------------------------------- configuration


def test_config_validation():
    with pytest.raises(ValueError):
        CertificateConfig(levels=0)
    with pytest.raises(ValueError):
        CertificateConfig(trunc=1)
    with pytest.raises(ValueError):
        CertificateConfig(tol_psd=0.0)
    with pytest.raises(ValueError):
        CertificateConfig(tol_orth=-1e-9)
    small = CertificateConfig(levels=2, trunc=5)
    rep = run_certificates(single_atom_symbol(1.0), small)
    assert rep.verdict == VERDICT_CERTIFIED
    assert len(rep.agler_pole) == 2 and len(rep.agler_taylor) == 2
