"""Acceptance gate: eleven end-to-end criteria, one test (and one verbose
pass/fail line) per criterion.

Each body re-derives its expected values independently of the library
internals wherever a closed form exists, and freezes tolerances rather
than computing them from the code under test.
"""

import cmath
import json
import math
import time

import numpy as np

from cauchydual.certify import (
    VERDICT_CERTIFIED,
    orthogonality_test,
    representing_measure,
    run_certificates,
)
from cauchydual.cli import main
from cauchydual.kernels import kernel_coeffs
from cauchydual.symbolpipe import (
    CircleMeasure,
    closed_form_antipodal,
    measure_to_symbol,
    single_atom_symbol,
    symbol_from_parts,
)

from agler_oracle import agler_pole_matrix, agler_taylor_matrix
from conftest import (FIXTURES, FIXTURE_NAMES, load_fixture_symbol, pairing_of,
                      random_measure, taylor_of)
from rank1_oracle import mate_rank1, rank1_taylor
from symbol_oracle import eta_values, rotate_measure


def _report(criterion, detail):
    print(f"[criterion {criterion:02d}] PASS — {detail}", flush=True)


def _disc_points(n=10, radius=0.86):
    """Deterministic spiral of n points inside the disc."""
    js = np.arange(1, n + 1)
    radii = radius * js / n
    angles = 2.0 * np.pi * ((js * 0.618033988749895) % 1.0)
    return radii * np.exp(1j * angles)


def test_criterion_01_antipodal_goldens():
    start = time.perf_counter()
    sq2 = math.sqrt(2.0)
    golden_gamma = 3.0 - 2.0 * sq2          # 0.17157287525381...
    golden_alpha = 1.0 + sq2                # 2.41421356237309...

    cf = closed_form_antipodal(1.0, 1.0)
    sym = measure_to_symbol(CircleMeasure((0.0, math.pi), (1.0, 1.0)))

    assert abs(cf.gamma_fr - golden_gamma) <= 1e-10
    assert abs(sym.gamma_fr - golden_gamma) <= 1e-10
    for alphas in (cf.alphas, sym.alphas):
        got = sorted(complex(a).real for a in alphas)
        assert max(abs(g) for g in (got[0] + golden_alpha,
                                    got[1] - golden_alpha)) <= 1e-10
        assert max(abs(complex(a).imag) for a in alphas) <= 1e-10
    for a1, a2, gfr in ((cf.alphas[0], cf.alphas[1], cf.gamma_fr),
                        (sym.alphas[0], sym.alphas[1], sym.gamma_fr)):
        assert abs(gfr + 1.0 / (a1 * a2)) <= 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"gamma_fr/alpha goldens to 1e-10, identity to 1e-12, "
               f"{elapsed * 1e3:.0f} ms")


def test_criterion_02_pipeline_matches_closed_form_eta():
    pts = _disc_points(10)
    worst = 0.0
    for c1, c2 in ((1.0, 1.0), (4.0, 1.0), (0.5, 2.0)):
        closed = closed_form_antipodal(c1, c2)
        piped = measure_to_symbol(CircleMeasure((0.0, math.pi), (c1, c2)))
        gap = np.abs(eta_values(piped, pts, pts)
                     - eta_values(closed, pts, pts)).max()
        worst = max(worst, float(gap))
        assert gap <= 1e-8
    _report(2, f"eta agreement on 10x10 disc grid, worst gap {worst:.2e}")


def test_criterion_03_antipodal_orthogonality_certified():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(50):
        c1, c2 = rng.uniform(0.1, 10.0, size=2)
        sym = closed_form_antipodal(c1, c2)
        residual, passed = orthogonality_test(pairing_of(sym))
        worst = max(worst, residual)
        assert passed and residual <= 1e-9
        assert run_certificates(sym).verdict == VERDICT_CERTIFIED
    _report(3, f"50 random antipodal pairs certified, worst residual {worst:.2e}")


def test_criterion_04_single_atom_certified():
    pts = _disc_points(10)
    worst = 0.0
    for tau in (0.1, 1.0, 10.0):
        closed = single_atom_symbol(tau)
        piped = measure_to_symbol(CircleMeasure((0.0,), (tau,)))
        gap = np.abs(eta_values(piped, pts, pts)
                     - eta_values(closed, pts, pts)).max()
        worst = max(worst, float(gap))
        assert gap <= 1e-9
        for sym in (closed, piped):
            assert run_certificates(sym).verdict == VERDICT_CERTIFIED
    _report(4, f"tau in {{0.1, 1, 10}} certified, worst eta gap {worst:.2e}")


def test_criterion_05_engine_equivalence():
    start = time.perf_counter()
    symbols = [load_fixture_symbol(name) for name in FIXTURE_NAMES]
    rng = np.random.default_rng(7)
    for _ in range(20):
        symbols.append(measure_to_symbol(random_measure(rng, int(rng.integers(2, 4)))))
    worst = 0.0
    for sym in symbols:
        cross = pairing_of(sym).cross
        taylor = taylor_of(sym, 40 + 12)
        for level in range(1, 13):
            A = agler_pole_matrix(sym, cross, level, 40)
            B = agler_taylor_matrix(taylor, level, 40)
            gap = float(np.abs(A - B).max())
            worst = max(worst, gap)
            assert gap <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, f"{len(symbols)} symbols x 12 levels at N=40, worst entrywise "
               f"gap {worst:.2e}, {elapsed:.1f} s")


def test_criterion_06_kernel_recursions():
    cases = []
    tab = rank1_taylor(0.4, 0.3 + 0.2j, 40)
    cases.append(("rank-1", tab, kernel_coeffs(tab, 37)))
    sym = closed_form_antipodal(1.0, 1.0)
    tab = taylor_of(sym, 40)
    cases.append(("antipodal", tab, kernel_coeffs(tab, 37)))

    def f_table(K, k, span):
        out = np.zeros((span, span), dtype=complex)
        for j in range(k + 1):
            out += (-1) ** j * math.comb(k, j) * K[j:j + span, j:j + span]
        return out

    worst_step = worst_subn = 0.0
    for label, tab, K in cases:
        S = tab @ tab.conj().T  # S[m-1, n-1] = B_m . conj(B_n)
        for k in range(1, 6):
            span = 31
            f_k = f_table(K, k, span + 1)
            f_k1 = f_table(K, k + 1, span)
            # one-step recurrence: f_{k+1}(m, n) = f_k(m, n) - f_k(m+1, n+1)
            gap = np.abs(f_k1 - (f_k[:span, :span] - f_k[1:, 1:])).max()
            worst_step = max(worst_step, float(gap))
            assert gap <= 1e-12
            # closed form through the Taylor rows:
            # f_k(m, n) = sum_j (-1)^j C(k-1, j) B_{m+1+j} . conj(B_{n+1+j})
            direct = np.zeros((span, span), dtype=complex)
            for j in range(k):
                direct += (-1) ** j * math.comb(k - 1, j) * S[j:j + span, j:j + span]
            gap = np.abs(f_k[:span, :span] - direct).max()
            worst_subn = max(worst_subn, float(gap))
            assert gap <= 1e-10
    _report(6, f"one-step recurrence to {worst_step:.2e}, row closed form to "
               f"{worst_subn:.2e}, m,n <= 30, depth 5")


def _rank1_golden_models():
    sym = single_atom_symbol(1.0)
    beta = 1.0 / sym.alphas[0]
    gamma = -sym.coefficients[0, 1] / sym.alphas[0]
    return [(0.5, 0.0 + 0.0j), (0.4, 0.3 + 0.2j), (gamma, beta)]


def test_criterion_07_rank1_representing_measure():
    # the one-pole models as symbols gamma z / (1 - beta z) = c z / (z - alpha)
    # with alpha = 1/beta and c = -gamma alpha, then the certified fixtures
    worst = 0.0
    symbols = [symbol_from_parts([1.0 / beta], [[0.0, -gamma / beta]])
               for gamma, beta in _rank1_golden_models() if beta != 0]
    symbols += [load_fixture_symbol(name)
                for name in ("antipodal_1_1", "antipodal_4_1", "single_atom_tau1")]
    for sym in symbols:
        result = run_certificates(sym)
        assert result.orth_passed
        check = representing_measure(result.pairing, result.taylor)
        worst = max(worst, check.max_residual)
        assert check.max_residual <= 1e-7
        assert check.density_min >= -1e-13
    _report(7, f"{len(symbols)} symbols, moments vs kernel residual "
               f"{worst:.2e} at size 20, closed-form moments")


def test_criterion_08_mate_identity_and_dual_kernel():
    worst_mate = worst_dual = 0.0
    zs_circle = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False))
    grid = _disc_points(15, radius=0.85)
    for gamma, beta in _rank1_golden_models():
        model = mate_rank1(gamma, beta)
        a = (model.rho - model.sigma * zs_circle) / (1.0 - model.beta * zs_circle)
        b = model.gamma * zs_circle / (1.0 - model.beta * zs_circle)
        gap = float(np.abs(np.abs(a) ** 2 + np.abs(b) ** 2 - 1.0).max())
        worst_mate = max(worst_mate, gap)
        assert gap <= 1e-10
        # dual kernel, both published forms, written out directly
        cross = np.outer(grid, np.conj(grid))
        phi = (model.gamma * grid / (1.0 - model.beta * grid)) / (
            (model.rho - model.sigma * grid) / (1.0 - model.beta * grid))
        via_phi = (1.0 + np.outer(phi, np.conj(phi))) / (1.0 - cross)
        closed = (1.0 + abs(model.gamma) ** 2 * cross
                  / np.outer(model.rho - model.sigma * grid,
                             np.conj(model.rho - model.sigma * grid))) / (1.0 - cross)
        gap = float(np.abs(via_phi - closed).max())
        worst_dual = max(worst_dual, gap)
        assert gap <= 1e-10
    _report(8, f"mate identity to {worst_mate:.2e} on 512 samples, dual "
               f"kernel forms agree to {worst_dual:.2e}")


def test_criterion_09_rotation_covariance():
    zeta = cmath.exp(1j * math.pi / 7.0)
    measures = [
        CircleMeasure((0.0, math.pi), (1.0, 2.0)),
        CircleMeasure((0.4, 1.9), (1.0, 2.0)),
        CircleMeasure((0.0,), (1.0,)),
    ]
    pts = _disc_points(10)
    worst_eig = worst_eta = 0.0
    for mu in measures:
        sym = measure_to_symbol(mu)
        sym_rot = measure_to_symbol(rotate_measure(mu, zeta))
        rep = run_certificates(sym)
        rep_rot = run_certificates(sym_rot)
        assert rep.verdict == rep_rot.verdict
        for stats, stats_rot in ((rep.agler_pole, rep_rot.agler_pole),
                                 (rep.agler_taylor, rep_rot.agler_taylor)):
            for st, st_rot in zip(stats, stats_rot):
                gap = abs(st.min_eig - st_rot.min_eig)
                worst_eig = max(worst_eig, gap)
                assert gap <= 1e-10 * max(1.0, st.norm)
        gap = float(np.abs(eta_values(sym_rot, pts, pts)
                           - eta_values(sym, zeta * pts, zeta * pts)).max())
        worst_eta = max(worst_eta, gap)
        assert gap <= 1e-9
    _report(9, f"verdicts stable under rotation by exp(i pi / 7), eigenvalue "
               f"lists to {worst_eig:.2e}, eta covariance to {worst_eta:.2e}")


def test_criterion_10_refutation_path(capsys):
    rc = main(["--input", str(FIXTURES / "refuter.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "RefutedAtLevel" in out
    rep = run_certificates(load_fixture_symbol("refuter"))
    assert rep.refuted_by in ("necessary_measure", "orthogonality_exactness")
    assert rep.refuted_level == 0
    assert rep.exactness  # pole products distinct and off [1, infinity)
    _report(10, f"refuter exits 1, refuted at level 0 by {rep.refuted_by}")


def test_criterion_11_truncation_monotonicity():
    worst = 0.0
    for name in FIXTURE_NAMES:
        sym = load_fixture_symbol(name)
        cross = pairing_of(sym).cross
        taylor = taylor_of(sym, 40 + 12)
        for level in range(1, 13):
            for build in (lambda n: agler_pole_matrix(sym, cross, level, n),
                          lambda n: agler_taylor_matrix(taylor, level, n)):
                eigs = []
                for n in (10, 20, 40):
                    M = build(n)
                    eigs.append(float(np.linalg.eigvalsh(M).min()))
                scale = max(1.0, float(np.abs(M).max()))
                assert eigs[1] <= eigs[0] + 1e-12 * scale
                assert eigs[2] <= eigs[1] + 1e-12 * scale
                worst = max(worst, eigs[1] - eigs[0], eigs[2] - eigs[1])
    _report(11, f"min eigenvalue nonincreasing through N in {{10, 20, 40}}, "
                f"max upward drift {worst:.2e}")
