"""Command line: input parsing, report rendering, exit codes, goldens."""

import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cauchydual import __version__, certify, cli, kernels
from cauchydual.cli import (
    EXIT_ERROR,
    InputError,
    _cmatrix,
    _cpx,
    build_report,
    main,
    parse_input_document,
    render_json,
    write_atomic,
)

import render_oracle
from conftest import FIXTURES, FIXTURE_NAMES, load_fixture_doc


# -------------------------------------------------------------- input parsing


def test_parse_measure_document():
    kind, sym = parse_input_document(
        {"measure": {"atoms": [{"theta_radians": 0.0, "weight": 1.0},
                               {"theta_radians": 3.141592653589793, "weight": 1.0}]}})
    assert kind == "measure"
    assert sym.k == 2


def test_parse_symbol_document():
    kind, sym = parse_input_document(
        {"symbol": {"alphas": [[2.0, 0.0]],
                    "numerators": [[[0.0, 0.0], [0.3, 0.0]]]}})
    assert kind == "symbol"
    assert sym.k == 1
    assert abs(sym.alphas[0] - 2.0) == 0.0


def test_parse_antipodal_and_single_atom():
    kind, sym = parse_input_document({"antipodal": {"c1": 1.0, "c2": 2.0}})
    assert kind == "antipodal" and sym.k == 2
    kind, sym = parse_input_document({"single_atom": {"tau": 1.0}})
    assert kind == "single_atom" and sym.k == 1
    kind, sym2 = parse_input_document(
        {"single_atom": {"tau": 1.0, "theta_radians": 0.5}})
    assert abs(sym2.alphas[0] / sym.alphas[0] - np.exp(0.5j)) <= 1e-12


@pytest.mark.parametrize("doc,needle", [
    ({}, "exactly one"),
    ({"antipodal": {"c1": 1.0, "c2": 1.0}, "single_atom": {"tau": 1.0}},
     "exactly one"),
    ({"antipodal": {"c1": 1.0, "c2": 1.0}, "bogus": {}}, "bogus"),
    ({"antipodal": {"c1": 1.0}}, "c2"),
    ({"antipodal": {"c1": 1.0, "c2": 1.0, "c3": 1.0}}, "c3"),
    ({"single_atom": {"tau": True}}, "number"),
    ({"single_atom": {"tau": float("inf")}}, "finite"),
    ({"measure": {"atoms": [{"theta_radians": 0.0}]}}, "weight"),
    ({"measure": {"atoms": "nope"}}, "atoms"),
    ({"symbol": {"alphas": [[2.0, 0.0]], "numerators": [[[0.0, 0.0, 0.0]]]}},
     "re, im"),
])
def test_parse_rejections_name_the_field(doc, needle):
    with pytest.raises(InputError) as exc:
        parse_input_document(doc)
    assert needle.lower() in str(exc.value).lower()


# ------------------------------------------------------------- number writing


def test_fmt_float_canonical_zero_and_round_trip():
    assert render_json(0.0) == "0"
    assert render_json(-0.0) == "0"
    assert render_json([-0.0, 0.0]) == "[0, 0]"
    rng = np.random.default_rng(31)
    samples = list(rng.normal(size=50)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    for x in samples:
        assert float(render_json(float(x))) == float(x)
    row = [float(x) for x in samples]
    assert json.loads(render_json(row)) == row
    assert json.loads(render_json([row, row[::-1]])) == [row, row[::-1]]
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            render_json(bad)


def test_render_json_round_trips_and_inlines_scalar_rows():
    obj = {"a": 1.5, "b": [1.0, 2.0, 3.0], "c": {"d": "text \"quoted\"", "e": []},
           "f": [[1.0, 0.0], [0.0, 1.0]], "g": True, "h": None}
    text = render_json(obj)
    assert json.loads(text) == obj
    assert "[1.5, 2, 3]" in render_json({"row": [1.5, 2.0, 3.0]})


def _fixture_reports(dump_tables: bool):
    for name in FIXTURE_NAMES:
        doc = load_fixture_doc(name)
        kind, sym = parse_input_document(doc)
        result = certify.run_certificates(sym, certify.CertificateConfig())
        yield name, build_report(doc, kind, sym, result, 4096, dump_tables)


@pytest.mark.parametrize("dump_tables", [False, True])
def test_render_json_matches_oracle_on_fixture_reports(dump_tables):
    for name, report in _fixture_reports(dump_tables):
        assert render_json(report) == render_oracle.render_json(report), name


def _spread_floats(rng, n: int) -> list:
    """Floats over the whole exponent range, subnormals included."""
    mantissa = rng.standard_normal(n)
    return (mantissa * 10.0 ** rng.integers(-310, 300, size=n)).tolist()


_RNG = np.random.default_rng(7)
RENDER_EDGE_CASES = [
    [[-0.0, 1.5], [0.0, -0.0]],                 # -0.0 inside a table row
    [-0.0, 2.0, -3.25e-300],                     # -0.0 inside a scalar row
    [[1, 2.0], [3.0, 4.0]],                      # int mixed into a float row
    [[1.0, 2.0], [3, 4]],
    [1, 2.5, True, None, "x"],                   # mixed scalar row
    [[True, 1.0], [2.0, 3.0]],
    [[1.0, 2.0], [3.0]],                         # ragged rows
    [[1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0]],
    [(1.0, 2.0), (3.0, 4.0)],                    # tuples
    (1.0, -0.0),
    ([1.0, 2.0], [3.0, 4.0]),
    [[1.0, 2.0], (3.0, 4.0)],
    [np.float64(-0.0), np.float64(1.0 / 3.0)],   # np.float64 scalars
    [[np.float64(1.0), 2.0], [3.0, 4.0]],
    np.float64(-0.0),
    np.float64(2.0 / 3.0),
    [], {}, [[]], [[], []], [{}], [[[]]],        # empties, nested empties
    {"a": [], "b": {}, "c": [[], {}]},
    [[[1.0, -0.0], [0.0, 1.0]], [[2.0, 5e-324], [1e308, -1e-308]]],
    {"k": [[0.1, 0.2], [0.3, 0.4]], "n": [[1.0, 2.0, 3.0]], "s": [1.0]},
    [[{"x": 1.0}, 2.0]],
    _spread_floats(_RNG, 200),
    [_spread_floats(_RNG, 2) for _ in range(60)],
    [[_spread_floats(_RNG, 2) for _ in range(7)] for _ in range(5)],
]


@pytest.mark.parametrize("case", RENDER_EDGE_CASES)
def test_render_json_matches_oracle_on_edge_cases(case):
    for obj in (case, {"outer": {"inner": case}}, [[case], case]):
        assert render_json(obj) == render_oracle.render_json(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["table", "row", "scalar", "mixed"])
def test_render_json_rejects_non_finite(bad, where):
    obj = {"table": {"t": [[1.0, 2.0], [0.5, bad], [3.0, 4.0]]},
           "row": [1.0, bad, -0.0],
           "scalar": {"x": bad},
           "mixed": [[1, bad], [2.0, 3.0]]}[where]
    for render in (render_json, render_oracle.render_json):
        with pytest.raises(ValueError, match="non-finite float in report"):
            render(obj)


def test_cmatrix_and_cpx_match_entrywise_conversion():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    M[0, 0] = complex(-0.0, -0.0)
    for A in (M, M[1], M.real, np.zeros((0, 2), dtype=complex)):
        want = [[[float(np.real(z)), float(np.imag(z))] for z in row]
                for row in np.atleast_2d(A)]
        got = _cmatrix(A)
        assert got == want
        assert all(type(x) is float for row in got for pair in row for x in pair)
        assert render_json(got) == render_oracle.render_json(want)
    for z in (M[2, 1], 1.5, -2, np.float64(0.25), complex(3.0, -0.0)):
        assert _cpx(z) == [float(np.real(z)), float(np.imag(z))]
        assert all(type(x) is float for x in _cpx(z))


def test_write_atomic_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.json"
    write_atomic(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


# ------------------------------------------------------------------ exit codes


@pytest.mark.parametrize("name,code", [
    ("antipodal_1_1", 0),
    ("antipodal_4_1", 0),
    ("single_atom_tau1", 0),
    ("refuter", 1),
    ("inconclusive", 2),
])
def test_exit_codes_on_fixtures(name, code, capsys):
    rc = main(["--input", str(FIXTURES / f"{name}.json")])
    out = capsys.readouterr().out
    assert rc == code
    assert ("CertifiedSubnormal" in out or "RefutedAtLevel" in out
            or "InconclusiveAtTruncation" in out)


def test_error_exits(tmp_path, capsys):
    assert main(["--input", str(tmp_path / "missing.json")]) == EXIT_ERROR
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--input", str(bad)]) == EXIT_ERROR
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"antipodal": {"c1": 1.0, "c2": 1.0},
                               "single_atom": {"tau": 1.0}}))
    assert main(["--input", str(two)]) == EXIT_ERROR
    schur = tmp_path / "schur.json"
    schur.write_text(json.dumps(
        {"symbol": {"alphas": [[1.05, 0.0]],
                    "numerators": [[[0.0, 0.0], [1.2, 0.0]]]}}))
    assert main(["--input", str(schur)]) == EXIT_ERROR
    capsys.readouterr()


@pytest.mark.parametrize("modulus", [1e7, 1e10, 1e20])
def test_far_pole_certifies_without_overflow(modulus, tmp_path, capsys):
    # inverse pole powers underflow towards 0 instead of overflowing
    path = tmp_path / "far.json"
    path.write_text(json.dumps(
        {"symbol": {"alphas": [[modulus, 0.0]],
                    "numerators": [[[0.0, 0.0], [1e-10, 0.0]]]}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("CertifiedSubnormal ")


def test_unrenderable_report_exits_with_error_code(tmp_path, capsys, monkeypatch):
    # A report that cannot be rendered is an error (exit 3), not a verdict:
    # exit 1 would read as RefutedAtLevel.
    original = cli.build_report

    def with_nan(*args):
        report = original(*args)
        report["certificates"]["orth_residual"] = float("nan")
        return report

    monkeypatch.setattr(cli, "build_report", with_nan)
    rc, out = _run_report(tmp_path, "refuter")
    assert rc == EXIT_ERROR
    assert "error: non-finite float in report" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--input", "x.json", "--bogus", "7"],   # unknown flag
    [],                                       # required --input missing
    ["--input", "x.json", "--levels", "ten"], # non-integer value
    ["--input", "x.json", "--quad-points", "0"],   # no quadrature points
    ["--input", "x.json", "--quad-points", "-3"],
])
def test_usage_errors_exit_with_input_error_code(argv, capsys):
    # Exit code 2 belongs to the inconclusive verdict; command-line mistakes
    # must surface as EXIT_ERROR so status-only callers cannot confuse them.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "usage:" in capsys.readouterr().err


# ------------------------------------------------------------------- reports


def _run_report(tmp_path, name, *extra):
    out = tmp_path / f"{name}.report.json"
    rc = main(["--input", str(FIXTURES / f"{name}.json"),
               "--report", str(out), *extra])
    return rc, out


def _strip_timestamp(text):
    return [line for line in text.splitlines() if '"timestamp"' not in line]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reports_match_goldens(name, tmp_path, capsys):
    _, out = _run_report(tmp_path, name)
    golden = (FIXTURES / f"{name}.golden.json").read_text()
    assert _strip_timestamp(out.read_text()) == _strip_timestamp(golden)
    capsys.readouterr()


def test_reports_are_deterministic(tmp_path, capsys):
    _, first = _run_report(tmp_path, "refuter")
    text1 = first.read_text()
    first.unlink()
    _, second = _run_report(tmp_path, "refuter")
    assert _strip_timestamp(text1) == _strip_timestamp(second.read_text())
    capsys.readouterr()


def test_report_symbol_round_trip_same_verdict(tmp_path, capsys):
    rc, out = _run_report(tmp_path, "antipodal_4_1")
    rep = json.loads(out.read_text())
    doc = {"symbol": {"alphas": rep["pipeline"]["alphas"],
                      "numerators": rep["pipeline"]["numerators"]}}
    again = tmp_path / "again.json"
    again.write_text(render_json(doc) + "\n")
    out2 = tmp_path / "again.report.json"
    rc2 = main(["--input", str(again), "--report", str(out2)])
    rep2 = json.loads(out2.read_text())
    assert rc2 == rc == 0
    assert rep2["certificates"]["verdict"] == rep["certificates"]["verdict"]
    assert rep2["exit_code"] == rep["exit_code"]
    capsys.readouterr()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda m: f"{m:03o}")
def test_report_mode_follows_umask(umask, tmp_path, capsys):
    previous = os.umask(umask)
    try:
        _, out = _run_report(tmp_path, "antipodal_1_1")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask
    capsys.readouterr()


def test_dump_tables_shapes(tmp_path, capsys):
    _, out = _run_report(tmp_path, "single_atom_tau1", "--dump-tables")
    rep = json.loads(out.read_text())
    K = rep["tables"]["K"]
    assert len(K) == 41 and all(len(row) == 41 for row in K)
    assert all(len(entry) == 2 for row in K for entry in row)
    rows = rep["tables"]["B_rows"]
    assert len(rows) == 52 and all(len(r) == rep["pipeline"]["k"] for r in rows)
    capsys.readouterr()


def test_report_builds_taylor_table_once(tmp_path, capsys, monkeypatch):
    calls = []
    original = kernels.symbol_taylor

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "symbol_taylor", counting)
    rc, out = _run_report(tmp_path, "antipodal_1_1", "--dump-tables")
    assert rc == 0 and out.exists()
    assert len(calls) == 1
    capsys.readouterr()


def test_rank1_section_only_for_one_pole(tmp_path, capsys):
    _, single = _run_report(tmp_path, "single_atom_tau1")
    rep = json.loads(single.read_text())
    sec = rep["rank1"]
    golden_rho = (math.sqrt(5.0) - 1.0) / 2.0
    assert abs(sec["rho"] - golden_rho) <= 1e-12
    assert abs(sec["sigma"][0] - golden_rho) <= 1e-12 and sec["sigma"][1] == 0
    assert abs(sec["nu"] - 0.44721359549995787) <= 1e-12
    assert abs(sec["measure_check"]["mass"] - 1.0) <= 1e-9
    assert sec["measure_check"]["max_residual"] <= 1e-7
    _, anti = _run_report(tmp_path, "antipodal_1_1")
    assert "rank1" not in json.loads(anti.read_text())
    capsys.readouterr()


def test_custom_flags_flow_into_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["--input", str(FIXTURES / "single_atom_tau1.json"),
               "--levels", "3", "--trunc", "12", "--tol-psd", "1e-7",
               "--tol-orth", "1e-8", "--quad-points", "512",
               "--report", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 0
    assert rep["config"] == {"levels": 3, "trunc": 12, "tol_psd": 1e-7,
                             "tol_orth": 1e-8, "quad_points": 512}
    assert len(rep["certificates"]["agler_pole"]) == 3
    assert rep["rank1"]["measure_check"]["quad_points"] == 512
    capsys.readouterr()


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual",
         "--input", str(FIXTURES / "antipodal_1_1.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "CertifiedSubnormal" in proc.stdout
