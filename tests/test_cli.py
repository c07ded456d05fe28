"""Command line: input parsing, report rendering, exit codes, goldens."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cauchydual import __version__, kernels
from cauchydual.cli import (
    EXIT_ERROR,
    InputError,
    _fmt_float,
    main,
    parse_input_document,
    render_json,
    write_atomic,
)

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
    assert _fmt_float(0.0) == "0"
    assert _fmt_float(-0.0) == "0"
    rng = np.random.default_rng(31)
    samples = list(rng.normal(size=50)) + [1e-300, 1e300, 0.1, 2.0 / 3.0]
    for x in samples:
        assert float(_fmt_float(float(x))) == float(x)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            _fmt_float(bad)


def test_render_json_round_trips_and_inlines_scalar_rows():
    obj = {"a": 1.5, "b": [1.0, 2.0, 3.0], "c": {"d": "text \"quoted\"", "e": []},
           "f": [[1.0, 0.0], [0.0, 1.0]], "g": True, "h": None}
    text = render_json(obj)
    assert json.loads(text) == obj
    assert "[1.5, 2, 3]" in render_json({"row": [1.5, 2.0, 3.0]})


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--input", "x.json", "--bogus", "7"],   # unknown flag
    [],                                       # required --input missing
    ["--input", "x.json", "--levels", "ten"], # non-integer value
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
