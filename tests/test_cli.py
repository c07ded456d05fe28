"""Command line: input parsing, report rendering, exit codes, goldens."""

import cmath
import dataclasses
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cauchydual import __version__, certify, cli, kernels
from cauchydual.polyrat import from_roots
from cauchydual.symbolpipe import symbol_from_parts
from cauchydual.cli import (
    EXIT_ERROR,
    InputError,
    build_report,
    main,
    parse_input_document,
    render_json,
    write_atomic,
)

import symbol_oracle
from conftest import (FIXTURES, FIXTURE_NAMES, load_fixture_doc,
                      load_fixture_symbol, random_measure, src_env)


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
    ({"single_atom": {"tau": 10 ** 400}}, "single_atom.tau: must be finite"),
    ({"symbol": {"alphas": [[2.0, 0.0]],
                 "numerators": [[[0.0, 0.0], [0.3, -10 ** 400]]]}},
     "symbol.numerators[0][1][1]: must be finite"),
    ({"measure": 5}, "measure: expected an object, got int"),
    ({"symbol": {"alphas": {"re": 2.0}, "numerators": []}},
     "symbol: alphas and numerators must be lists"),
    ({"symbol": {"alphas": [[2.0, 0.0]], "numerators": [3.0]}},
     "symbol.numerators[0]: expected a list of [re, im] coefficients"),
])
def test_parse_rejections_name_the_field(doc, needle):
    with pytest.raises(InputError) as exc:
        parse_input_document(doc)
    assert needle.lower() in str(exc.value).lower()


# ------------------------------------------------------------- number writing


def test_fmt_float_canonical_zero_and_round_trip():
    # a float is written by repr, the shortest text that reads back to the
    # same double; an array's -0.0 is written as 0.0, a scalar's as given
    text = render_json(np.array([-0.0, 0.0, -0.0]))
    assert text == "[0.0, 0.0, 0.0]"
    assert [math.copysign(1.0, x) for x in json.loads(text)] == [1.0] * 3
    assert render_json(-0.0) == "-0.0"
    rng = np.random.default_rng(31)
    samples = list(rng.normal(size=50)) + [1e-300, 1e300, 0.1, 2.0 / 3.0, 5e-324]
    for x in samples:
        assert render_json(float(x)) == repr(float(x))
        assert float(render_json(float(x))) == float(x)
    row = [float(x) for x in samples]
    assert json.loads(render_json(row)) == row
    assert json.loads(render_json([row, row[::-1]])) == [row, row[::-1]]
    assert json.loads(render_json(np.array(row))) == row
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="Out of range float values"):
            render_json(bad)


def test_render_json_round_trips_and_inlines_scalar_rows():
    obj = {"a": 1.5, "b": [1.0, 2.0, 3.0], "c": {"d": "text \"quoted\"", "e": []},
           "f": [[1.0, 0.0], [0.0, 1.0]], "g": True, "h": None}
    text = render_json(obj)
    assert json.loads(text) == obj
    assert "\n" not in text


# documents the fixtures do not cover: pipeline-built numerators of unequal
# length, an empty symbol, and one numerator over two poles
IN_MEMORY_DOCS = {
    "three_atom_measure": {"measure": {"atoms": [
        {"theta_radians": 0.3, "weight": 1.0},
        {"theta_radians": 1.8, "weight": 0.5},
        {"theta_radians": 4.0, "weight": 2.0}]}},
    "empty_measure": {"measure": {"atoms": []}},
    "scalar_two_poles": {"symbol": {
        "alphas": [[2.0, 0.0], [-3.0, 0.0]],
        "numerators": [[[0.0, 0.0], [0.5, 0.0]]]}},
}


def _fixture_reports(dump_tables: bool, trunc: int = 40, levels: int = 12,
                     names=FIXTURE_NAMES):
    cfg = certify.CertificateConfig(levels=levels, trunc=trunc)
    for name in names:
        doc = IN_MEMORY_DOCS.get(name) or load_fixture_doc(name)
        kind, sym = parse_input_document(doc)
        result = certify.run_certificates(sym, cfg)
        yield name, build_report(doc, kind, sym, result, dump_tables)


def _as_lists(obj):
    """`obj` as JSON reads it back, entry by entry: a dataclass as the dict
    of its repr-shown fields, an ndarray as its nested lists and each
    complex number in it as [re, im]."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_lists(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, np.ndarray):
        return _as_lists(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {key: _as_lists(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


# the number -0.0, not the start of -0.01
NEGATIVE_ZERO = re.compile(r"-0\.0(?!\d)")


@pytest.mark.parametrize("dump_tables,trunc,levels,names", [
    pytest.param(False, 40, 12, FIXTURE_NAMES + tuple(IN_MEMORY_DOCS), id="False"),
    pytest.param(True, 40, 12, FIXTURE_NAMES + tuple(IN_MEMORY_DOCS), id="True"),
    pytest.param(True, 200, 12, ("refuter", "single_atom_tau1"), id="True-N200"),
])
def test_render_json_matches_oracle_on_fixture_reports(dump_tables, trunc, levels,
                                                       names):
    # the oracle is the report itself, its arrays as their lists
    for name, report in _fixture_reports(dump_tables, trunc, levels, names):
        text = render_json(report)
        assert json.loads(text) == _as_lists(report), name
        assert "\n" not in text and not NEGATIVE_ZERO.search(text), name


def _spread_floats(rng, n: int) -> list:
    """Floats over the whole exponent range, subnormals included."""
    mantissa = rng.standard_normal(n)
    return (mantissa * 10.0 ** rng.integers(-310, 300, size=n)).tolist()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["table", "row", "scalar", "mixed"])
def test_render_json_rejects_non_finite(bad, where):
    obj = {"table": {"t": [[1.0, 2.0], [0.5, bad], [3.0, 4.0]]},
           "row": [1.0, bad, -0.0],
           "scalar": {"x": bad},
           "mixed": [[1, bad], [2.0, 3.0]]}[where]
    with pytest.raises(ValueError, match="Out of range float values"):
        render_json(obj)


def test_complex_values_are_written_as_entrywise_pairs():
    # a complex number or array is written with its real and imaginary
    # parts on a last axis of length 2, -0.0 as 0.0; a real array as is
    rng = np.random.default_rng(11)
    M = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    M[0, 0] = complex(-0.0, -0.0)

    def pairs(A):
        """The entrywise [re, im] lists of a number, vector or matrix."""
        if np.ndim(A) == 0:
            return [float(np.real(A)), float(np.imag(A))]
        return [pairs(a) for a in A]

    for A in (M, M[1], M.T, M[:, 0].conj(), M.astype(np.complex64),
              np.zeros((0, 2), dtype=complex),
              np.zeros(0, dtype=complex), M[2, 1], complex(3.0, -0.0)):
        text = render_json(A)
        assert json.loads(text) == pairs(A)
        assert not NEGATIVE_ZERO.search(text)
        assert json.loads(render_json({"z": [A]})) == {"z": [pairs(A)]}
    assert json.loads(render_json(M.real)) == M.real.tolist()


def _float_array(shape, seed: int) -> np.ndarray:
    """Floats over the whole exponent range in `shape`, with -0.0, a
    subnormal and +-1e308 among the first entries."""
    flat = np.array(_spread_floats(np.random.default_rng(seed), math.prod(shape)))
    specials = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.0]
    flat[:len(specials)] = specials[:flat.size]
    return flat.reshape(shape)


def _signed_repeats(shape, seed: int) -> np.ndarray:
    """Floats of `shape` drawn from a few magnitudes, zero among them, each
    with a random sign: every magnitude repeats, mostly with both signs."""
    rng = np.random.default_rng(seed)
    magnitudes = np.abs(_spread_floats(rng, 5) + [0.0, 1.0, 0.1])
    return rng.choice(magnitudes, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def _hermitian(size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return M + M.conj().T


def _pairs(M: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of M on a last axis of length 2."""
    return np.stack((M.real, M.imag), -1)


MAX_FLOAT = 1.7976931348623157e308


def _negatives(count: int, seed: int) -> np.ndarray:
    """Negative floats over the whole exponent range, subnormals and the
    extremes included."""
    rng = np.random.default_rng(seed)
    mags = np.ldexp(rng.uniform(0.5, 1.0, count), rng.integers(-1073, 1025, count))
    return -np.concatenate((mags, [5e-324, 2.2250738585072014e-308, 1.0, MAX_FLOAT]))


def _assert_written_as_lists(a):
    """Every entry of `a` reads back bit for bit, -0.0 as 0.0, in C or
    Fortran order and wherever the array sits in the report."""
    want = a + 0.0
    for arr in (a, np.asfortranarray(a)):
        got = json.loads(render_json(arr))
        assert got == want.tolist()
        assert np.array(got, dtype=float).tobytes() == want.tobytes()
        for obj in ({"outer": {"inner": arr}}, [[arr], arr], [arr, 1.5, "x"],
                    [arr, arr[::-1].copy()]):
            assert json.loads(render_json(obj)) == _as_lists(obj)


ARRAY_SHAPES = [(0,), (3,), (0, 2), (1, 0), (1, 0, 2), (4, 3, 2), (41, 41, 2),
                (2, 3, 4, 2)]


@pytest.mark.parametrize("shape", ARRAY_SHAPES, ids=str)
def test_render_json_writes_an_array_as_its_lists(shape):
    _assert_written_as_lists(_float_array(shape, seed=len(shape) + sum(shape)))


ARRAY_EDGE_CASES = {
    "repeats-(40,)": _signed_repeats((40,), 1),
    "repeats-(6,5,2)": _signed_repeats((6, 5, 2), 2),
    "repeats-(3,4,5,2)": _signed_repeats((3, 4, 5, 2), 3),
    "hermitian": _pairs(_hermitian(9, 4)),
    # conj makes the diagonal's imaginary zeros -0.0
    "hermitian-conj": _pairs(_hermitian(6, 5).conj()),
    "extremes": np.array([-0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, 0.0,
                          MAX_FLOAT, -0.0, 5e-324]),
    "(0,)": np.zeros((0,)),
    "(1,)": np.array([-2.5]),
    "(1,)-zero": np.array([-0.0]),
    "(1,1,2)": np.array([[[-MAX_FLOAT, 5e-324]]]),
    "(1,1,2)-one-magnitude": np.array([[[0.75, -0.75]]]),
    "(2,0)": np.zeros((2, 0)),
    "negatives": _negatives(200, 6),
}


@pytest.mark.parametrize("a", ARRAY_EDGE_CASES.values(),
                         ids=ARRAY_EDGE_CASES.keys())
def test_render_json_matches_oracle_on_array_edge_cases(a):
    # the oracle is the array's lists: each repeat of a value, of either
    # sign, and a one-entry or empty array read back as written
    _assert_written_as_lists(a)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_render_json_rejects_non_finite_arrays(bad):
    a = _float_array((4, 3, 2), seed=3)
    a[2, 1, 1] = bad
    for obj in (a, {"K": a}, [a]):
        with pytest.raises(ValueError, match="Out of range float values"):
            render_json(obj)


def test_render_json_writes_complex_arrays_and_refuses_other_objects():
    a = np.array([[1.0 - 0.5j, -0.0j], [2.0j, 3.0]])
    want = [[[1.0, -0.5], [0.0, 0.0]], [[0.0, 2.0], [3.0, 0.0]]]
    for obj, out in ((a, want), ({"K": a}, {"K": want})):
        assert json.loads(render_json(obj)) == out
    for obj in (object(), {"K": object()}, [object()]):
        with pytest.raises(TypeError, match="cannot serialize object"):
            render_json(obj)


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


def test_numerator_matrix_without_cholesky_factor_exits_with_error_code(
        tmp_path, capsys, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    src = tmp_path / "measure.json"
    src.write_text(json.dumps(IN_MEMORY_DOCS["three_atom_measure"]))
    assert main(["--input", str(src)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: numerator matrix has no Cholesky factor: "
                          "lambda_min ")


def test_linalg_error_in_the_certificates_exits_with_error_code(
        tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, so an eigensolver that gives up inside
    # run_certificates prints one error line and exits 3, not 1
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    src = tmp_path / "refuter.json"
    src.write_text(json.dumps(load_fixture_doc("refuter")))
    assert main(["--input", str(src)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: Eigenvalues did not converge\n"
    assert not captured.out


@pytest.mark.parametrize("alphas,numerator,table", [
    ([1e80, 2e80], [0.0, 1.0, 1.0], "Pi, the numerator pairing"),
    ([1e200, 2e200], [0.0, 1.0, 1.0], "E, the numerator values"),
    ([1e200], [0.0, 1e-200], "the pole products")])
@pytest.mark.parametrize("with_report", [False, True])
def test_overflowed_pole_pairing_exits_with_error_code(
        alphas, numerator, table, with_report, tmp_path, capsys):
    # numerator z + z^2 at poles 1e80, 2e80: the pairing overflows and NaNs
    # once refuted (exit 1); at 1e200, 2e200 the numerator values overflow
    # and the exit was 2, or 3 only under --report. A pole at 1e200 under
    # 1e-200 z overflows only alpha conj(alpha), and its necessary measure
    # came out with no atom (exit 0). The tables are built without a NumPy
    # warning, so the error line is all the output, also when warnings
    # are errors (then a warning escaping main was a traceback and exit 1)
    path, out = tmp_path / "far.json", tmp_path / "far.report.json"
    path.write_text(json.dumps(
        {"symbol": {"alphas": [[x, 0.0] for x in alphas],
                    "numerators": [[[c, 0.0] for c in numerator]]}}))
    argv = ["--input", str(path)] + (["--report", str(out)] if with_report else [])
    message = f"error: pole pairing: {table}, is not finite\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == message
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cauchydual"] + argv,
        capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_ERROR, message, "")
    assert not out.exists()


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


@pytest.mark.parametrize("c1,c2", [(1e-12, 1e-12), (1e-6, 1e6)])
def test_antipodal_extreme_weights_certify(c1, c2, tmp_path, capsys):
    # weights at which the radical form in symbol_oracle cancels in floats:
    # its gamma3 is 6.7e-5 off at 1e-12 : 1e-12, and its symbol fails the
    # Schur check at 1e-6 : 1e6
    path = tmp_path / "antipodal.json"
    path.write_text(json.dumps({"antipodal": {"c1": c1, "c2": c2}}))
    assert main(["--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("CertifiedSubnormal (orthogonality), ")


def test_antipodal_overflowing_weights_exit_with_error_code(tmp_path, capsys):
    # h^3 is a product, which overflows to inf; h ** 3 would raise
    # OverflowError and print errno 34 in place of the offending value
    path = tmp_path / "antipodal.json"
    path.write_text(json.dumps({"antipodal": {"c1": 1e300, "c2": 1e300}}))
    assert main(["--input", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: pole or numerator coefficient (inf+0j) is not finite\n")


def test_antipodal_decade_grid_is_never_refuted(tmp_path, capsys):
    # PAPER.md: c1 delta_1 + c2 delta_{-1} has a subnormal Cauchy dual for
    # all c1, c2 > 0, so no pair may be refuted. Past a ratio of 1e14 the
    # float symbol may fail its Schur check (exit 3, 33 pairs here)
    path = tmp_path / "antipodal.json"
    exits = {}
    for i in range(-12, 13):
        for j in range(-12, 13):
            path.write_text(json.dumps({"antipodal": {"c1": 10.0 ** i,
                                                      "c2": 10.0 ** j}}))
            exits[i, j] = main(["--input", str(path)])
            out = capsys.readouterr().out
            if abs(i - j) <= 14:
                assert exits[i, j] == 0 and out.startswith(
                    "CertifiedSubnormal (orthogonality), "), (i, j)
    assert set(exits.values()) <= {0, EXIT_ERROR}


@pytest.mark.parametrize("theta,weight", [(0.1, 100.0), (0.12, 50.0),
                                          (0.15, 50.0), (0.3, 300.0)])
def test_failed_necessary_measure_refutes_before_orthogonality(
        theta, weight, tmp_path, capsys):
    # atoms at 0 and theta with weights 1 and w: orthogonality passes, but
    # the necessary measure fails, and a failed necessary condition refutes
    path, out = tmp_path / "two.json", tmp_path / "two.report.json"
    path.write_text(json.dumps({"measure": {"atoms": [
        {"theta_radians": 0.0, "weight": 1.0},
        {"theta_radians": theta, "weight": weight}]}}))
    assert main(["--input", str(path), "--report", str(out)]) == 1
    assert capsys.readouterr().out.startswith("RefutedAtLevel ")
    rep = json.loads(out.read_text())
    cert = rep["certificates"]
    assert cert["refuted_by"] == "necessary_measure"
    assert cert["orth_passed"] and not cert["necessary"]["passed"]
    assert cert["orthogonality_conflict"] is True
    # the candidate measure orthogonality offers shows the failure too: a
    # negative density and moments that miss the kernel table
    measure = rep["representing_measure"]
    assert measure["density_min"] <= -1e-6
    assert measure["max_residual"] >= 1e-7


def test_unrenderable_report_exits_with_error_code(tmp_path, capsys, monkeypatch):
    # A report that cannot be rendered is an error (exit 3), not a verdict:
    # exit 1 would read as RefutedAtLevel.
    original = cli.build_report

    def with_nan(*args):
        report = original(*args)
        report["certificates"] = dataclasses.replace(
            report["certificates"], orth_residual=float("nan"))
        return report

    monkeypatch.setattr(cli, "build_report", with_nan)
    rc, out = _run_report(tmp_path, "refuter")
    assert rc == EXIT_ERROR
    # a prefix: later Pythons append the value
    assert capsys.readouterr().err.startswith(
        "error: Out of range float values are not JSON compliant")
    assert not out.exists()


def test_cyclic_report_exits_with_error_code(tmp_path, capsys, monkeypatch):
    # render_json skips json's cycle check, as build_report makes a tree; a
    # cycle would still end as a RecursionError, an error (exit 3), with no
    # report written
    original = cli.build_report

    def cyclic(*args):
        report = original(*args)
        report["cyclic"] = report
        return report

    monkeypatch.setattr(cli, "build_report", cyclic)
    rc, out = _run_report(tmp_path, "refuter")
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: maximum recursion depth exceeded")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_non_finite_table_exits_with_error_code(tmp_path, capsys, monkeypatch):
    # the tables reach render_json as arrays; a NaN in the dumped Taylor
    # rows is still an error
    original = certify.run_certificates

    def with_nan(*args):
        result = original(*args)
        taylor = result.taylor.copy()
        taylor[3, 0] = complex(float("nan"), 0.0)
        return dataclasses.replace(result, taylor=taylor)

    monkeypatch.setattr(certify, "run_certificates", with_nan)
    rc, out = _run_report(tmp_path, "refuter", "--dump-tables")
    assert rc == EXIT_ERROR
    # a prefix: later Pythons append the value
    assert capsys.readouterr().err.startswith(
        "error: Out of range float values are not JSON compliant")
    assert not out.exists()


def test_failed_allocation_exits_with_error_code(capsys, monkeypatch):
    # numpy raises MemoryError for an array it cannot allocate, as a huge
    # --trunc or --levels asks for; that is an error (exit 3), never the
    # refutation exit 1 of an uncaught exception
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 29.1 TiB")

    monkeypatch.setattr(certify, "run_certificates", out_of_memory)
    for flag in ("--trunc", "--levels"):
        argv = ["--input", str(FIXTURES / "refuter.json"), flag, "1000000000000"]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: Unable to allocate 29.1 TiB\n"


def test_package_exports_resolve():
    # the root binds the version and the library modules only: every
    # function and class has one import path, through its own module
    import cauchydual
    public = {name: value for name, value in vars(cauchydual).items()
              if not name.startswith("_")}
    assert {"certify", "kernels", "polyrat", "symbolpipe"} <= public.keys()
    for name, value in public.items():
        assert getattr(value, "__name__", None) == f"cauchydual.{name}", name
    assert isinstance(cauchydual.__version__, str)


def test_readme_python_use_runs(capsys):
    # README's "Python use" block runs as written and prints the verdict
    # its last comment states
    readme = (FIXTURES.parent / "README.md").read_text()
    block = readme.split("## Python use", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    expected = code.rstrip().rsplit("# ", 1)[1]
    assert capsys.readouterr().out == expected + "\n"


def test_parser_defaults_are_the_config_defaults():
    args = cli._build_parser().parse_args(["--input", "x.json"])
    default = certify.CertificateConfig()
    assert (args.levels, args.trunc) == (default.levels, default.trunc)


def test_bad_levels_names_the_value(capsys):
    argv = ["--input", str(FIXTURES / "refuter.json"), "--levels", "0"]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        "error: need levels >= 1 and trunc >= 2, got levels=0, trunc=40\n")


def test_report_path_that_is_a_directory(tmp_path, capsys):
    # refused by name before a temporary file is made beside it
    argv = ["--input", str(FIXTURES / "refuter.json"), "--report", str(tmp_path)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: cannot write {tmp_path}: is a directory\n"
    assert not list(tmp_path.parent.glob(".report-*.tmp"))
    assert not any(tmp_path.iterdir())


def test_failed_rename_leaves_no_temporary_file(tmp_path, capsys, monkeypatch):
    # the temporary report is written, then the rename over PATH fails
    def no_rename(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_rename)
    out = tmp_path / "out.json"
    argv = ["--input", str(FIXTURES / "refuter.json"), "--report", str(out)]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: [Errno 28] No space left on device\n")
    assert not any(tmp_path.iterdir())


def _random_twenty_atoms(i: int) -> list:
    """Seeded draw i of 20 atoms at circular gaps above 0.05, weights
    log-uniform in [0.1, 5]."""
    mu = random_measure(np.random.default_rng([0, 20, i]), 20, min_gap=0.05)
    return list(zip(mu.thetas, mu.weights))


@pytest.mark.parametrize("atoms", [
    *([(2.0 * math.pi * j / k, 1.0) for j in range(k)] for k in (16, 18, 20)),
    *(_random_twenty_atoms(i) for i in range(8)),
], ids=["16", "18", "20", *(f"random20-{i}" for i in range(8))])
def test_equally_spaced_atoms_build_or_name_the_failed_check(atoms, tmp_path, capsys):
    # ROADMAP aim 3 admits k <= 20 atoms: the pipeline builds a symbol or
    # names the check that stopped it (the ring of 18 stops at the
    # degree-zero edge, the ring of 20 at the band's hermitian side gap;
    # of the random draws, 3 stops at the factorization residual, 4 at the
    # smallest circle sample and the others at the degree-zero edge)
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"measure": {"atoms": [
        {"theta_radians": theta, "weight": weight} for theta, weight in atoms]}}))
    code = main(["--input", str(path)])
    out, err = capsys.readouterr()
    if code == EXIT_ERROR:
        # one line that names the check, its value and its bound or floor
        assert re.fullmatch(r"error: [^\n]+ check: \S+ is not (<=|>) \S+\n", err)
        assert not out
    else:
        assert code in (0, 1, 2) and not err
        assert out.endswith(f"exit={code}\n")


@pytest.mark.parametrize("doc,line", [
    ({"measure": {"atoms": [{"theta_radians": 0.0, "weight": 1.0},
                            {"theta_radians": 2.0 * math.pi, "weight": 2.0}]}},
     f"gap of atoms 0 and 1 (theta 0.0 vs {2.0 * math.pi}) check: 2.4492936e-16 "
     "is not > 1e-09"),
    ({"symbol": {"alphas": [[0.5, 0.0]], "numerators": [[[0, 0], [0.1, 0]]]}},
     "modulus of pole (0.5+0j) check: 0.5 is not > 1"),
    ({"symbol": {"alphas": [[2.0, 0.0], [2.0, 0.0]],
                 "numerators": [[[0, 0], [0.1, 0]], [[0, 0], [0, 0], [0.1, 0]]]}},
     "gap of poles (2+0j) and (2+0j) check: 0 is not > 1e-09"),
    ({"symbol": {"alphas": [[2.0, 0.0]], "numerators": [[[0.1, 0], [0.1, 0]]]}},
     "numerator 0 constant term check: 0.1 is not <= 1e-14"),
], ids=["atom-gap", "pole-modulus", "pole-gap", "constant-term"])
def test_admissibility_checks_exit_with_one_line(doc, line, tmp_path, capsys):
    # the admissible-class checks print their value and bound or floor as
    # the pipeline's self-checks do
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main(["--input", str(path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert err == f"error: {line}\n" and not out


def test_overflowing_atom_stops_at_the_schur_check(tmp_path):
    # tau = 1e300 puts the pole at 1e300: the Schur samples overflow to a
    # NaN row norm, which the check rejects in one line and no warning
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"single_atom": {"tau": 1e300}}))
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual", "--input", str(path)],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr == "error: Schur row norm check: nan is not <= 1.00000001\n"
    assert not proc.stdout


@pytest.mark.parametrize("atoms,message", [
    ([(0.5, 1e200)], "factor constant gamma check: 0 is not > 0"),
    ([(0.5, 1e154)], "cholesky split residual check: nan is not <= inf"),
    ([(0.0, 3.2e307), (2.0, 3.2e307)],
     "smallest circle sample vs 1e-10 x largest check: inf is not > inf"),
], ids=["gamma", "cholesky", "band"])
def test_overflowing_measure_stops_at_its_check(atoms, message, tmp_path):
    # weights near the float range overflow the factor constant, the
    # numerator matrix or the averaged band; the check that rejects the
    # non-finite value prints one line, and no NumPy warning comes first,
    # so warnings as errors still exit 3, not 1 with a traceback
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"measure": {"atoms": [
        {"theta_radians": theta, "weight": weight} for theta, weight in atoms]}}))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "cauchydual",
         "--input", str(path)],
        capture_output=True, text=True, env=src_env())
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        EXIT_ERROR, f"error: {message}\n", "")


def test_spike_symbol_stops_at_the_schur_check(tmp_path, capsys):
    # |B| = 1.5e-4 / (|alpha| - 1) = 1.5 at the pole's direction
    # exp(i pi / 512), which lies between the Schur grid's points, where
    # the row norm stays below 6e-4
    alpha = 1.0001 * cmath.exp(1j * math.pi / 512)
    path = tmp_path / "spike.json"
    path.write_text(json.dumps(
        {"symbol": {"alphas": [[alpha.real, alpha.imag]],
                    "numerators": [[[0.0, 0.0], [1.5e-4, 0.0]]]}}))
    assert main(["--input", str(path)]) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert err == "error: Schur row norm check: 2.25 is not <= 1.00000001\n"
    assert not out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--input", "x.json", "--bogus", "7"],   # unknown flag
    [],                                       # required --input missing
    ["--input", "x.json", "--levels", "ten"], # non-integer value
    # the tolerances and the quadrature size are constants, not flags
    ["--input", "x.json", "--tol-psd", "1e-7"],
    ["--input", "x.json", "--tol-orth", "1e-8"],
    ["--input", "x.json", "--quad-points", "512"],
    ["--input", "x.json", "--report", ""],    # empty report path
])
def test_usage_errors_exit_with_input_error_code(argv, capsys):
    # Exit code 2 belongs to the inconclusive verdict; command-line mistakes
    # must surface as EXIT_ERROR so status-only callers cannot confuse them.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_ERROR
    assert "usage:" in capsys.readouterr().err


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # one parser serves every call in the process; each report's config
    # and tables follow its own flags, and --version and usage errors
    # behave as on a first call
    fixture = str(FIXTURES / "single_atom_tau1.json")
    flags, plain, again = (tmp_path / f"{n}.json" for n in ("flags", "plain", "again"))
    assert main(["--input", fixture, "--levels", "5", "--trunc", "30",
                 "--dump-tables", "--report", str(flags)]) == 0
    assert main(["--input", fixture, "--report", str(plain)]) == 0
    assert cli._build_parser() is cli._build_parser()
    first, second = (json.loads(p.read_text()) for p in (flags, plain))
    assert first["config"] == {"levels": 5, "trunc": 30, "tol_psd": 1e-8,
                               "tol_orth": 1e-9, "quad_points": 4096}
    assert second["config"] == {"levels": 12, "trunc": 40, "tol_psd": 1e-8,
                                "tol_orth": 1e-9, "quad_points": 4096}
    assert len(first["tables"]["B_rows"]) == 35 and "tables" not in second
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out
    for argv in ([], ["--input", fixture, "--levels", "ten"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_ERROR
        assert "usage:" in capsys.readouterr().err
    assert main(["--input", fixture, "--report", str(again)]) == 0
    assert json.loads(again.read_text())["config"] == second["config"]
    assert "tables" not in json.loads(again.read_text())
    capsys.readouterr()


# ------------------------------------------------------------------- reports


def _run_report(tmp_path, name, *extra):
    out = tmp_path / f"{name}.report.json"
    rc = main(["--input", str(FIXTURES / f"{name}.json"),
               "--report", str(out), *extra])
    return rc, out


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reports_match_goldens(name, tmp_path, capsys):
    _, out = _run_report(tmp_path, name)
    assert out.read_bytes() == (FIXTURES / f"{name}.golden.json").read_bytes()
    capsys.readouterr()


def _repr_names(cls) -> list:
    return [f.name for f in dataclasses.fields(cls) if f.repr]


def _all_keys(section) -> set:
    """Every dict key at any depth of a parsed report section."""
    if isinstance(section, dict):
        return set(section).union(*map(_all_keys, section.values()))
    if isinstance(section, list):
        return set().union(*map(_all_keys, section))
    return set()


@pytest.mark.parametrize("dump_tables", [False, True])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_report_sections_are_the_records(name, dump_tables, tmp_path, capsys):
    # each certificate record is its own section: its repr-shown fields in
    # declaration order, and none of the fields kept out of its repr
    _, out = _run_report(tmp_path, name, *(["--dump-tables"] if dump_tables else []))
    rep = json.loads(out.read_text())
    cert = rep["certificates"]
    assert list(cert) == _repr_names(certify.CertificateReport)
    assert list(cert["necessary"]) == _repr_names(certify.NecessaryMeasure)
    for stat in cert["agler_pole"] + cert["agler_taylor"]:
        assert list(stat) == _repr_names(certify.LevelStat)
    sections = [cert]
    if "representing_measure" in rep:
        sections.append(rep["representing_measure"])
        assert list(sections[1]) == _repr_names(certify.RepresentingMeasure)
    hidden = {f.name for cls in (certify.CertificateReport, certify.RepresentingMeasure)
              for f in dataclasses.fields(cls) if not f.repr}
    assert hidden == {"config", "taylor", "pairing", "moments"}
    for section in sections:
        assert not hidden & _all_keys(section)
    capsys.readouterr()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_goldens_hold_the_paths_the_benchmark_reads(name):
    # perfbench compares the verdict line and exit code with these paths
    # and its engine_gap metric reads the per-level eigenvalues; a report
    # change that moves them must fail here before it fails the benchmark
    golden = json.loads((FIXTURES / f"{name}.golden.json").read_text())
    cert = golden["certificates"]
    assert golden["exit_code"] == FIXTURE_EXITS[name][0]
    assert cert["verdict"] == FIXTURE_EXITS[name][1]
    levels = golden["config"]["levels"]
    assert len(cert["agler_pole"]) == len(cert["agler_taylor"]) == levels
    numbers = [s[key] for s in cert["agler_pole"] for key in ("min_eig", "norm")]
    numbers += [s["min_eig"] for s in cert["agler_taylor"]]
    assert all(type(x) is float and math.isfinite(x) for x in numbers)


def test_reports_are_deterministic(tmp_path, capsys):
    _, first = _run_report(tmp_path, "refuter")
    text1 = first.read_bytes()
    first.unlink()
    _, second = _run_report(tmp_path, "refuter")
    assert second.read_bytes() == text1
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
    assert list(rep["tables"]) == ["B_rows"]
    rows = rep["tables"]["B_rows"]
    assert len(rows) == 52 and all(len(r) == rep["pipeline"]["k"] for r in rows)
    assert all(len(entry) == 2 for row in rows for entry in row)
    capsys.readouterr()


@pytest.mark.parametrize("trunc", [40, 200])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dumped_rows_give_the_kernel_table(name, trunc, tmp_path, capsys):
    # the dump holds the Taylor rows only; README's recompute line turns
    # them back into the kernel table K bit for bit
    _, out = _run_report(tmp_path, name, "--dump-tables", "--trunc", str(trunc))
    B = np.array(json.loads(out.read_text())["tables"]["B_rows"])
    rows = B[..., 0] + 1j * B[..., 1]; K = kernels.kernel_coeffs(rows, trunc)
    _, sym = parse_input_document(load_fixture_doc(name))
    result = certify.run_certificates(sym, certify.CertificateConfig(trunc=trunc))
    assert np.array_equal(K, kernels.kernel_coeffs(result.taylor, trunc))
    capsys.readouterr()


MEASURE_DOC = {"measure": {"atoms": [
    {"theta_radians": t, "weight": w}
    for t, w in ((0.3, 1.2), (1.7, 0.4), (3.1, 2.5), (4.6, 0.9))]}}


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("measure_k4",))
def test_report_gives_q_and_eta_by_the_readme_lines(name, tmp_path, capsys):
    # q and the numerator matrix eta are not printed; README's recompute
    # lines give them back bit for bit from the poles and numerator rows
    doc = MEASURE_DOC if name == "measure_k4" else load_fixture_doc(name)
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    main(["--input", str(src), "--report", str(out)])
    report = json.loads(out.read_text())
    P = report["pipeline"]
    alphas = [complex(*a) for a in P["alphas"]]; q = from_roots(alphas)
    C = symbol_from_parts(alphas, [[complex(*c) for c in row]
                                   for row in P["numerators"]]).coefficients[:, 1:]
    eta = C.conj().T @ C; eta = 0.5 * (eta + eta.conj().T)
    kind, sym = parse_input_document(doc)
    assert "q" not in P and "eta" not in P
    assert np.array_equal(q, from_roots(sym.alphas))
    assert np.array_equal(eta, symbol_oracle.eta(sym))
    # gamma_fr is derived from the poles, and a symbol input has no measure
    assert P["gamma_fr"] == (None if kind == "symbol" else sym.gamma_fr)
    capsys.readouterr()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_run_without_report_builds_no_report(name, capsys, monkeypatch):
    # without --report the verdict alone is computed: no report is built
    # or rendered, and the exit code is the verdict's
    def refuse(*args, **kwargs):
        raise AssertionError("report built without --report")

    monkeypatch.setattr(cli, "build_report", refuse)
    monkeypatch.setattr(cli, "render_json", refuse)
    golden = json.loads((FIXTURES / f"{name}.golden.json").read_text())
    assert main(["--input", str(FIXTURES / f"{name}.json")]) == golden["exit_code"]
    assert capsys.readouterr().out.startswith(golden["certificates"]["verdict"] + " ")


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


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_representing_measure_section_only_when_orthogonal(name, tmp_path, capsys):
    # every symbol that orthogonality certifies, at any number of poles,
    # carries its representing measure; refuter and inconclusive carry none
    _, out = _run_report(tmp_path, name)
    rep = json.loads(out.read_text())
    assert "rank1" not in rep
    assert ("representing_measure" in rep) == rep["certificates"]["orth_passed"]
    assert ("representing_measure" in rep) == (name not in ("refuter", "inconclusive"))
    if name in ("refuter", "inconclusive"):
        return
    sec = rep["representing_measure"]
    assert len(sec["atoms"]) == len(sec["masses"]) == rep["pipeline"]["k"]
    for atom, alpha in zip(sec["atoms"], rep["pipeline"]["alphas"]):
        assert abs(complex(*atom) * complex(*alpha) - 1.0) <= 1e-15
    assert sec["size"] == 20
    # the density_min grid is config.quad_points, printed once
    assert list(sec) == ["atoms", "masses", "density_min", "size", "max_residual"]
    assert sec["max_residual"] <= 1e-14
    # the report prints no total mass: in closed form it is 1
    result = certify.run_certificates(load_fixture_symbol(name))
    moments = certify.representing_measure(result.pairing, result.taylor).moments
    assert abs(moments[0, 0] - 1.0) <= 1e-14
    if name == "single_atom_tau1":
        # the one-pole mate's point mass nu = |gamma|^2 / (1 - |beta|^2)
        assert abs(sec["masses"][0] - 0.44721359549995787) <= 1e-15
    capsys.readouterr()


def test_custom_flags_flow_into_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["--input", str(FIXTURES / "single_atom_tau1.json"),
               "--levels", "3", "--trunc", "12", "--report", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 0
    assert rep["config"] == {"levels": 3, "trunc": 12, "tol_psd": 1e-8,
                             "tol_orth": 1e-9, "quad_points": 4096}
    assert len(rep["certificates"]["agler_pole"]) == 3
    # 15 Taylor rows: the measure is checked up to the last one
    assert rep["representing_measure"]["size"] == 15
    capsys.readouterr()


FIXTURE_EXITS = {"antipodal_1_1": (0, "CertifiedSubnormal"),
                 "antipodal_4_1": (0, "CertifiedSubnormal"),
                 "single_atom_tau1": (0, "CertifiedSubnormal"),
                 "refuter": (1, "RefutedAtLevel"),
                 "inconclusive": (2, "InconclusiveAtTruncation")}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_module_invocation_subprocess(name):
    code, verdict = FIXTURE_EXITS[name]
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual",
         "--input", str(FIXTURES / f"{name}.json")],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == code
    assert proc.stdout.startswith(f"{verdict} (")
    assert not proc.stderr


def test_undecodable_input_exits_with_error_code(tmp_path):
    # a UTF-16 byte order mark is no UTF-8 text; an uncaught decode error
    # would exit 1, the RefutedAtLevel code
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"antipodal": {}}'.encode("utf-16-le"))
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual", "--input", str(path)],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith(f"error: {path} is not valid JSON: ")


def test_input_is_read_as_utf8_in_an_ascii_locale(tmp_path):
    # in the C locale with UTF-8 mode and locale coercion off the preferred
    # encoding is ASCII; the document is still UTF-8, so the field is named
    path = tmp_path / "accent.json"
    path.write_bytes('{"antipodal": {"c1": 1, "c2": 1, "é": 0}}'.encode("utf-8"))
    env = dict(src_env(), LC_ALL="C", LANG="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual", "--input", str(path)],
        capture_output=True, env=env)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith(b"error: invalid input field antipodal."), proc.stderr
    assert proc.stderr.rstrip().endswith(b": unknown field"), proc.stderr


def test_import_leaves_numpy_polynomial_unloaded():
    # each of these costs milliseconds per fresh interpreter, and the
    # package needs none of them: it finds its roots without
    # numpy.polynomial and imports no SciPy
    unwanted = ("numpy.polynomial", "scipy", "numpy.ma", "numpy.fft", "numpy.random")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cauchydual, cauchydual.cli, sys; "
         f"print([name for name in {unwanted!r} if name in sys.modules])"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
