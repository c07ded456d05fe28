"""Command line: input parsing, report rendering, exit codes, goldens."""

import dataclasses
import json
import math
import os
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cauchydual import __version__, certify, cli, kernels
from cauchydual.polyrat import from_roots
from cauchydual.symbolpipe import symbol_from_parts
from cauchydual.cli import (
    EXIT_ERROR,
    InputError,
    _cmatrix,
    build_report,
    main,
    parse_input_document,
    render_json,
    write_atomic,
)

import render_oracle
import symbol_oracle
from conftest import (FIXTURES, FIXTURE_NAMES, load_fixture_doc,
                      load_fixture_symbol, src_env)


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
    """`obj` with every ndarray in it replaced by its nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(v) for v in obj]
    return obj


@pytest.mark.parametrize("dump_tables,trunc,levels,names", [
    pytest.param(False, 40, 12, FIXTURE_NAMES + tuple(IN_MEMORY_DOCS), id="False"),
    pytest.param(True, 40, 12, FIXTURE_NAMES + tuple(IN_MEMORY_DOCS), id="True"),
    pytest.param(True, 200, 12, ("refuter", "single_atom_tau1"), id="True-N200"),
])
def test_render_json_matches_oracle_on_fixture_reports(dump_tables, trunc, levels,
                                                       names):
    for name, report in _fixture_reports(dump_tables, trunc, levels, names):
        assert render_json(report) == render_oracle.render_json(_as_lists(report)), name


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

    def pairs(A):
        """The entrywise [re, im] lists of a number, vector or matrix."""
        if np.ndim(A) == 0:
            return [float(np.real(A)), float(np.imag(A))]
        return [pairs(a) for a in A]

    for A in (M, M[1], M.real, np.zeros((0, 2), dtype=complex),
              np.zeros(0, dtype=complex),
              M[2, 1], 1.5, -2, np.float64(0.25), complex(3.0, -0.0)):
        want = pairs(A)
        got = _cmatrix(A)
        assert got.dtype == np.float64
        assert got.shape == np.shape(A) + (2,)
        assert got.tolist() == want
        assert render_json(got) == render_oracle.render_json(want)


def _float_array(shape, seed: int) -> np.ndarray:
    """Floats over the whole exponent range in `shape`, with -0.0, a
    subnormal and +-1e308 among the first entries."""
    flat = np.array(_spread_floats(np.random.default_rng(seed), math.prod(shape)))
    specials = [-0.0, 5e-324, -2.5e-310, 1e308, -1e308, 0.0]
    flat[:len(specials)] = specials[:flat.size]
    return flat.reshape(shape)


ARRAY_SHAPES = [(0,), (3,), (0, 2), (1, 0), (1, 0, 2), (4, 3, 2), (41, 41, 2),
                (2, 3, 4, 2)]


@pytest.mark.parametrize("shape", ARRAY_SHAPES, ids=str)
def test_render_json_writes_an_array_as_its_lists(shape):
    a = _float_array(shape, seed=len(shape) + sum(shape))
    arrays = [a, a.T.copy().T]   # C order, and the same values in Fortran order
    for arr in arrays:
        for indent in range(4):
            assert (render_json(arr, indent)
                    == render_oracle.render_json(arr.tolist(), indent))
            for obj in ({"outer": {"inner": arr}}, [[arr], arr], [arr, 1.5, "x"]):
                assert (render_json(obj, indent)
                        == render_oracle.render_json(_as_lists(obj), indent))


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


MAX_FLOAT = 1.7976931348623157e308


def _negatives(count: int, seed: int) -> np.ndarray:
    """Negative floats over the whole exponent range, subnormals and the
    extremes included."""
    rng = np.random.default_rng(seed)
    mags = np.ldexp(rng.uniform(0.5, 1.0, count), rng.integers(-1073, 1025, count))
    return -np.concatenate((mags, [5e-324, 2.2250738585072014e-308, 1.0, MAX_FLOAT]))


ARRAY_EDGE_CASES = {
    "repeats-(40,)": _signed_repeats((40,), 1),
    "repeats-(6,5,2)": _signed_repeats((6, 5, 2), 2),
    "repeats-(3,4,5,2)": _signed_repeats((3, 4, 5, 2), 3),
    "hermitian": _cmatrix(_hermitian(9, 4)),
    # conj makes the diagonal's imaginary zeros -0.0
    "hermitian-conj": _cmatrix(_hermitian(6, 5).conj()),
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
    # every entry fills its own "%.17g" field in the one fill, so each
    # repeat of a value, of either sign, must read as the oracle writes
    # that entry, -0.0 as "0"; a one-entry array fills a one-field template
    for indent in range(3):
        for obj in (a, {"K": a}, [a, a[::-1].copy()]):
            assert (render_json(obj, indent)
                    == render_oracle.render_json(_as_lists(obj), indent))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_render_json_rejects_non_finite_arrays(bad):
    a = _float_array((4, 3, 2), seed=3)
    a[2, 1, 1] = bad
    for obj in (a, {"K": a}, [a]):
        with pytest.raises(ValueError, match="non-finite float in report"):
            render_json(obj)


@pytest.mark.parametrize("a", [np.arange(6).reshape(3, 2), np.ones(3, dtype=bool),
                               np.ones((2, 2), dtype=complex),
                               np.ones(3, dtype=np.float32), np.array(1.5)],
                         ids=["int", "bool", "complex", "float32", "0-d"])
def test_render_json_rejects_arrays_that_are_not_float64(a):
    for obj in (a, {"K": a}):
        with pytest.raises(TypeError, match="cannot serialize"):
            render_json(obj)


PERCENT_TEXTS = ["%", "%s", "%%", "%%s", "%.17g", "100% sure", "%(x)s", "s%", "%d%%"]


@pytest.mark.parametrize("text", PERCENT_TEXTS)
def test_render_json_writes_percent_signs_as_given(text):
    # the report is one %-template, so a "%" in a key or a string must
    # come out as written, next to floats, arrays or neither
    a = np.array([[-1.5, 0.25], [text.count("%") + 0.5, -0.0]])
    for obj in (text, [text], {text: text}, {text: 1.5, "x": [text, -2.0]},
                [text, a, {text: a}], {"k": a, text: [0.1, text], "z": text}):
        for indent in range(3):
            assert (render_json(obj, indent)
                    == render_oracle.render_json(_as_lists(obj), indent))
    assert json.loads(render_json({text: [text, 1.5]})) == {text: [text, 1.5]}


def test_render_json_without_floats():
    obj = {"tool": {"name": "cauchydual", "version": "1%"}, "n": 3,
           "flags": [True, False, None], "empty": np.zeros((2, 0)),
           "nested": [[], {}, ["%s", 7]], "pct%": "%%"}
    for indent in range(3):
        assert (render_json(obj, indent)
                == render_oracle.render_json(_as_lists(obj), indent))


def test_render_json_fills_floats_in_text_order():
    # scalars between arrays: each float's field must get its own value
    a = _float_array((3, 2), seed=5)
    b = _signed_repeats((2, 2, 2), seed=6)
    as_dict = {"x": 1.5, "a": a, "y": -2.25, "b": b, "z": [0.1, -0.1],
               "e": np.zeros((0, 2)), "w": 5e-324}
    as_list = [1.5, a, -2.25, b, [0.1, -0.1], 7, np.zeros((0,)), -MAX_FLOAT]
    for obj in (as_dict, as_list, (as_list[0], as_dict, as_list[1])):
        for indent in range(3):
            assert (render_json(obj, indent)
                    == render_oracle.render_json(_as_lists(obj), indent))
        assert json.loads(render_json(obj)) == json.loads(
            json.dumps(_as_lists(obj)))


_FINITE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                  | st.sampled_from([-0.0, 5e-324, MAX_FLOAT, -MAX_FLOAT]))
_PERCENT_STRINGS = st.text(st.sampled_from('%sd.17g "\\\n\u00e9'), max_size=6)
_JSON_LEAVES = (st.none() | st.booleans() | st.integers() | _FINITE_FLOATS
                | _FINITE_FLOATS.map(np.float64) | _PERCENT_STRINGS
                | hnp.arrays(np.float64,
                             hnp.array_shapes(min_dims=1, max_dims=3,
                                              min_side=0, max_side=3),
                             elements=_FINITE_FLOATS))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_PERCENT_STRINGS, children, max_size=4)),
    max_leaves=16)


@settings(deadline=None, max_examples=200)
@given(_JSON_TREES, st.integers(0, 2))
def test_render_json_matches_oracle_on_random_trees(obj, indent):
    assert render_json(obj, indent) == render_oracle.render_json(_as_lists(obj), indent)


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
    # came out with no atom (exit 0)
    path, out = tmp_path / "far.json", tmp_path / "far.report.json"
    path.write_text(json.dumps(
        {"symbol": {"alphas": [[x, 0.0] for x in alphas],
                    "numerators": [[[c, 0.0] for c in numerator]]}}))
    argv = ["--input", str(path)] + (["--report", str(out)] if with_report else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: pole pairing: {table}, is not finite\n"
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
    assert measure["measure_check"]["max_residual"] >= 1e-7


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
    assert "error: non-finite float in report" in capsys.readouterr().err
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
    # every exported name exists, and none is listed twice
    import cauchydual
    assert len(set(cauchydual.__all__)) == len(cauchydual.__all__)
    for name in cauchydual.__all__:
        assert hasattr(cauchydual, name), name


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
    assert sec["measure_check"]["size"] == 20
    # the density_min grid is config.quad_points, printed once
    assert list(sec["measure_check"]) == ["size", "max_residual"]
    assert sec["measure_check"]["max_residual"] <= 1e-14
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
    assert rep["representing_measure"]["measure_check"]["size"] == 15
    capsys.readouterr()


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cauchydual",
         "--input", str(FIXTURES / "antipodal_1_1.json")],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert "CertifiedSubnormal" in proc.stdout


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


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs milliseconds per fresh interpreter, and the
    # package finds its roots without it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import cauchydual, cauchydual.cli, sys; "
         "print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
