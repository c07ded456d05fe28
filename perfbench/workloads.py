"""Inputs, operations and output checks of the three benchmark workloads.

Every input is made here from the workload seed; the library only sees the
generated measures, symbols and fixture files. Random measures come from a
fixed pool (`POOL_*` below) so that `reference.json`, recorded once from
the seed code by `make_reference.py`, holds the expected outcome of every
input any seed can draw.

`build` makes a workload's inputs (the work `setup_s` times);
`load_expected` then attaches what each output is checked against.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from cauchydual import certify, cli, symbolpipe

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# The pool of random measures: POOL_PER_K measures for each atom count k,
# entry (k, i) drawn from its own generator seeded with (POOL_SEED, k, i).
POOL_SEED = 2103
POOL_PER_K = 64
POOL_KS = tuple(range(1, 9))
MIN_GAP = 0.3
MIN_WEIGHT, MAX_WEIGHT = 0.1, 5.0

# measure_scan: distinct measures per k that one seed draws from the pool.
SCAN_PER_K = 16
# deep_truncation: (N, L) = (trunc, levels) grid, and the atom counts of the
# pipeline-built symbols that join the five fixtures; each is drawn from
# the first DEEP_POOL entries of its k.
DEEP_GRID = ((200, 12), (40, 80), (120, 40))
DEEP_KS = (4, 8)
DEEP_POOL = 8

# Largest difference allowed, per level and engine, between an output's
# min_eig/norm and the reference's, and between their norms relative to
# the reference norm. At N=40, L=12 the seed's two engines agree within
# 2e-10 over the whole pool. On the deep_truncation grid the seed's Taylor
# engine drifts from the pole engine by up to 1.4e-4 at L=80, which a
# corrected engine may remove.
SCAN_TOL = 1e-8
DEEP_TOL = 1e-3


class StaleReferenceError(RuntimeError):
    """The generated inputs do not match the recorded reference."""


def draw_measure(k: int, index: int) -> symbolpipe.CircleMeasure:
    """Pool entry (k, index): sorted atoms with circular gaps > MIN_GAP and
    log-uniform weights, as scripts/random_measure_scan.py draws them."""
    rng = np.random.default_rng([POOL_SEED, k, index])
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k == 1 or gaps.min() > MIN_GAP:
            break
    weights = np.exp(rng.uniform(np.log(MIN_WEIGHT), np.log(MAX_WEIGHT), size=k))
    return symbolpipe.CircleMeasure(tuple(thetas), tuple(weights))


def measure_digest(mu: symbolpipe.CircleMeasure) -> str:
    raw = np.asarray(mu.thetas + mu.weights, dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()[:16]


def pool_key(k: int, index: int) -> str:
    return f"{k}/{index}"


def deep_key(name: str, trunc: int, levels: int) -> str:
    return f"{name}@{trunc}x{levels}"


def certificate_record(report: certify.CertificateReport) -> dict:
    """What is compared with the reference: the verdict, whether the Agler
    levels passed, [min_eig/norm, norm] per level for each engine, and the
    monotone test's result while the report carries one."""
    def levels(stats):
        return [[s.min_eig / max(s.norm, 1e-300), s.norm] for s in stats]
    record = {"outcome": [report.verdict, report.certified_by,
                          report.refuted_by, report.refuted_level],
              "agler_passed": report.agler_passed,
              "pole": levels(report.agler_pole),
              "taylor": levels(report.agler_taylor)}
    if hasattr(report, "monotone_passed"):
        record["monotone_passed"] = report.monotone_passed
    return record


def same_certificates(expected: dict, got: dict, tol: float) -> bool:
    if any(got[name] != expected[name] for name in ("outcome", "agler_passed")):
        return False
    if "monotone_passed" in got and got["monotone_passed"] != expected["monotone_passed"]:
        return False
    for engine in ("pole", "taylor"):
        if len(got[engine]) != len(expected[engine]):
            return False
        for (ratio, norm), (ref_ratio, ref_norm) in zip(got[engine], expected[engine]):
            if abs(ratio - ref_ratio) > tol or abs(norm - ref_norm) > tol * ref_norm:
                return False
    return True


def load_reference(path: str = REFERENCE) -> dict:
    with open(path) as handle:
        return json.load(handle)


def fixture_names(fixtures: str) -> list:
    return sorted(name[:-len(".golden.json")] for name in os.listdir(fixtures)
                  if name.endswith(".golden.json"))


def fixture_symbol(fixtures: str, name: str):
    with open(os.path.join(fixtures, f"{name}.json")) as handle:
        return cli.parse_input_document(json.load(handle))[1]


def check_digest(reference: dict, key: str) -> None:
    """Confirm pool entry `key` draws the measure the reference was
    recorded for."""
    k, index = map(int, key.split("/"))
    if measure_digest(draw_measure(k, index)) != reference["measure_scan"][key]["digest"]:
        raise StaleReferenceError(
            f"pool entry {key} differs from the recorded one; "
            "regenerate reference.json with make_reference.py")


# ------------------------------------------------------------ operations
#
# An operation takes one input and returns its raw outcome; a workload's
# `check` turns that into what is compared and compares it with the
# expected one, after the timer stopped. Calls go through the module
# attributes (`certify.run_...`) so the tracer's wrappers see them.

def scan_op(mu):
    try:
        sym = symbolpipe.measure_to_symbol(mu)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        return {"rejected": type(exc).__name__}
    return {"report": certify.run_certificates(sym, certify.CertificateConfig())}


def deep_op(item):
    sym, cfg = item
    return {"report": certify.run_certificates(sym, cfg)}


def cli_op(item):
    in_path, out_path = item
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["--input", in_path, "--report", out_path,
                         "--dump-tables"])
    return {"exit_code": code, "stdout": stdout.getvalue(), "path": out_path}


def scan_check(expected: dict, got: dict) -> tuple:
    """(failed, mismatch). The pipeline's answer for a measure is a symbol
    or a named rejection. A rejection where the seed code rejected the
    measure too is the expected answer; where the seed code built the
    symbol it is a failed, mismatched operation. Where the seed code
    rejected the measure there is no recorded verdict, so a later fix that
    builds the symbol is accepted."""
    if "rejected" in got:
        bad = "outcome" in expected
        return bad, bad
    if "outcome" not in expected:
        return False, False
    bad = not same_certificates(expected, certificate_record(got["report"]), SCAN_TOL)
    return bad, bad


def deep_check(expected: dict, got: dict) -> tuple:
    bad = not same_certificates(expected, certificate_record(got["report"]), DEEP_TOL)
    return bad, bad


def engine_gap(got) -> float | None:
    """Largest |pole - Taylor| min_eig over the levels, relative to the
    pole engine's norm; None where no certificate report came back."""
    report = (got or {}).get("report")
    if report is None:
        return None
    if isinstance(report, dict):
        pole = [(s["min_eig"], s["norm"]) for s in report["certificates"]["agler_pole"]]
        taylor = [s["min_eig"] for s in report["certificates"]["agler_taylor"]]
    else:
        pole = [(s.min_eig, s.norm) for s in report.agler_pole]
        taylor = [s.min_eig for s in report.agler_taylor]
    return max((abs(p - t) / max(norm, 1e-300)
                for (p, norm), t in zip(pole, taylor)), default=0.0)


GOLDEN_SKIP = ("timestamp", "tables")


def cli_check(golden: dict, got: dict) -> tuple:
    """Verdict line, exit code and every report section but the timestamp
    and the tables against the committed golden. The report file is
    removed once read, so a later round cannot read a stale one."""
    try:
        with open(got["path"]) as handle:
            report = json.load(handle)
        got["bytes"] = os.path.getsize(got["path"])
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(got["path"])
    got["report"] = report
    same = (got["exit_code"] == golden["exit_code"]
            and got["stdout"].startswith(golden["certificates"]["verdict"] + " ")
            and {k: v for k, v in report.items() if k not in GOLDEN_SKIP}
            == {k: v for k, v in golden.items() if k not in GOLDEN_SKIP})
    return not same, not same


# ---------------------------------------------------------------- inputs

@dataclass
class Workload:
    """One round of inputs: `items` is a list of (key, input), and
    `expected` maps each key to what its output is checked against. A run
    repeats whole rounds, so every run sees the same mix."""

    name: str
    op: Callable
    check: Callable
    items: list
    expected: dict = field(default_factory=dict)


def build(name: str, seed: int, fixtures: str, scratch: str | None = None) -> Workload:
    """The workload's inputs for `seed`, with the symbols deep_truncation
    runs on already built."""
    rng = np.random.default_rng(seed)
    if name == "cli_reports":
        names = fixture_names(fixtures)
        items = [(names[i], (os.path.join(fixtures, f"{names[i]}.json"),
                             os.path.join(scratch or ".", f"{names[i]}.report.json")))
                 for i in rng.permutation(len(names))]
        return Workload(name, cli_op, cli_check, items)

    if name == "measure_scan":
        chosen = {k: rng.choice(POOL_PER_K, size=SCAN_PER_K, replace=False)
                  for k in POOL_KS}
        items = [(pool_key(k, int(chosen[k][j])), draw_measure(k, int(chosen[k][j])))
                 for j in range(SCAN_PER_K) for k in POOL_KS]
        return Workload(name, scan_op, scan_check, items)

    if name == "deep_truncation":
        symbols = [(fx, fixture_symbol(fixtures, fx)) for fx in fixture_names(fixtures)]
        for k in DEEP_KS:
            index = int(rng.integers(DEEP_POOL))
            symbols.append((pool_key(k, index),
                            symbolpipe.measure_to_symbol(draw_measure(k, index))))
        items = [(deep_key(key, trunc, levels),
                  (sym, certify.CertificateConfig(levels=levels, trunc=trunc)))
                 for trunc, levels in DEEP_GRID for key, sym in symbols]
        return Workload(name, deep_op, deep_check, items)

    raise ValueError(f"unknown workload {name!r}")


def load_expected(wl: Workload, fixtures: str, reference: dict | None = None) -> None:
    """Fill `wl.expected`: the committed goldens for cli_reports, the
    reference entries otherwise."""
    if wl.name == "cli_reports":
        for key, _ in wl.items:
            with open(os.path.join(fixtures, f"{key}.golden.json")) as handle:
                wl.expected[key] = json.load(handle)
        return
    reference = load_reference() if reference is None else reference
    for key, _ in wl.items:
        if wl.name == "measure_scan":
            check_digest(reference, key)
            wl.expected[key] = reference["measure_scan"][key]
        else:
            symbol = key.split("@")[0]
            if "/" in symbol:
                check_digest(reference, symbol)
            wl.expected[key] = reference["deep_truncation"][key]
