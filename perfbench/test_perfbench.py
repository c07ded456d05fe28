"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
FIXTURES = os.path.join(ROOT, "fixtures")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return spec


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--seed", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bench_modules():
    """The benchmark's run and workloads modules, imported in-process."""
    sys.path.insert(0, HERE)
    import run
    run.import_program()
    import workloads
    return run, workloads


def built(workloads, name, scratch=None, fixtures=FIXTURES):
    wl = workloads.build(name, 0, fixtures, scratch)
    workloads.load_expected(wl, fixtures)
    return wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["measure_scan", "deep_truncation", "cli_reports"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seconds", "0.2", "--trace", str(trace))
    result = result_of(proc)
    spec = declared()["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    text = proc.stdout
    for m in spec:
        assert f"{m['name']} " in text and f" {m['unit']} " in text
    assert "failed_frac" in text and "nproc=" in text and "blas_threads=" in text
    assert result["failed"] == 0


def test_corrupted_golden_raises_failed(bench_modules, tmp_path):
    run, workloads = bench_modules
    fixtures = tmp_path / "fixtures"
    shutil.copytree(FIXTURES, fixtures)
    golden = fixtures / "refuter.golden.json"
    report = json.loads(golden.read_text())
    report["certificates"]["orth_residual"] *= 1.0 + 1e-12
    golden.write_text(json.dumps(report))
    wl = built(workloads, "cli_reports", str(tmp_path), str(fixtures))
    records, _ = run.run_rounds(wl, 0.0)
    assert {r["key"] for r in records if r["failed"]} == {"refuter"}
    assert {r["key"] for r in records if r["mismatch"]} == {"refuter"}


def test_missing_report_counts_as_failed(bench_modules, tmp_path):
    run, workloads = bench_modules
    wl = built(workloads, "cli_reports", str(tmp_path))
    op = wl.op
    wl.op = lambda item: {**op(item), "path": str(tmp_path / "missing.json")}
    records, _ = run.run_rounds(wl, 0.0)
    assert all(r["failed"] and r["mismatch"] for r in records)


def test_wrong_reference_verdict_raises_failed(bench_modules):
    run, workloads = bench_modules
    wl = built(workloads, "deep_truncation")
    key = wl.items[0][0]
    wrong = dict(wl.expected[key])
    wrong["outcome"] = (["CertifiedSubnormal", "orthogonality", None, None]
                        if wrong["outcome"][0] != "CertifiedSubnormal"
                        else ["RefutedAtLevel", None, "necessary_measure", 0])
    wl.expected[key] = wrong
    records, _ = run.run_rounds(wl, 0.0)
    assert [r["key"] for r in records if r["mismatch"]] == [key]


def test_engine_fault_is_a_mismatch(bench_modules, monkeypatch):
    """A Taylor engine off by 1e-6 of the norm leaves every verdict of a
    round unchanged, and the engine check still sees it."""
    run, workloads = bench_modules
    from cauchydual import certify
    wl = built(workloads, "measure_scan")
    taylor_test = certify.agler_taylor_test

    def skewed(*args, **kwargs):
        return tuple(certify.LevelStat(s.level, s.min_eig + 1e-6 * s.norm, s.norm)
                     for s in taylor_test(*args, **kwargs))
    monkeypatch.setattr(certify, "agler_taylor_test", skewed)
    records, _ = run.run_rounds(wl, 0.0)
    built_keys = {key for key, _ in wl.items if "outcome" in wl.expected[key]}
    assert {r["key"] for r in records if r["mismatch"]} == built_keys
    monkeypatch.undo()
    records, _ = run.run_rounds(wl, 0.0)
    assert not any(r["mismatch"] for r in records)


def test_rejections_are_checked_against_the_reference(bench_modules, monkeypatch):
    """The seed pipeline rejects pool measure 5/2: rejecting it again is the
    expected answer, while rejecting a measure the seed code built fails."""
    run, workloads = bench_modules
    from cauchydual import symbolpipe
    wl = built(workloads, "measure_scan")
    assert "outcome" not in workloads.load_reference()["measure_scan"]["5/2"]
    wl.items = [("5/2", workloads.draw_measure(5, 2)), wl.items[0]]
    wl.expected = {key: workloads.load_reference()["measure_scan"][key]
                   for key, _ in wl.items}
    records, _ = run.run_rounds(wl, 0.0)
    assert [r["rejected"] for r in records] == ["RuntimeError", None]
    assert not any(r["failed"] or r["mismatch"] for r in records)

    def reject(mu):
        raise RuntimeError("rejected")
    monkeypatch.setattr(symbolpipe, "measure_to_symbol", reject)
    records, _ = run.run_rounds(wl, 0.0)
    assert [(r["failed"], r["mismatch"]) for r in records] == [
        (False, False), (True, True)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "measure_scan", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
