"""The scripts under scripts/, and the output check of perfbench/, run
against the package as it is."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from cauchydual import certify
from cauchydual.symbolpipe import EtaNotPSDError

from conftest import FIXTURE_NAMES, FIXTURES, ROOT, load_script, src_env

SCRIPTS = ROOT / "scripts"


def test_make_goldens_reproduces_the_fixtures(tmp_path, monkeypatch, capsys):
    # from the committed inputs alone, which it leaves as they are
    make_goldens = load_script("make_goldens")
    for name in FIXTURE_NAMES:
        shutil.copy(FIXTURES / f"{name}.json", tmp_path)
    monkeypatch.setattr(make_goldens, "FIXTURES", str(tmp_path))
    make_goldens.main()
    capsys.readouterr()
    names = sorted(f"{name}{suffix}" for name in FIXTURE_NAMES
                   for suffix in (".json", ".golden.json"))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_make_goldens_names_each_changed_key(tmp_path, monkeypatch, capsys):
    # against the golden it replaces, each changed, appeared or vanished
    # value is printed by its key path, and an unchanged golden prints none
    make_goldens = load_script("make_goldens")
    for name in FIXTURE_NAMES:
        for suffix in (".json", ".golden.json"):
            shutil.copy(FIXTURES / f"{name}{suffix}", tmp_path)
    stale = tmp_path / "refuter.golden.json"
    report = json.loads(stale.read_text())
    report["pipeline"]["alphas"][1][0] = 7.0
    report["pipeline"]["q"] = [[1.0, 0.0]]
    report["certificates"]["agler_pole"].pop()
    del report["exit_code"]
    stale.write_text(json.dumps(report))
    monkeypatch.setattr(make_goldens, "FIXTURES", str(tmp_path))
    make_goldens.main()
    out = capsys.readouterr().out
    listed = [line.strip() for line in out.splitlines() if line.startswith("  ")]
    assert listed == ["changed pipeline.alphas[1][0]", "vanished pipeline.q",
                      "changed certificates.agler_pole", "appeared exit_code"]
    assert stale.read_bytes() == (FIXTURES / "refuter.golden.json").read_bytes()


@pytest.mark.parametrize("name", ["make_goldens", "random_measure_scan"])
def test_script_imports_the_package_of_its_checkout(name, tmp_path):
    # run as the usage lines say, with no PYTHONPATH; the run name is not
    # __main__, so only the imports run and the fixtures stay untouched
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    check = ("import os, runpy, sys; "
             "runpy.run_path(sys.argv[1], run_name='check'); "
             "print(os.path.realpath(sys.modules['cauchydual'].__file__))")
    done = subprocess.run(
        [sys.executable, "-c", check, str(SCRIPTS / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    package = ROOT / "src" / "cauchydual" / "__init__.py"
    assert done.stdout == f"{os.path.realpath(package)}\n"
    assert os.listdir(tmp_path) == []


def test_random_measure_scan_runs():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "random_measure_scan.py"),
         "--samples", "8", "--seed", "0"],
        env=src_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    tally = done.stdout.split("\nverdicts:\n", 1)[1].split("by atom count:")[0]
    counts = [int(n) for n in re.findall(r"^  \S+: (\d+)$", tally, re.M)]
    assert counts and sum(counts) == 8


def test_random_measure_scan_tallies_rejections_by_class(monkeypatch, capsys):
    scan = load_script("random_measure_scan")

    def reject(mu):
        raise EtaNotPSDError("numerator matrix has no Cholesky factor")

    monkeypatch.setattr(scan, "measure_to_symbol", reject)
    monkeypatch.setattr(sys, "argv", ["random_measure_scan.py", "--samples", "3"])
    scan.main()
    tally = capsys.readouterr().out.split("\nverdicts:\n", 1)[1]
    assert tally.split("by atom count:")[0] == "  rejected.EtaNotPSDError: 3\n"


def test_bench_loads_each_tree_as_its_own_package():
    bench = load_script("bench")
    parent = bench.load_tree("cauchydual_test_parent", str(ROOT / "src"))
    change = bench.load_tree("cauchydual_test_change", str(ROOT / "src"))
    assert parent is not change and parent.certify is not change.certify
    assert parent.certify.run_certificates is not change.certify.run_certificates
    for tree in (parent, change):
        for module in (tree, tree.certify, tree.cli, tree.kernels, tree.polyrat,
                       tree.symbolpipe):
            assert module.__name__.startswith(tree.__name__)
            assert os.path.dirname(module.__file__) == str(ROOT / "src" / "cauchydual")


def test_bench_writes_paired_rows(tmp_path, monkeypatch, capsys):
    # the bench script calls build_report directly, so a signature change
    # must show here and not only when a benchmark is taken
    # the process rows' child interpreters are stubbed: each call records
    # its command line and environment, and the parent side's src is a
    # link to this checkout's, so that the two sides' PYTHONPATHs differ
    bench = load_script("bench")
    monkeypatch.setattr(bench, "PAIRS", 2)
    monkeypatch.setattr(bench, "PROCESS_PAIRS", 2)
    monkeypatch.setattr(bench, "SCAN_PAIRS", 2)
    monkeypatch.setattr(bench, "SCAN_PER_K", 1)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")     # main sets it
    started = []
    monkeypatch.setattr(bench, "run_process",
                        lambda argv, env: started.append((argv, env["PYTHONPATH"])))
    parent_src = tmp_path / "parent_src"
    parent_src.symlink_to(ROOT / "src", target_is_directory=True)
    out = tmp_path / "bench.json"
    assert bench.main(["--parent", str(parent_src), "--out", str(out)]) == 0
    capsys.readouterr()
    # per command and side, one warm-up call and one per pair
    argvs = [["-c", "pass"], ["-c", "import numpy"],
             *(["-m", "cauchydual", "--input", str(FIXTURES / f"{name}.json")]
               for name in sorted(FIXTURE_NAMES))]
    sides = [str(parent_src), str(ROOT / "src")]
    assert sorted(started) == sorted((argv, src) for argv in argvs
                                     for src in sides for _ in range(3))
    bench_file = json.loads(out.read_text())
    assert [bench_file[key] for key in ("process_pairs", "scan_pairs", "scan_per_k")] == [
        2, 2, 1]
    assert bench_file["pythondontwritebytecode"] == bool(
        os.environ.get("PYTHONDONTWRITEBYTECODE"))
    sets = bench_file["row_sets"]
    assert set(sets) == {"parent", "change"}
    rows = sets["change"]["rows"]
    assert sorted((row["fixture"], row["dump_tables"]) for row in rows) == sorted(
        (name, tables) for name in FIXTURE_NAMES for tables in (False, True))
    assert [len(sets["change"]["engine_rows"]), len(sets["change"]["pipeline_rows"])] == [
        len(bench.ENGINE_KS) * len(bench.ENGINE_SIZES), len(bench.ENGINE_KS)]
    # one round over SCAN_PER_K measures for each atom count
    [scan] = sets["change"]["scan_rows"]
    assert (scan["measures"], scan["trunc"], scan["levels"]) == (len(bench.SCAN_KS), 40, 12)
    assert "scan_ms" in scan
    # one fresh interpreter per fixture, next to the bare interpreter and
    # the NumPy import
    assert [row["command"] for row in sets["change"]["process_rows"]] == [
        "-c pass", "-c import numpy",
        *(f"-m cauchydual --input {name}.json" for name in sorted(FIXTURE_NAMES))]
    for table in bench.TABLES:
        assert len(sets["parent"][table]) == len(sets["change"][table])
        for parent, change in zip(sets["parent"][table], sets["change"][table]):
            assert parent.keys() == change.keys()
            timed = [key for key in change if key.endswith("_ms")]
            assert timed
            for key in timed:
                assert parent[key].keys() == {"median", "q1", "q3"}
                assert change[key].keys() == {"median", "q1", "q3", "ratio", "wins"}
                assert change[key]["ratio"].keys() == {"median", "q1", "q3"}
                assert 0.0 <= change[key]["wins"] <= 1.0
    # layer_timer skips a layer a tree lacks, so a renamed stage would
    # otherwise drop out of the rows unnoticed
    for layers, table in ((bench.ENGINE_LAYERS, "engine_rows"),
                          (bench.PIPELINE_LAYERS, "pipeline_rows")):
        names = {f"{name}_ms" for name, _, _ in layers}
        for row in sets["change"][table]:
            assert names <= row.keys(), table


def test_benchmark_check_sees_a_taylor_engine_skew(monkeypatch):
    # a Taylor engine off by 1e-6 of the norm leaves every verdict of the
    # measure_scan round as recorded, and perfbench's output check still
    # flags each built measure; the skew is taken through the engine's
    # (stats, basis_residual) result, so an operation that raises cannot
    # stand in for a flagged one
    workloads = load_script("workloads", ROOT / "perfbench")
    wl = workloads.build("measure_scan", 0, str(FIXTURES))
    workloads.load_expected(wl, str(FIXTURES))
    built = [(key, mu) for key, mu in wl.items if "outcome" in wl.expected[key]]
    assert len(built) > 100
    taylor_test = certify.agler_taylor_test

    def skewed(*args, **kwargs):
        stats, residual = taylor_test(*args, **kwargs)
        return tuple(certify.LevelStat(s.level, s.min_eig + 1e-6 * s.norm, s.norm)
                     for s in stats), residual

    for skew in (True, False):
        if skew:
            monkeypatch.setattr(certify, "agler_taylor_test", skewed)
        for key, mu in built:
            got = workloads.scan_op(mu)
            record = workloads.certificate_record(got["report"])
            assert record["outcome"] == wl.expected[key]["outcome"], key
            assert workloads.scan_check(wl.expected[key], got) == (skew, skew), key
        monkeypatch.undo()
