"""Time CLI reports on the fixtures and the Agler engines on a k x N x L
grid, and store the rows in a BENCH_<n>.json.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH_7.json

For each fixture, with and without --dump-tables, three medians over
REPEATS runs: `cli.main` writing the report to a temporary directory,
and `build_report` and `render_json` on the same input and the same
certificate result. Each timed call gets one untimed warm-up call first.

The engine grid runs `run_certificates` REPEATS times on one pipeline-built
symbol per atom count k in ENGINE_KS, at each (N, L) = (--trunc, --levels)
in ENGINE_SIZES, and records the median and quartiles of the whole call and
of the time spent inside each of the ENGINE_LAYERS functions the `certify`
module has (the layers are timed by wrapping the module attributes, so the
grid also runs on a checkout whose engines take other arguments).

Times come from time.perf_counter inside this one process; nothing on the
host is tuned, so compare rows measured back to back on one machine.

The rows are stored under --label and other labels in the file are kept,
so a second run with PYTHONPATH pointing at another checkout's `src` adds
that version's rows for a before/after comparison.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np

from cauchydual import __version__, certify, cli, symbolpipe

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))
QUAD_POINTS = 4096   # the CLI default
REPEATS = 21         # timed runs per median

ENGINE_KS = (2, 4, 8)
ENGINE_SIZES = ((40, 12), (200, 12), (40, 80))
ENGINE_LAYERS = ("pole_basis", "pole_cores", "agler_pole_test",
                 "agler_taylor_test", "coincidence_classes")
ENGINE_SEED = 6
# the measures of the grid: atom gaps above MIN_GAP, weights log-uniform
# in [MIN_WEIGHT, MAX_WEIGHT], as scripts/random_measure_scan.py draws them
MIN_GAP, MIN_WEIGHT, MAX_WEIGHT = 0.3, 0.1, 5.0


def quartiles(times) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def timed_ms(fn) -> dict:
    """Median and quartiles, in ms, of REPEATS calls after one warm-up."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    return quartiles(times)


def fixture_rows(name: str, tmp: str) -> list:
    in_path = os.path.join(FIXTURES, f"{name}.json")
    out_path = os.path.join(tmp, f"{name}.report.json")
    with open(in_path) as handle:
        doc = json.load(handle)
    kind, sym = cli.parse_input_document(doc)
    result = certify.run_certificates(sym, certify.CertificateConfig())
    rows = []
    for dump_tables in (False, True):
        argv = ["--input", in_path, "--report", out_path]
        argv += ["--dump-tables"] if dump_tables else []

        def run_main():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code == cli.EXIT_ERROR:
                raise RuntimeError(f"{name}: the CLI rejected the fixture")

        def build():
            return cli.build_report(doc, kind, sym, result, QUAD_POINTS,
                                    dump_tables)

        report = build()
        rows.append({
            "fixture": name,
            "dump_tables": dump_tables,
            "report_bytes": len((cli.render_json(report) + "\n").encode()),
            "cli_main_ms": timed_ms(run_main),
            "build_report_ms": timed_ms(build),
            "render_json_ms": timed_ms(lambda: cli.render_json(report)),
        })
    return rows


def grid_symbol(k: int) -> symbolpipe.RationalSymbol:
    """The pipeline's symbol for a seeded random measure with k atoms; a
    measure the pipeline rejects is redrawn from the same generator."""
    rng = np.random.default_rng([ENGINE_SEED, k])
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k > 1 and gaps.min() <= MIN_GAP:
            continue
        weights = np.exp(rng.uniform(np.log(MIN_WEIGHT), np.log(MAX_WEIGHT), size=k))
        try:
            return symbolpipe.measure_to_symbol(
                symbolpipe.CircleMeasure(tuple(thetas), tuple(weights)))
        except (ValueError, ArithmeticError, RuntimeError):
            continue


def engine_rows() -> list:
    layers = [name for name in ENGINE_LAYERS if hasattr(certify, name)]
    originals = {name: getattr(certify, name) for name in layers}
    spent = dict.fromkeys(layers, 0.0)

    def timing(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += (time.perf_counter() - start) * 1e3
        return wrapper

    rows = []
    try:
        for name, fn in originals.items():
            setattr(certify, name, timing(name, fn))
        for k in ENGINE_KS:
            sym = grid_symbol(k)
            for trunc, levels in ENGINE_SIZES:
                cfg = certify.CertificateConfig(levels=levels, trunc=trunc)
                samples = {name: [] for name in ["run_certificates"] + layers}
                certify.run_certificates(sym, cfg)
                for _ in range(REPEATS):
                    spent.update(dict.fromkeys(layers, 0.0))
                    start = time.perf_counter()
                    certify.run_certificates(sym, cfg)
                    samples["run_certificates"].append(
                        (time.perf_counter() - start) * 1e3)
                    for name in layers:
                        samples[name].append(spent[name])
                rows.append({"k": k, "trunc": trunc, "levels": levels,
                             **{f"{name}_ms": quartiles(times)
                                for name, times in samples.items()}})
    finally:
        for name, fn in originals.items():
            setattr(certify, name, fn)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="name of this row set, e.g. parent or change")
    parser.add_argument("--out", required=True, metavar="PATH",
                        help="BENCH_<n>.json to create or update")
    args = parser.parse_args(argv)

    names = sorted(name[:-len(".golden.json")] for name in os.listdir(FIXTURES)
                   if name.endswith(".golden.json"))
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row for name in names
                for row in fixture_rows(name, tmp)]
    grid = engine_rows()

    bench = {"row_sets": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            bench = json.load(handle)
    bench["description"] = (
        "CLI report timings per fixture, with and without --dump-tables: "
        f"median and quartiles in ms of {REPEATS} runs of cli.main, "
        "build_report and render_json; engine_rows: the same statistics "
        "of run_certificates and of the time inside each engine layer, per "
        "atom count k, --trunc N and --levels L (scripts/bench.py)")
    bench["row_sets"][args.label] = {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "repeats": REPEATS,
        "rows": rows,
        "engine_rows": grid,
    }
    with open(args.out, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for row in rows:
        print(f"{args.label:>8} {row['fixture']:<17} tables={row['dump_tables']!s:<5} "
              f"main {row['cli_main_ms']['median']:7.3f} ms  "
              f"build {row['build_report_ms']['median']:6.3f} ms  "
              f"render {row['render_json_ms']['median']:6.3f} ms  "
              f"{row['report_bytes']} B")
    for row in grid:
        layers = "  ".join(f"{name} {row[f'{name}_ms']['median']:7.3f}"
                           for name in ENGINE_LAYERS if f"{name}_ms" in row)
        print(f"{args.label:>8} k={row['k']} N={row['trunc']:<3} L={row['levels']:<3} "
              f"run_certificates {row['run_certificates_ms']['median']:7.3f} ms  "
              f"{layers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
