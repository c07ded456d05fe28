"""Time CLI reports on the fixtures and store the rows in a BENCH_<n>.json.

Usage, from the repository root:

    PYTHONPATH=src python3 scripts/bench.py --label change --out BENCH_4.json

For each fixture, with and without --dump-tables, three medians over
REPEATS runs: `cli.main` writing the report to a temporary directory,
and `build_report` and `render_json` on the same input and the same
certificate result. Each timed call gets one untimed warm-up call first.
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

from cauchydual import __version__, certify, cli

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))
QUAD_POINTS = 4096   # the CLI default
REPEATS = 21         # timed runs per median


def timed_ms(fn) -> dict:
    """Median and quartiles, in ms, of REPEATS calls after one warm-up."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) * 1e3)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


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

    bench = {"row_sets": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            bench = json.load(handle)
    bench["description"] = (
        "CLI report timings per fixture, with and without --dump-tables: "
        f"median and quartiles in ms of {REPEATS} runs of cli.main, "
        "build_report and render_json (scripts/bench.py)")
    bench["row_sets"][args.label] = {
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "repeats": REPEATS,
        "rows": rows,
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
