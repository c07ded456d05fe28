"""Time CLI reports on the fixtures, the symbol pipeline per atom count and
the Agler engines on a k x N x L grid, for one or more checkouts in
alternating rounds, and store the rows in a BENCH_<n>.json.

Usage, from the repository root, with a copy of the parent commit's tree
at PARENT:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bench.py \
        --out BENCH_12.json \
        --side parent=PARENT/src --side change=src

Each --side LABEL=SRC names a checkout's `src` directory. A round runs
this script once per side, each in a fresh interpreter with PYTHONPATH set
to that side's SRC (the PYTHONPATH it is started with only serves the
script's own imports), and the order of the sides alternates from round to
round, so a drift of the host's speed reaches every side alike. Within a
round every timing is the median over REPEATS runs; each stored row holds
the median and quartiles of those per-round medians over ROUNDS rounds.

The fixture rows: for each fixture, with and without --dump-tables,
`cli.main` writing the report to a temporary directory, and `build_report`
and `render_json` on the same input and the same certificate result. Each
timed call gets one untimed warm-up call first.

The pipeline rows run `measure_to_symbol` on one seeded measure per atom
count k in ENGINE_KS and time the whole call and the time spent inside
each of PIPELINE_LAYERS: `boundary_polynomial`, `fejer_riesz_factor` and
`gram_from_outer` as `symbolpipe` calls them, and the `RationalSymbol`
constructor's check.

The engine grid runs `run_certificates` on the pipeline's symbol for the
same measures, at each (N, L) = (--trunc, --levels) in ENGINE_SIZES, and
times the whole call and the time spent inside each of ENGINE_LAYERS: the
engine functions the `certify` module has, and `kernels.symbol_taylor`,
which builds the Taylor rows. Layers are timed by wrapping the module
attributes, so both tables also run on a checkout whose functions take
other arguments. Each grid row also times `build_report` with the tables,
as --dump-tables asks for them, and `render_json` on that report, as for
the fixtures, and records the size of the rendered report.

Times come from time.perf_counter; nothing on the host is tuned, so
compare row sets measured in one run of this script. Labels already in
the file that this run does not measure are kept.
"""
import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from cauchydual import __version__, certify, cli, kernels, symbolpipe

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))
REPEATS = 11         # timed runs per median within a round
ROUNDS = 11          # alternating rounds per side

ENGINE_KS = (2, 4, 8)
ENGINE_SIZES = ((40, 12), (200, 12), (40, 80))
# (row name, owner, attribute) of the engine layers, as for the pipeline
ENGINE_LAYERS = tuple((name, certify, name) for name in (
    "agler_pole_test", "agler_taylor_test", "coincidence_classes",
    "necessary_measure_test")) + (
    ("symbol_taylor", kernels, "symbol_taylor"),)
# (row name, owner, attribute) of the pipeline stages; the constructor is
# timed through its check, which is all it does beyond storing the fields
PIPELINE_LAYERS = (
    ("boundary_polynomial", symbolpipe, "boundary_polynomial"),
    ("fejer_riesz_factor", symbolpipe, "fejer_riesz_factor"),
    ("gram_from_outer", symbolpipe, "gram_from_outer"),
    ("RationalSymbol", symbolpipe.RationalSymbol, "__post_init__"),
)
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
            return cli.build_report(doc, kind, sym, result, dump_tables)

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


def grid_measure(k: int) -> symbolpipe.CircleMeasure:
    """A seeded random measure with k atoms that the pipeline accepts; a
    measure it rejects is redrawn from the same generator."""
    rng = np.random.default_rng([ENGINE_SEED, k])
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k > 1 and gaps.min() <= MIN_GAP:
            continue
        weights = np.exp(rng.uniform(np.log(MIN_WEIGHT), np.log(MAX_WEIGHT), size=k))
        mu = symbolpipe.CircleMeasure(tuple(thetas), tuple(weights))
        try:
            symbolpipe.measure_to_symbol(mu)
        except (ValueError, ArithmeticError, RuntimeError):
            continue
        return mu


@contextlib.contextmanager
def layer_timer(layers):
    """Wrap each (name, owner, attribute) of `layers` that exists so that
    its calls add their time, in ms, to spent[name]; yields spent and
    restores the originals on exit."""
    present = [(name, owner, attr, getattr(owner, attr))
               for name, owner, attr in layers if attr in vars(owner)]
    spent = {name: 0.0 for name, *_ in present}

    def timing(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[name] += (time.perf_counter() - start) * 1e3
        return wrapper

    try:
        for name, owner, attr, fn in present:
            setattr(owner, attr, timing(name, fn))
        yield spent
    finally:
        for _, owner, attr, fn in present:
            setattr(owner, attr, fn)


def sampled_rows(total: str, call, spent) -> dict:
    """Median and quartiles, in ms, of REPEATS calls after one warm-up,
    under `<total>_ms`, and of the time each layer in spent took inside
    them."""
    call()
    samples = {name: [] for name in [total] + list(spent)}
    for _ in range(REPEATS):
        spent.update(dict.fromkeys(spent, 0.0))
        start = time.perf_counter()
        call()
        samples[total].append((time.perf_counter() - start) * 1e3)
        for name in spent:
            samples[name].append(spent[name])
    return {f"{name}_ms": quartiles(times) for name, times in samples.items()}


def pipeline_rows(measures: dict) -> list:
    rows = []
    with layer_timer(PIPELINE_LAYERS) as spent:
        for k, mu in measures.items():
            rows.append({"k": k, **sampled_rows(
                "measure_to_symbol", lambda: symbolpipe.measure_to_symbol(mu), spent)})
    return rows


def report_rows(mu: symbolpipe.CircleMeasure, sym, result) -> dict:
    """Timings of `build_report` with the tables and of `render_json` on
    its output, for the measure input that gives `sym` and `result`."""
    doc = {"measure": {"atoms": [{"theta_radians": theta, "weight": weight}
                                 for theta, weight in zip(mu.thetas, mu.weights)]}}

    def build():
        return cli.build_report(doc, "measure", sym, result, True)

    report = build()
    return {
        "report_bytes": len((cli.render_json(report) + "\n").encode()),
        "build_report_ms": timed_ms(build),
        "render_json_ms": timed_ms(lambda: cli.render_json(report)),
    }


def engine_rows(measures: dict) -> list:
    rows = []
    with layer_timer(ENGINE_LAYERS) as spent:
        for k, mu in measures.items():
            sym = symbolpipe.measure_to_symbol(mu)
            for trunc, levels in ENGINE_SIZES:
                cfg = certify.CertificateConfig(levels=levels, trunc=trunc)
                rows.append({"k": k, "trunc": trunc, "levels": levels, **sampled_rows(
                    "run_certificates", lambda: certify.run_certificates(sym, cfg), spent),
                    **report_rows(mu, sym, certify.run_certificates(sym, cfg))})
    return rows


def measure_round() -> dict:
    """One round of every row on the cauchydual this interpreter imports."""
    names = sorted(name[:-len(".golden.json")] for name in os.listdir(FIXTURES)
                   if name.endswith(".golden.json"))
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row for name in names for row in fixture_rows(name, tmp)]
    measures = {k: grid_measure(k) for k in ENGINE_KS}
    return {"version": __version__, "rows": rows,
            "pipeline_rows": pipeline_rows(measures),
            "engine_rows": engine_rows(measures)}


def over_rounds(rounds: list) -> list:
    """Rows of the first round with every `*_ms` entry replaced by the
    median and quartiles of its per-round medians."""
    return [{name: quartiles([r[name]["median"] for r in same])
             if name.endswith("_ms") else value
             for name, value in same[0].items()}
            for same in zip(*rounds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--side", action="append", default=[],
                        metavar="LABEL=SRC",
                        help="a checkout's src directory under a label, "
                             "e.g. parent=../parent/src; repeatable")
    parser.add_argument("--out", metavar="PATH",
                        help="BENCH_<n>.json to create or update")
    parser.add_argument("--round-out", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.round_out:
        with open(args.round_out, "w") as handle:
            json.dump(measure_round(), handle)
        return 0
    if (not args.side or any("=" not in side for side in args.side)
            or args.out is None):
        parser.error("need --out and at least one --side LABEL=SRC")
    sides = dict(side.split("=", 1) for side in args.side)

    labels = list(sides)
    rounds = {label: [] for label in labels}
    with tempfile.TemporaryDirectory() as tmp:
        for index in range(ROUNDS):
            for label in labels[::-1] if index % 2 else labels:
                path = os.path.join(tmp, f"{label}.json")
                env = dict(os.environ, PYTHONPATH=os.path.abspath(sides[label]))
                subprocess.run([sys.executable, os.path.abspath(__file__),
                                "--round-out", path], env=env, check=True)
                with open(path) as handle:
                    rounds[label].append(json.load(handle))

    bench = {"row_sets": {}}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            bench = json.load(handle)
    bench["description"] = (
        "CLI report timings per fixture, with and without --dump-tables, of "
        "cli.main, build_report and render_json; pipeline_rows: "
        "measure_to_symbol and the time inside each pipeline stage, per atom "
        "count k; engine_rows: run_certificates and the time inside each "
        "engine layer and kernels.symbol_taylor, and build_report with the "
        "tables and render_json on its output, per atom count k, --trunc N "
        "and --levels L. Every *_ms entry is the median and quartiles, in "
        "ms, over `rounds` alternating rounds of the per-round median of "
        "`repeats` runs (scripts/bench.py)")
    for label in labels:
        done = rounds[label]
        bench["row_sets"][label] = {
            "version": done[0]["version"],
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
            "repeats": REPEATS,
            "rounds": ROUNDS,
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            **{table: over_rounds([r[table] for r in done])
               for table in ("rows", "pipeline_rows", "engine_rows")},
        }
    with open(args.out, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for label in labels:
        sets = bench["row_sets"][label]
        for row in sets["rows"]:
            print(f"{label:>8} {row['fixture']:<17} tables={row['dump_tables']!s:<5} "
                  f"main {row['cli_main_ms']['median']:7.3f} ms  "
                  f"build {row['build_report_ms']['median']:6.3f} ms  "
                  f"render {row['render_json_ms']['median']:6.3f} ms  "
                  f"{row['report_bytes']} B")
        for row in sets["pipeline_rows"]:
            layers = "  ".join(f"{name} {row[f'{name}_ms']['median']:7.3f}"
                               for name, _, _ in PIPELINE_LAYERS if f"{name}_ms" in row)
            print(f"{label:>8} k={row['k']} "
                  f"measure_to_symbol {row['measure_to_symbol_ms']['median']:7.3f} ms  "
                  f"{layers}")
        for row in sets["engine_rows"]:
            layers = "  ".join(f"{name} {row[f'{name}_ms']['median']:7.3f}"
                               for name, _, _ in ENGINE_LAYERS if f"{name}_ms" in row)
            print(f"{label:>8} k={row['k']} N={row['trunc']:<3} L={row['levels']:<3} "
                  f"run_certificates {row['run_certificates_ms']['median']:7.3f} ms  "
                  f"{layers}  build {row['build_report_ms']['median']:7.3f}  "
                  f"render {row['render_json_ms']['median']:7.3f}  {row['report_bytes']} B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
