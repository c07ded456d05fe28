"""Time CLI reports on the fixtures, the symbol pipeline per atom count and
the Agler engines on a k x N x L grid, for this checkout and its parent in
alternating pairs in one interpreter, and store the rows in a BENCH_<n>.json.

Usage, from the repository root, with a copy of the parent commit's `src`
directory at PARENT_SRC:

    python3 scripts/bench.py --parent PARENT_SRC --out BENCH_<n>.json

This checkout's `src/cauchydual` is loaded as the package
`cauchydual_change` and PARENT_SRC/cauchydual as `cauchydual_parent`;
each tree's relative imports resolve inside it. Every row is timed in
PAIRS pairs: a pair calls the row once on each tree, the order alternates
from pair to pair, and each tree gets one untimed warm-up call first. Each `*_ms` entry is the median and quartiles of one side's
per-call times; on the change side it also holds the quartiles of the
per-pair ratio change/parent and `wins`, the share of pairs in which the
change was faster.

The fixture rows: for each fixture, with and without --dump-tables,
`cli.main` writing the report to a temporary directory, and `build_report`
and `render_json` on the same input and the same certificate result.

The pipeline rows run `measure_to_symbol` on one seeded measure per atom
count k in ENGINE_KS and time the whole call and the time spent inside
each of PIPELINE_LAYERS: `boundary_polynomial`, `fejer_riesz_factor` and
`gram_from_outer` as `symbolpipe` calls them, and the `RationalSymbol`
constructor's check.

The engine grid runs `run_certificates` on the pipeline's symbol for the
same measures at each (N, L) = (--trunc, --levels) in ENGINE_SIZES, and
times the whole call and the time spent inside each of ENGINE_LAYERS. Each
grid row also times `build_report` with the tables and `render_json` on
that report, and records the size of the rendered report.

The scan row times, in SCAN_PAIRS pairs, one round of perfbench's
measure_scan workload: `measure_to_symbol` and `run_certificates` at
(N, L) = (40, 12) on SCAN_PER_K seeded measures for each k in SCAN_KS,
drawn like the grid's. Its ratio is the in-process counterpart of
measure_scan's throughput.

The process rows time, in PROCESS_PAIRS pairs, a fresh interpreter per
fixture running `python3 -m cauchydual --input FIXTURE` with the side's
`src` as PYTHONPATH, next to `python3 -c pass` and
`python3 -c "import numpy"` under the same environment. They show what a
user of the command waits for, start-up and imports included; whether
PYTHONDONTWRITEBYTECODE was set is recorded, since where it is every
process compiles the package source afresh.

Layers are timed by wrapping each tree's own module attributes, so the
rows also run on a tree whose functions take other arguments; a layer that
one tree lacks is left out of that side's row. Times come from
time.perf_counter. Both trees share one NumPy, one BLAS, one allocator and
the CPU caches: the alternation cancels host drift and the bias of going
first, not effects of that shared state.
"""
import argparse
import contextlib
import functools
import importlib.util
import io
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
FIXTURES = os.path.join(ROOT, "fixtures")
PAIRS = 121          # timed pairs per row: one call on each tree per pair
PROCESS_PAIRS = 21   # the same for the process rows, which start interpreters
SCAN_PAIRS = 21      # the same for the scan row, whose call is one whole round

ENGINE_KS = (2, 4, 8)
ENGINE_SIZES = ((40, 12), (200, 12), (40, 80))
# (row name, owner within a tree, attribute) of the engine layers
ENGINE_LAYERS = tuple((name, "certify", name) for name in (
    "pole_pairing", "agler_pole_test", "agler_taylor_test",
    "necessary_measure_test")) + (("symbol_taylor", "kernels", "symbol_taylor"),)
# (row name, owner within a tree, attribute) of the pipeline stages; the
# constructor is timed through its check, which is all it does beyond
# storing the fields
PIPELINE_LAYERS = (
    ("boundary_polynomial", "symbolpipe", "boundary_polynomial"),
    ("fejer_riesz_factor", "symbolpipe", "fejer_riesz_factor"),
    ("gram_from_outer", "symbolpipe", "gram_from_outer"),
    ("RationalSymbol", "symbolpipe.RationalSymbol", "__post_init__"),
)
ENGINE_SEED = 6
# the measures of the grid: atom gaps above MIN_GAP, weights log-uniform
# in [MIN_WEIGHT, MAX_WEIGHT], as scripts/random_measure_scan.py draws them
MIN_GAP, MIN_WEIGHT, MAX_WEIGHT = 0.3, 0.1, 5.0
# the scan row's round: SCAN_PER_K measures for each atom count in SCAN_KS,
# the counts of one round of perfbench's measure_scan
SCAN_KS = tuple(range(1, 9))
SCAN_PER_K = 16
TABLES = ("rows", "pipeline_rows", "engine_rows", "scan_rows", "process_rows")


def load_tree(name: str, src: str):
    """Import the cauchydual package under the directory `src` as the
    package `name`, with its `cli` module."""
    root = os.path.join(os.path.abspath(src), "cauchydual")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"), submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package     # for relative imports and annotations
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def sample(calls: dict, name: str, spent=None, pairs=None) -> dict:
    """Time calls[side]() in `pairs` pairs (PAIRS if not given), the order
    of the sides alternating from pair to pair, after one untimed warm-up
    call per side. Returns per side the per-call times, in ms, under
    `<name>_ms`, and the time each layer in spent[side] took inside them
    under `<layer>_ms`."""
    sides = list(calls)
    spent = spent or {side: {} for side in sides}
    for side in sides:
        calls[side]()
    times = {side: {key: [] for key in [name, *spent[side]]} for side in sides}
    for index in range(pairs or PAIRS):
        for side in sides[::-1] if index % 2 else sides:
            layers = spent[side]
            layers.update(dict.fromkeys(layers, 0.0))
            start = time.perf_counter()
            calls[side]()
            times[side][name].append((time.perf_counter() - start) * 1e3)
            for layer, ms in layers.items():
                times[side][layer].append(ms)
    return {side: {f"{key}_ms": got for key, got in per_side.items()}
            for side, per_side in times.items()}


def merge(fields: dict, *parts) -> dict:
    """Per side, `fields` and the union of that side's row in each of parts
    (each a side -> row mapping)."""
    return {side: dict(fields, **{key: value for part in parts
                                  for key, value in part[side].items()})
            for side in parts[0]}


def run_main(cli, argv: list, name: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code == cli.EXIT_ERROR:
        raise RuntimeError(f"{name}: the CLI rejected the fixture")


def report_rows(trees: dict, doc: dict, made: dict, dump_tables: bool) -> dict:
    """Timings of `build_report` and of `render_json` on its output, with
    made[side] = (kind, sym, result) that the side's tree made from doc."""
    build, render, size = {}, {}, {}
    for side, tree in trees.items():
        build[side] = functools.partial(tree.cli.build_report, doc, *made[side], dump_tables)
        render[side] = functools.partial(tree.cli.render_json, build[side]())
        size[side] = {"report_bytes": len((render[side]() + "\n").encode())}
    return merge({}, size, sample(build, "build_report"), sample(render, "render_json"))


def fixture_rows(trees: dict, name: str, tmp: str) -> list:
    in_path = os.path.join(FIXTURES, f"{name}.json")
    out_path = os.path.join(tmp, f"{name}.report.json")
    with open(in_path) as handle:
        doc = json.load(handle)
    made = {}
    for side, tree in trees.items():
        kind, sym = tree.cli.parse_input_document(doc)
        made[side] = (kind, sym, tree.certify.run_certificates(
            sym, tree.certify.CertificateConfig()))
    rows = []
    for dump_tables in (False, True):
        argv = ["--input", in_path, "--report", out_path]
        argv += ["--dump-tables"] if dump_tables else []
        main = {side: functools.partial(run_main, tree.cli, argv, name)
                for side, tree in trees.items()}
        rows.append(merge({"fixture": name, "dump_tables": dump_tables},
                          sample(main, "cli_main"),
                          report_rows(trees, doc, made, dump_tables)))
    return rows


def grid_draw(k: int, trees: dict, *index: int) -> tuple:
    """(thetas, weights) of a seeded random measure with k atoms that every
    tree's pipeline accepts, from the generator seeded with
    (ENGINE_SEED, k, *index); a draw one rejects is redrawn from it."""
    import numpy as np
    rng = np.random.default_rng([ENGINE_SEED, k, *index])
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k > 1 and gaps.min() <= MIN_GAP:
            continue
        weights = np.exp(rng.uniform(np.log(MIN_WEIGHT), np.log(MAX_WEIGHT), size=k))
        draw = (tuple(thetas), tuple(weights))
        try:
            for tree in trees.values():
                tree.symbolpipe.measure_to_symbol(tree.symbolpipe.CircleMeasure(*draw))
        except (ValueError, ArithmeticError, RuntimeError):
            continue
        return draw


@contextlib.contextmanager
def layer_timer(trees: dict, layers):
    """Wrap each (name, owner, attribute) of `layers` that a tree has so
    that its calls add their time, in ms, to spent[side][name]; yields
    spent and restores the originals on exit."""
    spent = {side: {} for side in trees}
    present = []
    for side, tree in trees.items():
        for name, path, attr in layers:
            owner = operator.attrgetter(path)(tree)
            if attr in vars(owner):
                spent[side][name] = 0.0
                present.append((side, name, owner, attr, getattr(owner, attr)))

    def timing(into, name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                into[name] += (time.perf_counter() - start) * 1e3
        return wrapper

    try:
        for side, name, owner, attr, fn in present:
            setattr(owner, attr, timing(spent[side], name, fn))
        yield spent
    finally:
        for _, _, owner, attr, fn in present:
            setattr(owner, attr, fn)


def pipeline_rows(trees: dict, draws: dict) -> list:
    with layer_timer(trees, PIPELINE_LAYERS) as spent:
        return [merge({"k": k}, sample(
            {side: functools.partial(tree.symbolpipe.measure_to_symbol,
                                     tree.symbolpipe.CircleMeasure(*draw))
             for side, tree in trees.items()}, "measure_to_symbol", spent))
            for k, draw in draws.items()]


def engine_rows(trees: dict, draws: dict) -> list:
    rows = []
    with layer_timer(trees, ENGINE_LAYERS) as spent:
        for k, draw in draws.items():
            doc = {"measure": {"atoms": [{"theta_radians": theta, "weight": weight}
                                         for theta, weight in zip(*draw)]}}
            syms = {side: tree.symbolpipe.measure_to_symbol(
                tree.symbolpipe.CircleMeasure(*draw)) for side, tree in trees.items()}
            for trunc, levels in ENGINE_SIZES:
                run = {side: functools.partial(
                    tree.certify.run_certificates, syms[side],
                    tree.certify.CertificateConfig(levels=levels, trunc=trunc))
                    for side, tree in trees.items()}
                made = {side: ("measure", syms[side], run[side]()) for side in trees}
                rows.append(merge(
                    {"k": k, "trunc": trunc, "levels": levels},
                    sample(run, "run_certificates", spent),
                    report_rows(trees, doc, made, True)))
    return rows


def scan_round(tree, measures: list, cfg) -> None:
    for mu in measures:
        tree.certify.run_certificates(tree.symbolpipe.measure_to_symbol(mu), cfg)


def scan_rows(trees: dict, draws: list) -> list:
    """One row: a round of `measure_to_symbol` and `run_certificates` at
    (N, L) = (40, 12) over `draws`, timed in SCAN_PAIRS pairs."""
    rounds = {side: functools.partial(
        scan_round, tree, [tree.symbolpipe.CircleMeasure(*draw) for draw in draws],
        tree.certify.CertificateConfig(levels=12, trunc=40))
        for side, tree in trees.items()}
    return [merge({"measures": len(draws), "trunc": 40, "levels": 12},
                  sample(rounds, "scan", pairs=SCAN_PAIRS))]


def run_process(argv: list, env: dict) -> None:
    proc = subprocess.run([sys.executable, *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode not in (0, 1, 2):
        raise RuntimeError(f"{argv}: exit {proc.returncode}: {proc.stderr.strip()}")


def process_rows(srcs: dict, names: list) -> list:
    """Wall time of one fresh interpreter per command, with srcs[side] as
    PYTHONPATH: the bare interpreter, `import numpy`, and the command line
    on each fixture."""
    envs = {side: dict(os.environ, PYTHONPATH=os.path.abspath(src))
            for side, src in srcs.items()}
    commands = [("-c pass", ["-c", "pass"]),
                ("-c import numpy", ["-c", "import numpy"])]
    commands += [(f"-m cauchydual --input {name}.json",
                  ["-m", "cauchydual", "--input", os.path.join(FIXTURES, f"{name}.json")])
                 for name in names]
    return [merge({"command": label}, sample(
        {side: functools.partial(run_process, argv, env) for side, env in envs.items()},
        "process", pairs=PROCESS_PAIRS)) for label, argv in commands]


def summary(rows: list) -> dict:
    """Per side, the rows with every `*_ms` list of times replaced by its
    median and quartiles; on the change side, an entry the parent side
    also has gets the quartiles of the per-pair ratio change/parent and
    `wins`, the share of pairs in which the change was faster."""
    out = {side: [] for side in rows[0]}
    for row in rows:
        for side, got in row.items():
            entry = {key: quartiles(value) if key.endswith("_ms") else value
                     for key, value in got.items()}
            base = row["parent"] if side == "change" else {}
            for key, times in got.items():
                if key.endswith("_ms") and key in base:
                    pairs = list(zip(times, base[key]))
                    entry[key]["ratio"] = quartiles([c / p for c, p in pairs])
                    entry[key]["wins"] = sum(c < p for c, p in pairs) / len(pairs)
            out[side].append(entry)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", metavar="SRC", required=True,
                        help="the parent checkout's src directory")
    parser.add_argument("--out", metavar="PATH", required=True,
                        help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    # One BLAS thread, as perfbench/run.py sets it; set before the trees
    # import NumPy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    srcs = {"parent": args.parent, "change": os.path.join(ROOT, "src")}
    trees = {side: load_tree(f"cauchydual_{side}", src) for side, src in srcs.items()}
    import numpy as np

    names = sorted(name[:-len(".golden.json")] for name in os.listdir(FIXTURES)
                   if name.endswith(".golden.json"))
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row for name in names for row in fixture_rows(trees, name, tmp)]
    draws = {k: grid_draw(k, trees) for k in ENGINE_KS}
    # in measure_scan's order: index j of every k, then index j + 1
    scan_draws = [grid_draw(k, trees, j) for j in range(SCAN_PER_K) for k in SCAN_KS]
    tables = {"rows": summary(rows),
              "pipeline_rows": summary(pipeline_rows(trees, draws)),
              "engine_rows": summary(engine_rows(trees, draws)),
              "scan_rows": summary(scan_rows(trees, scan_draws)),
              "process_rows": summary(process_rows(srcs, names))}
    bench = {
        "description": (
            "rows: cli.main, build_report and render_json per fixture, with "
            "and without --dump-tables; pipeline_rows: measure_to_symbol and "
            "the time inside each pipeline stage, per atom count k; "
            "engine_rows: run_certificates and the time inside each engine "
            "layer, and build_report with the tables and render_json, per k, "
            "--trunc N and --levels L; scan_rows: one round of "
            "measure_to_symbol and run_certificates at (N, L) = (40, 12) over "
            "`scan_per_k` seeded measures per atom count k = 1..8, perfbench's "
            "measure_scan in process, in `scan_pairs` pairs; "
            "process_rows: the wall time of a fresh "
            "interpreter running the command with the side's src as "
            "PYTHONPATH, per fixture, next to `-c pass` and `-c import numpy`, "
            "in `process_pairs` pairs. Both trees run in one interpreter, in "
            "`pairs` pairs of one call per tree whose order alternates "
            "(scripts/bench.py). Every *_ms entry is the median and quartiles, "
            "in ms, of its side's per-call times; on the change side `ratio` "
            "is the quartiles of the per-pair ratio change/parent and `wins` "
            "the share of pairs the change was faster in. Both trees share one "
            "NumPy, one BLAS, one allocator and the CPU caches: alternation "
            "cancels host drift and the bias of going first, not effects of "
            "that shared state."),
        "pairs": PAIRS,
        "process_pairs": PROCESS_PAIRS,
        "scan_pairs": SCAN_PAIRS,
        "scan_per_k": SCAN_PER_K,
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} logical CPUs",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "row_sets": {side: {"version": tree.__version__,
                            **{table: tables[table][side] for table in TABLES}}
                     for side, tree in trees.items()},
    }
    with open(args.out, "w") as handle:
        json.dump(bench, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for table in TABLES:
        for index in range(len(tables[table]["change"])):
            for side in trees:
                row = tables[table][side][index]
                fields = " ".join(f"{key}={value}" for key, value in row.items()
                                  if not key.endswith("_ms"))
                times = "  ".join(
                    f"{key[:-3]} {value['median']:.3f}"
                    + (f" (x{value['ratio']['median']:.3f})" if "ratio" in value else "")
                    for key, value in row.items() if key.endswith("_ms"))
                print(f"{side:>6} {fields}  {times}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
