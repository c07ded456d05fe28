"""Benchmark of the cauchydual certifier: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload measure_scan --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

One process, one closed-loop caller: the next input is sent only after the
previous verdict (or, for cli_reports, the report on disk) came back. Each
run repeats whole rounds of the workload's inputs until --seconds have
passed, so every run measures the same mix. Outputs are checked against
the committed goldens and against reference.json after each operation's
timer stops. --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced operations and prints the per-layer metrics, including
the tracing overhead between the two. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
LAYERS = ("polyrat", "symbolpipe", "kernels", "certify", "cli")
WORKLOADS = ("measure_scan", "deep_truncation", "cli_reports")
SETUP_RUNS = 11     # fresh interpreters timed for setup_s; the median is reported
WARMUP_OPS = 4

END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run. "ms" is busy time per operation,
# "self_ms" the same without the time of child spans. Counts marked
# computed are derived from shapes and sizes, not timed.
PER_LAYER = {
    "certify.agler_pole_test.ms": "ms",
    "certify.agler_taylor_test.ms": "ms",
    "certify.eig_calls": "count/op",
    "certify.eig_n3": "count/op",
    "symbolpipe.measure_to_symbol.self_ms": "ms",
    "symbolpipe.outer_from_measure.ms": "ms",
    "symbolpipe.gram_from_outer.ms": "ms",
    "polyrat.fejer_riesz_factor.ms": "ms",
    "symbolpipe.accept_ratio": "ratio",
    "symbolpipe.rejected.GramSingularError": "count",
    "symbolpipe.rejected.EtaNotPSDError": "count",
    "symbolpipe.rejected.NotPositiveOnCircleError": "count",
    "symbolpipe.rejected.RuntimeError": "count",
    "symbolpipe.rejected.ValueError": "count",
    "symbolpipe.rejected.other": "count",
    "certify.cross_gram.ms": "ms",
    "certify.orthogonality_test.ms": "ms",
    "certify.necessary_measure_test.ms": "ms",
    "certify.gamma_moments.ms": "ms",
    "certify.completely_monotone_test.ms": "ms",
    "certify.exactness_applies.ms": "ms",
    "certify.run_certificates.self_ms": "ms",
    "kernels.symbol_taylor.ms": "ms",
    "kernels.symbol_taylor.calls_per_op": "count/op",
    "kernels.kernel_coeffs.ms": "ms",
    "kernels.mate_rank1.ms": "ms",
    "certify.rank1_representing_measure.ms": "ms",
    "cli.parse_input_document.ms": "ms",
    "cli.build_report.self_ms": "ms",
    "cli.render_json.ms": "ms",
    "cli.write_atomic.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.report_bytes": "bytes/op",
    "certify.engine_gap_max": "ratio",
    **{f"share.{layer}": "%" for layer in LAYERS},
    "share.unattributed": "%",
    "trace.overhead_pct": "%",
}
COMPUTED = {"certify.eig_calls", "certify.eig_n3",
            "kernels.symbol_taylor.calls_per_op", "cli.report_bytes",
            "certify.engine_gap_max", "symbolpipe.accept_ratio"} | {
    name for name in PER_LAYER if name.startswith("symbolpipe.rejected.")}
REJECT_CLASSES = [name.rsplit(".", 1)[1] for name in PER_LAYER
                  if name.startswith("symbolpipe.rejected.")]


def import_program():
    """Put the checkout's package source first on the path and import it."""
    if not os.path.isfile(os.path.join(SRC, "cauchydual", "__init__.py")):
        raise SystemExit(f"perfbench: no package source under {SRC}")
    sys.path.insert(0, SRC)
    import cauchydual
    return cauchydual


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads}


# ------------------------------------------------------------------ set-up

def setup_probe(args) -> None:
    """Child process: time a fresh import plus building the inputs and
    symbols. The expected outputs are not loaded."""
    start = time.perf_counter()
    import_program()
    import workloads
    workloads.build(args.workload, args.seed, FIXTURES)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def measure_setup(args) -> list:
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


# ------------------------------------------------------------- measuring

def run_rounds(wl, seconds: float, tracer=None) -> tuple:
    """Closed loop over whole rounds. With a tracer, every other operation
    is traced, the pattern shifting by one each round, and the loop ends
    after an even number of rounds: each input is traced as often as not,
    and traced and untraced operations interleave in time. Returns
    (records, busy seconds), busy time being wall time without the output
    checks."""
    import workloads
    for key, item in wl.items[:WARMUP_OPS]:
        with contextlib.suppress(Exception):    # the timed loop records failures
            wl.check(wl.expected[key], wl.op(item))
    records, checking, rnd = [], 0.0, 0
    reported = 0        # mismatches so far; only the first five are printed
    start = time.perf_counter()
    while True:
        for j, (key, item) in enumerate(wl.items):
            traced = tracer is not None and (rnd + j) % 2 == 1
            if traced:
                tracer.install()
                tracer.op = len(records)
                span = tracer.begin("op")
            t0 = time.perf_counter()
            try:
                got = wl.op(item)
            except Exception:
                got = None
                if reported < 5:
                    traceback.print_exc(limit=4, file=sys.stderr)
            t1 = time.perf_counter()
            if traced:
                tracer.end(span)
                tracer.uninstall()
            failed = mismatch = True
            if got is not None:
                try:
                    failed, mismatch = wl.check(wl.expected[key], got)
                except Exception:   # e.g. a report missing or malformed
                    if reported < 5:
                        traceback.print_exc(limit=4, file=sys.stderr)
            if mismatch:
                if reported < 5:
                    print(f"perfbench: output mismatch on {key}", file=sys.stderr)
                reported += 1
            records.append({
                "key": key, "s": t1 - t0, "failed": failed,
                "mismatch": mismatch, "traced": traced,
                "rejected": (got or {}).get("rejected"),
                "gap": workloads.engine_gap(got),
                "bytes": (got or {}).get("bytes")})
            checking += time.perf_counter() - t1
        rnd += 1
        if (time.perf_counter() - start >= seconds
                and (tracer is None or rnd % 2 == 0)):
            break
    return records, time.perf_counter() - start - checking


def end_to_end(records, busy: float, setup_times) -> tuple:
    done = [r["s"] for r in records if not r["failed"]]
    # linear interpolation between closest ranks; one or no sample is its own decile
    deciles = (statistics.quantiles(done, n=10, method="inclusive")
               if len(done) > 1 else [sum(done)] * 9)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_ms.p50": 1000.0 * deciles[4],
        "latency_ms.p90": 1000.0 * deciles[8],
        "throughput_per_s": len(done) / busy,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh interpreters",
        "latency_ms.p50": f"n={len(done)} completed ops",
        "latency_ms.p90": f"n={len(done)} completed ops",
        "throughput_per_s": f"{len(done)} ops in {busy:.2f} s busy",
        "peak_rss_mb": "benchmark process, ru_maxrss",
    }
    return metrics, notes


def per_layer(records, tracer) -> tuple:
    spans = tracer.spans
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += dur[i]
    busy, own, calls = Counter(), Counter(), Counter()
    for i, s in enumerate(spans):
        busy[s[1]] += dur[i]
        own[s[1]] += dur[i] - child[i]
        calls[s[1]] += 1
    n_ops = calls["op"]
    op_time = busy["op"]

    metrics = {}
    for name in PER_LAYER:
        if name.endswith(".self_ms"):
            metrics[name] = 1000.0 * own[name[:-len(".self_ms")]] / n_ops
        elif name.endswith(".ms"):
            metrics[name] = 1000.0 * busy[name[:-len(".ms")]] / n_ops
    for layer in LAYERS:
        metrics[f"share.{layer}"] = 100.0 * sum(
            t for name, t in own.items() if name.startswith(layer + ".")) / op_time
    metrics["share.unattributed"] = 100.0 * own["op"] / op_time

    metrics["certify.eig_calls"] = tracer.eig_calls / n_ops
    metrics["certify.eig_n3"] = tracer.eig_n3 / n_ops
    metrics["kernels.symbol_taylor.calls_per_op"] = calls["kernels.symbol_taylor"] / n_ops
    sizes = [r["bytes"] for r in records if r["bytes"] is not None]
    metrics["cli.report_bytes"] = statistics.mean(sizes) if sizes else 0.0
    metrics["certify.engine_gap_max"] = max(
        (r["gap"] for r in records if r["gap"] is not None), default=0.0)

    # rejections by class over the run's distinct input measures
    pipeline = {r["key"]: r["rejected"] for r in records}
    built = calls["symbolpipe.measure_to_symbol"]
    by_class = Counter(c if c in REJECT_CLASSES else "other"
                       for c in pipeline.values() if c is not None)
    for cls in REJECT_CLASSES:
        metrics[f"symbolpipe.rejected.{cls}"] = by_class[cls]
    metrics["symbolpipe.accept_ratio"] = (
        1.0 - sum(by_class.values()) / len(pipeline) if built else 0.0)

    plain = [r["s"] for r in records if not r["traced"] and not r["failed"]]
    traced = [r["s"] for r in records if r["traced"] and not r["failed"]]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if traced and plain else 0.0)
    notes = {name: "computed" for name in COMPUTED}
    notes["symbolpipe.accept_ratio"] = (
        f"computed, base {len(pipeline)} distinct measures" if built
        else "computed, no pipeline calls")
    notes["trace.overhead_pct"] = (
        f"traced p50 over untraced p50, n={len(traced)}/{len(plain)}")
    notes["share.unattributed"] = "benchmark glue inside the op timer"
    return metrics, notes


def write_spans(args, env, metrics, tracer):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "env": env, "metrics": metrics,
                                 "span": ["op", "name", "parent", "start", "end"]})
                     + "\n")
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    return path


def run_workload(args) -> dict:
    cauchydual = import_program()
    import workloads
    from tracer import Tracer

    env = environment()
    setup_times = [] if args.trace else measure_setup(args)
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        wl = workloads.build(args.workload, args.seed, FIXTURES, scratch)
        workloads.load_expected(wl, FIXTURES)
        tracer = None
        if args.trace:
            tracer = Tracer({layer: getattr(cauchydual, layer) for layer in LAYERS})
        records, busy = run_rounds(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics, notes = per_layer(records, tracer)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(records, busy, setup_times)
        units = END_TO_END
    failed = sum(r["failed"] for r in records)
    mismatched = sum(r["mismatch"] for r in records)
    rejected = sum(r["rejected"] is not None and not r["failed"] for r in records)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  round {len(wl.items)} ops")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:42s} {metrics[name]:14.6g} {unit:9s} {notes.get(name, '')}")
    print(f"  {'failed_frac':42s} {failed / len(records):14.6g} {'':9s} "
          f"{failed} of {len(records)} ops failed, {mismatched} mismatched, "
          f"{rejected} rejected by the pipeline as in the reference")
    if tracer is not None:
        print(f"  spans written to {os.path.relpath(write_spans(args, env, metrics, tracer), ROOT)}")
    return {"correct": mismatched == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"{name} failed:\n{proc.stderr}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One BLAS thread. At these matrix sizes (N <= 200) a second OpenBLAS
    # thread gave no speed-up but spun a second core, which on a small shared
    # machine only adds noise. Set before NumPy is imported; the set-up
    # probes and the workloads of --workload all inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.setup_probe:
        setup_probe(args)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
