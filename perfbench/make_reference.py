"""Record the expected outcome of every input the benchmark can draw.

Run from the root of a checkout of the code whose verdicts are the
reference (the benchmark's reference was recorded from the seed code):

    python3 perfbench/make_reference.py

For each pool measure it records a digest of the drawn atoms and either the
certificate record at the default configuration or the class of the error
that stopped the pipeline; for each deep_truncation symbol and grid point,
the certificate record. A certificate record (`workloads.certificate_record`)
is the verdict, the Agler pass, each engine's [min_eig/norm, norm] per level
and the monotone test's result.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from cauchydual import certify, symbolpipe  # noqa: E402


def rounded(record: dict) -> dict:
    """min_eig/norm to 12 decimal places, norm to 10 significant digits:
    both far below the tolerances the checks use."""
    return {name: [[round(ratio, 12) + 0.0, float(f"{norm:.10g}")]
                   for ratio, norm in value]
            if name in ("pole", "taylor") else value
            for name, value in record.items()}


def main():
    fixtures = os.path.join(os.path.dirname(HERE), "fixtures")
    scan = {}
    symbols = [(name, workloads.fixture_symbol(fixtures, name))
               for name in workloads.fixture_names(fixtures)]
    for k in workloads.POOL_KS:
        for index in range(workloads.POOL_PER_K):
            key = workloads.pool_key(k, index)
            mu = workloads.draw_measure(k, index)
            entry = {"digest": workloads.measure_digest(mu)}
            got = workloads.scan_op(mu)
            if "rejected" in got:
                entry["rejected"] = got["rejected"]
            else:
                entry.update(rounded(workloads.certificate_record(got["report"])))
            scan[key] = entry
            if k in workloads.DEEP_KS and index < workloads.DEEP_POOL:
                symbols.append((key, symbolpipe.measure_to_symbol(mu)))

    deep = {}
    for trunc, levels in workloads.DEEP_GRID:
        cfg = certify.CertificateConfig(levels=levels, trunc=trunc)
        for key, sym in symbols:
            deep[workloads.deep_key(key, trunc, levels)] = rounded(
                workloads.certificate_record(certify.run_certificates(sym, cfg)))

    lines = ['{', '"pool": ' + json.dumps({
        "seed": workloads.POOL_SEED, "per_k": workloads.POOL_PER_K,
        "ks": list(workloads.POOL_KS), "min_gap": workloads.MIN_GAP,
        "weights": [workloads.MIN_WEIGHT, workloads.MAX_WEIGHT]}) + ',']
    for section, table in (("measure_scan", scan), ("deep_truncation", deep)):
        rows = [f"  {json.dumps(key)}: {json.dumps(value)}"
                for key, value in table.items()]
        lines.append(f'"{section}": {{\n' + ",\n".join(rows) + "\n}"
                     + ("," if section == "measure_scan" else ""))
    lines.append("}")
    with open(workloads.REFERENCE, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    rejected = sum("rejected" in e for e in scan.values())
    print(f"{len(scan)} pool measures ({rejected} rejected by the pipeline), "
          f"{len(deep)} deep_truncation points -> {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
