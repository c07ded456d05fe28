"""Scan random finitely supported circle measures and tally the verdicts.

Single-atom and antipodal measures are always certified; this script probes
general position, where the necessary-measure condition usually refutes.

    python3 scripts/random_measure_scan.py --samples 40 --seed 1
"""
import argparse
import os
import sys
from collections import Counter

import numpy as np

# the package of this checkout, whether or not it is installed
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from cauchydual.certify import run_certificates  # noqa: E402
from cauchydual.symbolpipe import CircleMeasure, measure_to_symbol  # noqa: E402


MIN_ATOMS = 1
MIN_WEIGHT = 0.1
MAX_WEIGHT = 5.0
# clustered atoms make the interpolation Gram ill-conditioned and the
# pipeline rejects the output; keep samples well separated
MIN_GAP = 0.3


def draw_measure(rng: np.random.Generator,
                 max_atoms: int) -> CircleMeasure:
    k = int(rng.integers(MIN_ATOMS, max_atoms + 1))
    while True:
        thetas = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        gaps = np.diff(np.concatenate([thetas, [thetas[0] + 2.0 * np.pi]]))
        if k == 1 or gaps.min() > MIN_GAP:
            break
    weights = np.exp(rng.uniform(np.log(MIN_WEIGHT), np.log(MAX_WEIGHT), size=k))
    return CircleMeasure(tuple(thetas), tuple(weights))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-atoms", type=int, default=4)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    tally = Counter()
    by_size = Counter()
    for i in range(args.samples):
        mu = draw_measure(rng, args.max_atoms)
        try:
            report = run_certificates(measure_to_symbol(mu))
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            # counted by class, so each rejection path has its own line
            rejected = f"rejected.{type(exc).__name__}"
            tally[rejected] += 1
            by_size[(mu.size, rejected)] += 1
            print(f"[{i:3d}] k={mu.size} ! {rejected}: {exc}")
            continue
        tally[report.verdict] += 1
        by_size[(mu.size, report.verdict)] += 1
        marker = {"CertifiedSubnormal": ".", "RefutedAtLevel": "x"}.get(
            report.verdict, "?")
        print(f"[{i:3d}] k={mu.size} {marker} {report.verdict:24s} "
              f"orth={report.orth_residual:.2e} "
              f"nec_worst={report.necessary.worst_violation:.2e}")

    print("\nverdicts:")
    for verdict, count in sorted(tally.items()):
        print(f"  {verdict}: {count}")
    print("by atom count:")
    for (k, verdict), count in sorted(by_size.items()):
        print(f"  k={k} {verdict}: {count}")


if __name__ == "__main__":
    main()
