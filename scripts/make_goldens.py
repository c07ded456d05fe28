"""Regenerate the committed fixture inputs and golden reports.

Usage, from the repository root:

    python3 scripts/make_goldens.py

Rewrites fixtures/*.json in place with a pinned timestamp so reruns are
byte-identical; review the diff before committing.
"""
import json
import math
import os

from cauchydual import cli
from cauchydual.symbolpipe import closed_form_antipodal

FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "fixtures"))
PINNED_TIMESTAMP = "1970-01-01T00:00:00+00:00"


def inconclusive_input() -> dict:
    # Schur-slack perturbation of the symmetric two-atom symbol: shrink by
    # 0.95, rotate a bit of p1 into i z^2, shrink p2 to compensate. The
    # numerators stop being orthogonal at the poles but every refutation
    # channel stays quiet, which pins the InconclusiveAtTruncation verdict.
    sym = closed_form_antipodal(1.0, 1.0)
    alpha1, alpha2 = sym.alphas.real.tolist()
    delta = 1e-4
    g1 = 0.95 * sym.coefficients[0, 1].real
    g3 = math.sqrt((0.95 * sym.coefficients[1, 2].real) ** 2 - delta ** 2)
    return {"symbol": {
        "alphas": [[alpha1, 0.0], [alpha2, 0.0]],
        "numerators": [[[0.0, 0.0], [g1, 0.0], [0.0, delta]],
                       [[0.0, 0.0], [0.0, 0.0], [g3, 0.0]]],
    }}


def fixture_inputs() -> dict:
    return {
        "antipodal_1_1": {"antipodal": {"c1": 1.0, "c2": 1.0}},
        "antipodal_4_1": {"antipodal": {"c1": 4.0, "c2": 1.0}},
        "single_atom_tau1": {"single_atom": {"tau": 1.0, "theta_radians": 0.0}},
        "refuter": {"symbol": {
            "alphas": [[2.0, 0.0], [0.0, 1.5]],
            "numerators": [[[0.0, 0.0], [0.3, 0.0]],
                           [[0.0, 0.0], [0.0, 0.0], [0.3, 0.0]]],
        }},
        "inconclusive": inconclusive_input(),
    }


def main():
    os.makedirs(FIXTURES, exist_ok=True)
    for name, doc in fixture_inputs().items():
        in_path = os.path.join(FIXTURES, f"{name}.json")
        golden_path = os.path.join(FIXTURES, f"{name}.golden.json")
        with open(in_path, "w") as handle:
            handle.write(cli.render_json(doc) + "\n")
        code = cli.main(["--input", in_path, "--report", golden_path])
        if code == cli.EXIT_ERROR:
            raise SystemExit(f"{name}: input rejected, no golden written")
        with open(golden_path) as handle:
            report = json.load(handle)
        report["timestamp"] = PINNED_TIMESTAMP
        with open(golden_path, "w") as handle:
            handle.write(cli.render_json(report) + "\n")
        print(f"{name}: exit {code}, wrote {os.path.relpath(golden_path)}")


if __name__ == "__main__":
    main()
