"""Regenerate the committed fixture inputs and golden reports.

Usage, from the repository root:

    python3 scripts/make_goldens.py

Rewrites fixtures/*.json in place with a pinned timestamp so reruns are
byte-identical, and prints the key path of every value that changed,
appeared or vanished against the golden it replaces (parsed JSON, so
only a value change shows); review the diff before committing.
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


def key_diff(old, new, path: str = "") -> list:
    """(what, path) for each value of the parsed reports that changed,
    appeared or vanished from `old` to `new`: dicts are compared key by key,
    lists of equal length item by item, anything else as a whole."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in {**old, **new}:
            sub = f"{path}.{key}" if path else key
            if key not in old:
                out.append(("appeared", sub))
            elif key not in new:
                out.append(("vanished", sub))
            else:
                out += key_diff(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new))
                for d in key_diff(a, b, f"{path}[{i}]")]
    return [] if old == new else [("changed", path)]


def main():
    os.makedirs(FIXTURES, exist_ok=True)
    for name, doc in fixture_inputs().items():
        in_path = os.path.join(FIXTURES, f"{name}.json")
        golden_path = os.path.join(FIXTURES, f"{name}.golden.json")
        previous = None
        if os.path.exists(golden_path):
            with open(golden_path) as handle:
                previous = json.load(handle)
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
        if previous is not None:
            for what, path in key_diff(previous, report):
                print(f"  {what} {path}")


if __name__ == "__main__":
    main()
