"""Regenerate the golden reports from the committed fixture inputs.

Usage, from the repository root:

    python3 scripts/make_goldens.py

Writes the report of `cauchydual --input NAME.json` to NAME.golden.json for
each input fixtures/NAME.json, which it only reads, and prints the key path
of each value that changed, appeared or vanished against the old golden.
"""
import json
import os
import pathlib
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
# the package of this checkout, whether or not it is installed
sys.path.insert(0, os.path.join(ROOT, "src"))

from cauchydual import cli  # noqa: E402

FIXTURES = os.path.join(ROOT, "fixtures")


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
    for path in sorted(pathlib.Path(FIXTURES).glob("*.json")):
        if path.name.endswith(".golden.json"):
            continue
        golden = path.with_suffix(".golden.json")
        previous = json.loads(golden.read_text()) if golden.exists() else None
        code = cli.main(["--input", str(path), "--report", str(golden)])
        if code == cli.EXIT_ERROR:
            raise SystemExit(f"{path.stem}: input rejected, no golden written")
        print(f"{path.stem}: exit {code}, wrote {os.path.relpath(golden)}")
        if previous is not None:
            for what, key in key_diff(previous, json.loads(golden.read_text())):
                print(f"  {what} {key}")


if __name__ == "__main__":
    main()
