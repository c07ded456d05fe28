"""Command-line front end.

Reads a JSON input document describing a measure, a symbol, or one of the
two closed-form families, runs the pipeline and the certificate battery,
prints a one-line verdict, and optionally writes a structured JSON report
(atomically, as one line of JSON). The report holds the certificate
records themselves; render_json writes each as its repr-shown fields.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, certify, polyrat, symbolpipe

TOOL_NAME = "cauchydual"

EXIT_ERROR = 3


class InputError(Exception):
    """Invalid input document; the message starts with the field's path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------- parsing

def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(path, f"expected an object, got {type(value).__name__}")
    return value


def _check_keys(doc: dict, path: str, required, optional=()):
    for key in required:
        if key not in doc:
            raise InputError(f"{path}.{key}" if path else key, "missing required field")
    for key in doc:
        if key not in required and key not in optional:
            raise InputError(f"{path}.{key}" if path else key, "unknown field")


def _real(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:       # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise InputError(path, "must be finite")
    return out


def _complex_pair(value, path: str) -> complex:
    if (not isinstance(value, list) or len(value) != 2):
        raise InputError(path, "expected [re, im]")
    return complex(_real(value[0], f"{path}[0]"), _real(value[1], f"{path}[1]"))


def parse_input_document(doc) -> tuple[str, symbolpipe.RationalSymbol]:
    """Validate the document and build the symbol it describes."""
    top = _require_mapping(doc, "input")
    kinds = [k for k in ("measure", "symbol", "antipodal", "single_atom") if k in top]
    if len(kinds) != 1:
        raise InputError("input", "exactly one of measure | symbol | antipodal | "
                                  f"single_atom required, got {kinds or 'none'}")
    _check_keys(top, "", kinds)
    kind = kinds[0]
    body = _require_mapping(top[kind], kind)

    if kind == "measure":
        _check_keys(body, kind, ("atoms",))
        atoms = body["atoms"]
        if not isinstance(atoms, list):
            raise InputError("measure.atoms", "expected a list")
        thetas, weights = [], []
        for i, atom in enumerate(atoms):
            apath = f"measure.atoms[{i}]"
            _check_keys(_require_mapping(atom, apath), apath,
                        ("theta_radians", "weight"))
            thetas.append(_real(atom["theta_radians"], f"{apath}.theta_radians"))
            weights.append(_real(atom["weight"], f"{apath}.weight"))
        mu = symbolpipe.CircleMeasure(tuple(thetas), tuple(weights))
        return kind, symbolpipe.measure_to_symbol(mu)

    if kind == "symbol":
        _check_keys(body, kind, ("alphas", "numerators"))
        if not isinstance(body["alphas"], list) or not isinstance(body["numerators"], list):
            raise InputError(kind, "alphas and numerators must be lists")
        alphas = [_complex_pair(a, f"symbol.alphas[{i}]")
                  for i, a in enumerate(body["alphas"])]
        numerators = []
        for j, coeffs in enumerate(body["numerators"]):
            cpath = f"symbol.numerators[{j}]"
            if not isinstance(coeffs, list):
                raise InputError(cpath, "expected a list of [re, im] coefficients")
            numerators.append([_complex_pair(c, f"{cpath}[{i}]")
                               for i, c in enumerate(coeffs)])
        return kind, symbolpipe.symbol_from_parts(alphas, numerators)

    if kind == "antipodal":
        _check_keys(body, kind, ("c1", "c2"))
        return kind, symbolpipe.closed_form_antipodal(
            _real(body["c1"], "antipodal.c1"), _real(body["c2"], "antipodal.c2"))

    _check_keys(body, kind, ("tau",), ("theta_radians",))
    tau = _real(body["tau"], "single_atom.tau")
    theta = _real(body.get("theta_radians", 0.0), "single_atom.theta_radians")
    return kind, symbolpipe.single_atom_symbol(tau, theta)


# ------------------------------------------------------------ JSON output

@functools.cache
def _repr_fields(cls) -> tuple | None:
    """The names of the repr-shown fields of the dataclass `cls`, in
    declaration order; None for a class that is no dataclass."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(f.name for f in dataclasses.fields(cls) if f.repr)


def _encode(value):
    """What JSON lacks, as JSON writes it: a certificate record (a
    dataclass) as its repr-shown fields, a complex number or array as its
    real and imaginary parts on a last axis of length 2, and an array as
    its nested lists, with 0.0 added so that -0.0 is written as 0.0. Any
    other object is refused."""
    names = _repr_fields(type(value))
    if names is not None:
        return {name: getattr(value, name) for name in names}
    if isinstance(value, (complex, np.ndarray)):
        if np.iscomplexobj(value):
            # a complex double is stored as its real part, then its imaginary
            value = np.ascontiguousarray(value, dtype=complex).view(float).reshape(
                np.shape(value) + (2,))
        return (value + 0.0).tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_json(obj) -> str:
    """The report as one line of JSON, every float at the shortest text
    that reads back to the same double; a NaN or infinity is a ValueError.
    build_report makes a tree, so json's cycle check is off: a cycle would
    be a RecursionError."""
    return json.dumps(obj, allow_nan=False, default=_encode,
                      check_circular=False)


def write_atomic(path: str, text: str):
    """Write through a temporary file and rename it over `path`. The file
    is created with mode 0o666, so it gets the umask as a plain `open` would.
    A directory at `path` is refused before any temporary file is made."""
    if os.path.isdir(path):
        raise IsADirectoryError("is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".report-{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------------------- reporting

def build_report(input_echo, kind: str, sym: symbolpipe.RationalSymbol,
                 result: certify.CertificateReport, dump_tables: bool) -> dict:
    """The report: the certificate records themselves, under the run's
    input, configuration and pipeline, for render_json to write."""
    cfg = result.config
    taylor = result.taylor
    # numerator j is printed up to its last nonzero coefficient
    C = sym.coefficients
    lengths = ((C != 0) * np.arange(1, C.shape[1] + 1)).max(axis=1, initial=0)
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "input": input_echo,
        "input_kind": kind,
        "config": {
            "levels": cfg.levels,
            "trunc": cfg.trunc,
            "tol_psd": certify.TOL_PSD,
            "tol_orth": certify.TOL_ORTH,
            "quad_points": polyrat.CIRCLE.size,
        },
        "pipeline": {
            "k": sym.k,
            # a symbol input comes without a measure
            "gamma_fr": None if kind == "symbol" else sym.gamma_fr,
            "alphas": sym.alphas,
            "numerators": [row[:n] for row, n in zip(C, lengths)],
            "taylor_digest": {
                "n_rows": len(taylor),
                "row_norms": np.linalg.norm(taylor, axis=1),
            },
        },
        "certificates": result,
        "exit_code": result.exit_code,
    }
    if result.orth_passed:
        report["representing_measure"] = certify.representing_measure(
            result.pairing, taylor)
    if dump_tables:
        report["tables"] = {"B_rows": taylor}
    return report


# ------------------------------------------------------------------ main

class _ArgumentParser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with EXIT_ERROR.

    Exit code 2 is reserved for the InconclusiveAtTruncation verdict, so a
    mistyped flag must not be mistaken for it by callers that only read the
    exit status.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the
    process: parsing stores nothing in it, so every call starts afresh."""
    parser = _ArgumentParser(
        prog=TOOL_NAME,
        description="Certify or refute subnormality of the Cauchy dual of "
                    "the shift for a rational de Branges-Rovnyak symbol.")
    parser.add_argument("--input", required=True, metavar="PATH",
                        help="JSON input document (measure | symbol | "
                             "antipodal | single_atom)")
    parser.add_argument("--levels", type=int, metavar="L",
                        default=certify.CertificateConfig.levels,
                        help="max truncation level (default %(default)s)")
    parser.add_argument("--trunc", type=int, metavar="N",
                        default=certify.CertificateConfig.trunc,
                        help="matrix truncation size (default %(default)s)")
    parser.add_argument("--report", metavar="PATH",
                        help="write the JSON report here (atomic)")
    parser.add_argument("--dump-tables", action="store_true",
                        help="include the Taylor rows in the report")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.report == "":
        parser.error("argument --report: expected a non-empty path")
    try:
        with open(args.input, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        kind, sym = parse_input_document(document)
        cfg = certify.CertificateConfig(levels=args.levels, trunc=args.trunc)
        result = certify.run_certificates(sym, cfg)
        if args.report:
            text = render_json(build_report(document, kind, sym, result,
                                            args.dump_tables)) + "\n"
    except InputError as exc:
        print(f"error: invalid input field {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ArithmeticError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.report:
        try:
            write_atomic(args.report, text)
        except OSError as exc:
            print(f"error: cannot write {args.report}: {exc}", file=sys.stderr)
            return EXIT_ERROR

    detail = result.certified_by or result.refuted_by or "truncation limit"
    print(f"{result.verdict} ({detail}), orth_residual={result.orth_residual:.3e}, "
          f"exit={result.exit_code}")
    return result.exit_code


def entrypoint():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
