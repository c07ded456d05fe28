"""Command-line front end.

Reads a JSON input document describing a measure, a symbol, or one of the
two closed-form families, runs the pipeline and the certificate battery,
prints a one-line verdict, and optionally writes a structured JSON report
(atomically, floats at 17 significant digits so goldens are diff-stable).
"""
from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, certify, symbolpipe

TOOL_NAME = "cauchydual"

EXIT_ERROR = 3


class InputError(Exception):
    """Invalid input document; `path` names the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


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

def _cmatrix(M) -> np.ndarray:
    """Real and imaginary parts of the complex number or array M as a
    trailing axis of length 2 (a number becomes [re, im], a vector its rows
    of pairs): a float64 block that `render_json` writes in one fill."""
    M = np.asarray(M, dtype=complex)
    return np.stack((M.real, M.imag), -1)


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _layout(shape: tuple, indent: int) -> str:
    """Template of a float block of `shape` written at `indent`, one "%.17g"
    per float, laid out as its nested lists would be: an empty list is
    "[]", a row of floats stays on one line, and any other list puts each
    item on its own line, two spaces deeper."""
    if shape[0] == 0:
        return "[]"
    if len(shape) == 1:
        return "[" + ", ".join(["%.17g"] * shape[0]) + "]"
    pad = "  " * indent
    item = pad + "  " + _layout(shape[1:], indent + 1)
    return "[\n" + ",\n".join([item] * shape[0]) + "\n" + pad + "]"


@functools.lru_cache(maxsize=1024)
def _quoted(text: str) -> str:
    """`text` as a JSON string with every "%" doubled for the template; the
    same keys recur in every report, so each is quoted once."""
    return json.dumps(text).replace("%", "%%")


def _template(obj, indent: int, floats: list) -> str:
    """Text of `obj` at `indent` with "%.17g" in place of every float, whose
    values are appended to `floats` in text order; every other "%" is
    doubled, so that filling the template writes it back."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        floats.append(obj)
        return "%.17g"
    if isinstance(obj, str):
        return _quoted(obj)
    if isinstance(obj, np.ndarray):
        if obj.dtype != np.float64 or obj.ndim == 0:
            raise TypeError(f"cannot serialize {obj.ndim}-d {obj.dtype} array")
        floats += obj.ravel().tolist()
        return _layout(obj.shape, indent)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_quoted(str(key))}: "
            f"{_template(val, indent + 1, floats)}"
            for key, val in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(map(_is_scalar, obj)):
            return "[" + ", ".join(_template(v, 0, floats) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {_template(v, indent + 1, floats)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_json(obj, indent: int = 0) -> str:
    """Serializer with fixed float formatting (17 significant digits, zero
    as "0"); lists of scalars stay on one line, everything else is indented
    two spaces per level, and a float64 array is written as its nested
    lists would be.

    One pass builds a template with a "%.17g" field per float, and one fill
    writes them all. Adding 0.0 turns -0.0 into 0.0, so every zero is "0"."""
    floats = []
    template = _template(obj, indent, floats)
    if not all(map(math.isfinite, floats)):
        raise ValueError("non-finite float in report")
    return template % tuple([v + 0.0 for v in floats])


def write_atomic(path: str, text: str):
    """Write through a temporary file and rename it over `path`. The file
    is created with mode 0o666, so it gets the umask as a plain `open` would."""
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

def _stats_json(stats, *drift) -> list:
    """Level, min_eig and norm per level, then the named drift fields."""
    return [{"level": st.level, "min_eig": st.min_eig, "norm": st.norm,
             **{name: getattr(st, name) for name in drift}}
            for st in stats]


def _necessary_json(nec: certify.NecessaryMeasure, passed: bool) -> dict:
    return {
        "atoms": [{"location": loc, "weight": w} for loc, w
                  in zip(_cmatrix(nec.locations), _cmatrix(nec.weights))],
        "worst_violation": nec.worst_violation,
        "worst_location": None if nec.worst_location is None
        else _cmatrix(nec.worst_location),
        "passed": passed,
    }


def _measure_json(measure: certify.RepresentingMeasure) -> dict:
    return {
        "atoms": _cmatrix(measure.atoms),
        "masses": measure.masses,
        "density_min": measure.density_min,
        "measure_check": {
            "size": len(measure.moments) - 1,
            "max_residual": measure.max_residual,
        },
    }


def build_report(input_echo, kind: str, sym: symbolpipe.RationalSymbol,
                 result: certify.CertificateReport, dump_tables: bool) -> dict:
    cfg = result.config
    taylor = result.taylor
    # numerator j is printed up to its last nonzero coefficient
    C = sym.coefficients
    lengths = ((C != 0) * np.arange(1, C.shape[1] + 1)).max(axis=1, initial=0)
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": input_echo,
        "input_kind": kind,
        "config": {
            "levels": cfg.levels,
            "trunc": cfg.trunc,
            "tol_psd": certify.TOL_PSD,
            "tol_orth": certify.TOL_ORTH,
            "quad_points": certify.QUAD_POINTS,
        },
        "pipeline": {
            "k": sym.k,
            # a symbol input comes without a measure
            "gamma_fr": None if kind == "symbol" else sym.gamma_fr,
            "alphas": _cmatrix(sym.alphas),
            "numerators": [_cmatrix(row[:n])
                           for row, n in zip(sym.coefficients, lengths)],
            "taylor_digest": {
                "n_rows": len(taylor),
                "row_norms": np.linalg.norm(taylor, axis=1),
            },
        },
        "certificates": {
            "verdict": result.verdict,
            "certified_by": result.certified_by,
            "refuted_by": result.refuted_by,
            "refuted_level": result.refuted_level,
            "refuted_min_eig": result.refuted_min_eig,
            "orth_residual": result.orth_residual,
            "orth_passed": result.orth_passed,
            "orthogonality_conflict": result.orth_passed and not result.necessary_passed,
            "agler_pole": _stats_json(result.agler_pole),
            "agler_taylor": _stats_json(result.agler_taylor, "gap"),
            "agler_passed": result.agler_passed,
            "taylor_basis_residual": result.taylor_basis_residual,
            "necessary": _necessary_json(result.necessary, result.necessary_passed),
            "exactness_applies": result.exactness,
        },
        "exit_code": result.exit_code,
    }
    if result.orth_passed:
        report["representing_measure"] = _measure_json(
            certify.representing_measure(result.pairing, result.taylor))
    if dump_tables:
        report["tables"] = {"B_rows": _cmatrix(taylor)}
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
    parser.add_argument("--levels", type=int, default=12, metavar="L",
                        help="max truncation level (default 12)")
    parser.add_argument("--trunc", type=int, default=40, metavar="N",
                        help="matrix truncation size (default 40)")
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
    try:
        with open(args.input) as handle:
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
    except (ValueError, ArithmeticError, RuntimeError, MemoryError,
            np.linalg.LinAlgError) as exc:
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
