"""Command-line front end.

Reads a JSON input document describing a measure, a symbol, or one of the
two closed-form families, runs the pipeline and the certificate battery,
prints a one-line verdict, and optionally writes a structured JSON report
(atomically, floats at 17 significant digits so goldens are diff-stable).
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, certify, kernels, symbolpipe

TOOL_NAME = "cauchydual"
RANK1_CHECK_SIZE = 20

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
    out = float(value)
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
        closed = symbolpipe.closed_form_antipodal(
            _real(body["c1"], "antipodal.c1"), _real(body["c2"], "antipodal.c2"))
        return kind, closed.to_symbol()

    _check_keys(body, kind, ("tau",), ("theta_radians",))
    tau = _real(body["tau"], "single_atom.tau")
    theta = _real(body.get("theta_radians", 0.0), "single_atom.theta_radians")
    return kind, symbolpipe.single_atom_symbol(tau, theta)


# ------------------------------------------------------------ JSON output

def _cpx(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _cmatrix(M: np.ndarray) -> list:
    M = np.atleast_2d(M)
    return np.stack((M.real, M.imag), -1).tolist()


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def _fill_floats(template: str, values) -> str:
    """Fill the %.17g fields of `template` with `values`. Adding 0.0 turns
    -0.0 into 0.0, so every zero prints as the canonical "0" and report
    bytes survive a JSON round trip."""
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite float in report")
    return template % tuple([x + 0.0 for x in values])


def _float_rows(items: list, pad: str) -> str | None:
    """Text of a list of floats, or of a list of equal-length lists of
    floats, from one template; None for any other shape."""
    kinds = set(map(type, items))
    if kinds == {float}:
        return _fill_floats("[" + ", ".join(["%.17g"] * len(items)) + "]", items)
    if kinds != {list} or len(set(map(len, items))) != 1:
        return None
    values = [x for row in items for x in row]
    if set(map(type, values)) != {float}:
        return None
    row = "[" + ", ".join(["%.17g"] * len(items[0])) + "]"
    sep = ",\n" + pad + "  "
    return _fill_floats(
        "[\n" + pad + "  " + sep.join([row] * len(items)) + "\n" + pad + "]",
        values)


def render_json(obj, indent: int = 0) -> str:
    """Serializer with fixed float formatting (17 significant digits, zero
    as "0"); lists of scalars stay on one line, everything else is indented
    two spaces per level."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fill_floats("%.17g", (obj,))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {render_json(val, indent + 1)}"
            for key, val in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if isinstance(obj, list):
            text = _float_rows(obj, pad)
            if text is not None:
                return text
        if all(map(_is_scalar, obj)):
            return "[" + ", ".join(map(render_json, obj)) + "]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
        "atoms": [{"location": _cpx(loc), "weight": _cpx(w)}
                  for loc, w in zip(nec.locations, nec.weights)],
        "worst_violation": nec.worst_violation,
        "worst_location": None if nec.worst_location is None
        else _cpx(nec.worst_location),
        "passed": passed,
    }


def _rank1_section(sym: symbolpipe.RationalSymbol, quad_points: int):
    alpha = complex(sym.alphas[0])
    coeffs = sym.numerators[0].coeffs
    gamma = -(coeffs[1] if len(coeffs) > 1 else 0.0) / alpha
    beta = 1.0 / alpha
    out = {"gamma": _cpx(gamma), "beta": _cpx(beta)}
    try:
        model = kernels.mate_rank1(gamma, beta)
    except ValueError as exc:
        out["mate_error"] = str(exc)
        return out
    check = certify.rank1_representing_measure(
        model, RANK1_CHECK_SIZE, quad_points)
    out.update({
        "rho": model.rho,
        "sigma": _cpx(model.sigma),
        "nu": model.nu,
        "measure_check": {
            "size": RANK1_CHECK_SIZE,
            "quad_points": quad_points,
            "mass": check.mass,
            "max_residual": check.max_residual,
        },
    })
    return out


def build_report(input_echo, kind: str, sym: symbolpipe.RationalSymbol,
                 result: certify.CertificateReport, quad_points: int,
                 dump_tables: bool) -> dict:
    cfg = result.config
    taylor = result.taylor
    report = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "input": input_echo,
        "input_kind": kind,
        "config": {
            "levels": cfg.levels,
            "trunc": cfg.trunc,
            "tol_psd": cfg.tol_psd,
            "tol_orth": cfg.tol_orth,
            "quad_points": quad_points,
        },
        "pipeline": {
            "k": sym.k,
            "gamma_fr": sym.gamma_fr,
            "alphas": [_cpx(a) for a in sym.alphas],
            "numerators": [[_cpx(c) for c in p.coeffs] for p in sym.numerators],
            "q": [_cpx(c) for c in sym.q.coeffs],
            "eta": _cmatrix(sym.eta) if sym.k else [],
            "taylor_digest": {
                "n_rows": taylor.n_rows,
                "row_norms": taylor.row_norms().tolist(),
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
            "agler_pole": _stats_json(result.agler_pole),
            "agler_taylor": _stats_json(result.agler_taylor, "residual", "gap"),
            "agler_passed": result.agler_passed,
            "necessary": _necessary_json(result.necessary, result.necessary_passed),
            "exactness_applies": result.exactness,
        },
        "exit_code": result.exit_code,
    }
    if sym.k == 1:
        report["rank1"] = _rank1_section(sym, quad_points)
    if dump_tables:
        table = kernels.kernel_coeffs(taylor, cfg.trunc)
        report["tables"] = {
            "K": _cmatrix(table.K),
            "B_rows": _cmatrix(taylor.rows),
        }
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


def _build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument("--tol-psd", type=float, default=1e-8, metavar="T",
                        help="positivity tolerance (default 1e-8)")
    parser.add_argument("--tol-orth", type=float, default=1e-9, metavar="T",
                        help="relative orthogonality tolerance (default 1e-9)")
    parser.add_argument("--report", metavar="PATH",
                        help="write the JSON report here (atomic)")
    parser.add_argument("--dump-tables", action="store_true",
                        help="include kernel and Taylor tables in the report")
    parser.add_argument("--quad-points", type=int, default=4096, metavar="Q",
                        help="quadrature points for the rank-1 measure check, "
                             "at least 1 (default 4096)")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.quad_points < 1:
        parser.error(f"argument --quad-points: must be at least 1, "
                     f"got {args.quad_points}")
    try:
        with open(args.input) as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except json.JSONDecodeError as exc:
        print(f"error: {args.input} is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        kind, sym = parse_input_document(document)
        cfg = certify.CertificateConfig(
            levels=args.levels, trunc=args.trunc,
            tol_psd=args.tol_psd, tol_orth=args.tol_orth)
        result = certify.run_certificates(sym, cfg)
        report = build_report(document, kind, sym, result,
                              args.quad_points, args.dump_tables)
        text = render_json(report) + "\n" if args.report else None
    except InputError as exc:
        print(f"error: invalid input field {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ArithmeticError, RuntimeError,
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
