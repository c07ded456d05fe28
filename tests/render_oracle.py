"""The report serializer that formats one float per call, kept as a test
oracle for `cli.render_json`.

`cli.render_json` writes the whole object as one template with a "%.17g"
field per float and fills them all at once; the recursion below is the
definition its bytes must reproduce.
"""
import json
import math


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in report")
    if x == 0.0:
        return "0"   # canonical zero, so report bytes survive a JSON round trip
    return f"{x:.17g}"


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str))


def render_json(obj, indent: int = 0) -> str:
    """Serializer with fixed float formatting; lists of scalars stay on
    one line, everything else is indented two spaces per level."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
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
        items = list(obj)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(render_json(v) for v in items) + "]"
        inner = ",\n".join(f"{pad}  {render_json(v, indent + 1)}" for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
