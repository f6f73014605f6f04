"""Small shared helpers: deterministic serialization and the QGRAPH_THREADS check."""

from __future__ import annotations

import math
import os

from .errors import InputError


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    if isinstance(x, bool):  # bools are ints but must not reach here
        raise TypeError("bool is not a float")
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(float(x), ".17g")


def dumps_json(obj, indent: int | None = 2) -> str:
    """Serialize to JSON with fixed field order and 17-significant-digit floats.

    The standard library encoder formats floats with repr(); results must be
    byte-stable across runs and platforms with an explicit float format, so a
    small writer is used instead.  Dict insertion order is preserved.
    ``indent=None`` produces a compact single line (no trailing newline).
    """
    out: list[str] = []
    _write_json(obj, out, indent, 0)
    return "".join(out) + ("\n" if indent is not None else "")


def _write_json(obj, out: list[str], indent: int | None, level: int) -> None:
    compact = indent is None
    pad = "" if compact else " " * (indent * level)
    pad_in = "" if compact else " " * (indent * (level + 1))
    open_nl = "" if compact else "\n"
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(_escape_string(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + open_nl)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {type(key)}")
            out.append(pad_in + _escape_string(key) + ": ")
            _write_json(value, out, indent, level + 1)
            last = i == len(obj) - 1
            out.append(("" if last else ", ") if compact else (",\n" if not last else "\n"))
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[" + open_nl)
        for i, value in enumerate(obj):
            out.append(pad_in)
            _write_json(value, out, indent, level + 1)
            last = i == len(obj) - 1
            out.append(("" if last else ", ") if compact else (",\n" if not last else "\n"))
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)} to JSON")


def _escape_string(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\r", "\\r").replace("\t", "\\t")
    return f'"{escaped}"'


def complex_to_json(z: complex) -> dict:
    """Complex numbers serialize as {"re": ..., "im": ...} objects."""
    return {"re": float(z.real), "im": float(z.imag)}


def worker_count() -> int:
    """The worker count QGRAPH_THREADS asks for (0 or unset = auto).

    This is the one validator of the variable: a non-integer or negative
    value is an :class:`InputError`.  qgraph itself runs serially whatever
    the value; the count is only reported.
    """
    raw = os.environ.get("QGRAPH_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"QGRAPH_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise InputError("QGRAPH_THREADS must be >= 0")
    if n == 0:
        return min(8, os.cpu_count() or 1)
    return n
