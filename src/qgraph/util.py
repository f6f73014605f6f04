"""Small shared helpers: JSON text and the QGRAPH_THREADS check."""

from __future__ import annotations

import json
import os

from .errors import InputError


def dumps_json(obj, indent: int | None = 2) -> str:
    """Serialize to JSON in dict insertion order, floats as their ``repr``, the
    shortest decimal that reads back to the same double.

    ``indent=None`` produces a compact single line (no trailing newline).
    Non-ASCII text is written as is; control characters are escaped.
    """
    return json.dumps(obj, indent=indent, ensure_ascii=False) + ("\n" if indent is not None else "")


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
