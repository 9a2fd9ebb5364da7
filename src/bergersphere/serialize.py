"""Deterministic text output for reports and profiles.

Floats are printed with 17 significant digits so that every value
round-trips exactly and repeated runs produce byte-identical files.
The JSON writer is a small recursive renderer rather than ``json.dumps``
because the stdlib encoder offers no hook to control float formatting.
It serves the small payloads (the diameter report, ``exp``).  Profile
tables, thousands of cells each, are written by ``CutProfile`` to the
same bytes.  A profile stores its solved half, the rows with
``pbar3 >= 0``; each is written once through a ``%.17g`` row template,
and the row at ``-pbar3`` is that text with the signs of ``pbar3`` and
``dt_cut`` flipped, since ``'%.17g' % -x`` is ``'-' + '%.17g' % x`` for
every finite float ``x >= +0.0``.
"""

from __future__ import annotations

import json
import math

__all__ = ["fmt17", "json_text"]


def fmt17(x: float) -> str:
    """Render a finite float with 17 significant digits."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _render(obj, level: int, out: list) -> None:
    pad = "  " * (level + 1)  # two spaces per level
    close_pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(pad)
            out.append(json.dumps(str(key)))
            out.append(": ")
            _render(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _render(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(fmt17(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    """JSON indented by two spaces, with 17-significant-digit floats and a trailing newline."""
    out: list = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)
