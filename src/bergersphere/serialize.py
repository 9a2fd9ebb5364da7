"""Deterministic text output for reports and profiles.

Floats are printed with 17 significant digits so that every value
round-trips exactly and repeated runs produce byte-identical files.
``json.dumps`` writes every other JSON value, but the stdlib encoder has
no hook for the digits of a float, so a small recursive renderer lays
out dicts and lists and hands floats to ``fmt17``.
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


def _render(obj, pad: str) -> str:
    # pad indents obj's closing bracket; its items sit two spaces deeper
    if isinstance(obj, float):
        return fmt17(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        items, ends = [json.dumps(str(k)) + ": " + _render(v, inner) for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_render(v, inner) for v in obj], "[]"
    else:
        return json.dumps(obj)  # str, int, bool, None; TypeError for anything else
    if not items:
        return ends
    return ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + ends[1]


def json_text(obj) -> str:
    """JSON indented by two spaces, with 17-significant-digit floats and a trailing newline."""
    return _render(obj, "") + "\n"
