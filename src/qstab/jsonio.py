"""Deterministic JSON rendering for machine-readable reports.

One recursive pass writes a report in ``json.dumps(payload, indent=2)``'s
layout, with floats as ``format(x, ".17g")`` so that reports round-trip
exactly and identical runs give byte-identical output. A NaN or infinite
float is refused with ValueError, a non-string key or other type with TypeError.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


def render_json(payload) -> str:
    """Serialize a report payload with 17-significant-digit floats."""
    return _render(payload, "\n")


def _render(obj, pad: str) -> str:
    """``obj`` as JSON; ``pad`` is a newline and the indent of its closing bracket."""
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot render the non-finite float {obj!r} in a report")
        return format(obj, ".17g")
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        # _quote raises TypeError on a key that is not a string
        items, ends = [f"{_quote(k)}: {_render(v, inner)}" for k, v in obj.items()], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [_render(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends
