"""Deterministic JSON rendering for machine-readable reports.

Floats are emitted with 17 significant digits so reports round-trip
exactly and identical runs produce byte-identical output. Anything that
would not render as valid JSON (a NaN or infinite float, a string that
starts with the internal float tag) is refused with ValueError.
"""

from __future__ import annotations

import json
import math
import re

_TAG = "@@float17@@:"
_TAGGED = re.compile(r'"@@float17@@:([^"]*)"')


def _untagged(text: str) -> str:
    if text.startswith(_TAG):
        raise ValueError(f"cannot render the string {text!r} in a report")
    return text


def _tag_floats(obj):
    if isinstance(obj, str):
        return _untagged(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"cannot render the non-finite float {obj!r} in a report")
        return _TAG + format(obj, ".17g")
    if isinstance(obj, dict):
        return {_untagged(k) if isinstance(k, str) else k: _tag_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} in a report")


def render_json(payload) -> str:
    """Serialize a report payload with 17-significant-digit floats."""
    return _TAGGED.sub(r"\1", json.dumps(_tag_floats(payload), indent=2))
