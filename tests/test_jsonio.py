"""Report rendering: valid JSON with 17-significant-digit floats, or an error."""

from __future__ import annotations

import json

import pytest

from qstab.jsonio import render_json


def test_render_round_trips_through_json():
    payload = {"mean": 0.1, "n": 3, "ok": True, "none": None, "label": "a@@b", "xs": [1.5, -2.0]}
    text = render_json(payload)
    assert json.loads(text) == payload
    assert '"mean": 0.10000000000000001' in text


@pytest.mark.parametrize("bad", [
    {"x": float("nan")},
    {"x": [float("inf")]},
    {"x": -float("inf")},
    {"x": "@@float17@@:oops"},
    {"@@float17@@:key": 1},
])
def test_render_refuses_what_is_not_valid_json(bad):
    with pytest.raises(ValueError):
        render_json(bad)


def test_render_refuses_an_object_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize object in a report"):
        render_json({"x": object()})
