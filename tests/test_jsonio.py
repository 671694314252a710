"""Report rendering: valid JSON with 17-significant-digit floats, or an error."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FLOAT_TAG, reference_render_json
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
])
def test_render_refuses_what_is_not_valid_json(bad):
    with pytest.raises(ValueError):
        render_json(bad)


def test_render_refuses_an_object_it_cannot_serialize():
    with pytest.raises(TypeError, match="cannot serialize object in a report"):
        render_json({"x": object()})


@pytest.mark.parametrize("bad", [{1: "a"}, {"x": [{None: 1}]}, {("a",): 1}, {True: 1}])
def test_render_refuses_a_key_that_is_not_a_string(bad):
    with pytest.raises(TypeError):
        render_json(bad)


def test_a_string_that_looks_like_a_float_tag_renders_as_itself():
    payload = {"x": FLOAT_TAG + "oops", FLOAT_TAG + "key": [FLOAT_TAG + "1.5"]}
    assert render_json(payload) == json.dumps(payload, indent=2)
    assert json.loads(render_json(payload)) == payload


# The reference reserves its float tag, so no drawn string contains it.
strings = st.text().filter(lambda s: FLOAT_TAG not in s)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.225073858507201e-308, 1e308, 0.1])
leaves = (strings | st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
          | st.booleans() | st.none() | floats)
payloads = st.recursive(
    leaves,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(strings, kids),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payloads)
@example({"s": 'é "q" \\ \n\t\x00\x1f  \U0001f600', "big": [2**64 + 1, -(2**70)],
          "f": [-0.0, 5e-324, 2.225073858507201e-308, 1e308, 0.1, 1.0, 1e16, 1e-7],
          "b": [True, False, None], "t": (1, (2.5, ())), "e": {}, "l": [[], {}]})
@example([])
@example("")
@example(0.5)
def test_render_matches_the_reference_renderer(payload):
    assert render_json(payload) == reference_render_json(payload)
