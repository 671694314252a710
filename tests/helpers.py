"""Helpers shared by the tests: a network's actions listed one id at a time,
an exact inner product, a rational vector in the exact engine's canonical
form, the linear-algebra oracles that the exact engine is checked against
(Gauss-Jordan elimination over Fractions, its free-column null basis, and
a floating-point rank, skipped without numpy), the reference report
renderer that the one-pass JSON writer is checked against, the Fraction
signed-work rule that integer criticality is checked against, a
strategy for rings and re-entrant lines, and the spec reader that checked
every value itself, which the shape-only reader is checked against."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from qstab.exactla import primitive
from qstab.netmodel import (
    FAMILIES,
    ConstructionError,
    SpecFileError,
    as_rate,
    build_custom,
    build_push_pull,
    build_reentrant,
    build_ring,
)


def list_actions(net):
    """Every action of ``net`` in id order, each built from its id."""
    return [net.action(a) for a in range(net.listable_actions())]


def label_ids(net) -> dict[str, int]:
    """Each action's id by its label."""
    return {a.label: i for i, a in enumerate(list_actions(net))}


def dot(u, v) -> Fraction:
    """Exact inner product of two rational vectors."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def normalize_integer_vector(vec) -> tuple[int, ...]:
    """A rational vector in ``exactla.primitive``'s form (coprime integers,
    first nonzero entry positive): primitive of it times its denominators' lcm."""
    fracs = [Fraction(x) for x in vec]
    mult = lcm(*(f.denominator for f in fracs))
    return primitive([f.numerator * (mult // f.denominator) for f in fracs])


def gauss_jordan(rows, n_cols) -> tuple[list[list[Fraction]], list[int]]:
    """Oracle: the reduced row echelon form over Fractions, pivots scaled to 1, and its pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def gauss_jordan_null_basis(rows, n_cols) -> list[tuple[int, ...]]:
    """Oracle: the free-column null basis of the reduced row echelon form, canonicalized.

    For free column f, v[f] = 1, v = 0 at the other free columns and
    v[p_k] = -R[k][f] at pivot column p_k; then coprime integers, first
    nonzero entry positive.
    """
    m, pivots = gauss_jordan(rows, n_cols)
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for k, p in enumerate(pivots):
            v[p] = -m[k][f]
        mult = lcm(*(x.denominator for x in v))
        ints = [int(x * mult) for x in v]
        g = gcd(*ints) * (1 if next(x for x in ints if x) > 0 else -1)
        basis.append(tuple(x // g for x in ints))
    return basis


def float_rank(rows) -> int:
    """Oracle: floating-point rank at tolerance 1e-9; the calling test skips without numpy."""
    np = pytest.importorskip("numpy")
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float), tol=1e-9))


FLOAT_TAG = "@@float17@@:"


def reference_render_json(payload) -> str:
    """Oracle: a report rendered by ``json.dumps(indent=2)``, floats tagged as
    strings on the way in and written with 17 significant digits on the way
    out. The tag is reserved, so a string that contains it is refused."""

    def tag(obj):
        if isinstance(obj, str):
            if FLOAT_TAG in obj:
                raise ValueError(f"cannot render the string {obj!r} in a report")
            return obj
        if isinstance(obj, bool) or obj is None or isinstance(obj, int):
            return obj
        if isinstance(obj, float):
            if not math.isfinite(obj):
                raise ValueError(f"cannot render the non-finite float {obj!r} in a report")
            return FLOAT_TAG + format(obj, ".17g")
        if isinstance(obj, dict):
            return {tag(k): tag(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [tag(v) for v in obj]
        raise TypeError(f"cannot serialize {type(obj).__name__} in a report")

    return re.sub(f'"{FLOAT_TAG}([^"]*)"', r"\1", json.dumps(tag(payload), indent=2))


def signed_work_critical(net) -> bool:
    """Oracle: a re-entrant network is critical iff on every stream the inverse
    rates, signed - on server 1 and + on server 2, sum to zero as Fractions."""
    return all(
        sum((Fraction(-1 if server == 1 else 1) / rate for server, rate in stream), Fraction(0)) == 0
        for stream in net.meta.streams
    )


rate_st = st.fractions(min_value=Fraction(1, 6), max_value=Fraction(6), max_denominator=6)


@st.composite
def rings_and_lines(draw):
    """Rings of 2 to 12 servers, and lines of one to four streams of two to five steps."""
    if draw(st.booleans()):
        m = draw(st.integers(2, 12))
        return build_ring([draw(rate_st) for _ in range(m)], [draw(rate_st) for _ in range(m)])
    streams = []
    for i in range(draw(st.integers(1, 4))):
        servers = [draw(st.sampled_from([1, 2])) for _ in range(draw(st.integers(2, 5)))]
        if i == 0:
            servers[:2] = [1, 2]  # both servers have work
        streams.append([(s, draw(rate_st)) for s in servers])
    return build_reentrant(streams)


def _ref_fields(obj, names, where):
    if not isinstance(obj, dict):
        raise SpecFileError(f"{where} must be an object")
    unknown = sorted(set(obj) - names)
    if unknown:
        raise SpecFileError(f"unknown field {unknown[0]!r} in {where}")
    missing = sorted(names - set(obj))
    if missing:
        raise SpecFileError(f"missing field {missing[0]!r} in {where}")


def _ref_rate(value, where):
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise SpecFileError(f"{where} must be an integer or 'num/den' string")
    try:
        return as_rate(value)
    except ConstructionError as exc:
        raise SpecFileError(f"{where}: {exc}") from exc


def _ref_rates(value, where, length=None):
    if not isinstance(value, list) or (length is not None and len(value) != length):
        raise SpecFileError(f"{where} must be a list")
    return [_ref_rate(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _ref_no_repeats(pairs):
    if len({k for k, _ in pairs}) != len(pairs):
        raise SpecFileError("repeated field")
    return dict(pairs)


def reference_loads_spec(text: str):
    """Oracle: the spec reader that checked every value before the builder ran,
    reading rates through ``as_rate`` and so through ``parse_rational``'s grammar.

    It accepts the same documents as ``loads_spec`` and builds equal
    networks; its messages differ, and are not compared.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_ref_no_repeats)
    except (RecursionError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise SpecFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFileError("top level must be an object")
    family = doc.get("family")
    if family not in FAMILIES:
        raise SpecFileError("unknown family")
    try:
        if family in ("pushpull", "ring"):
            _ref_fields(doc, {"family", "lambda", "mu"}, "document")
            length = 2 if family == "pushpull" else None
            lam = _ref_rates(doc["lambda"], "'lambda'", length)
            mu = _ref_rates(doc["mu"], "'mu'", length)
            if len(lam) != len(mu) or len(lam) < 2:
                raise SpecFileError("'lambda' and 'mu' must have equal lengths >= 2")
            return build_ring(lam, mu) if family == "ring" else build_push_pull(*lam, *mu)
        if family == "reentrant":
            _ref_fields(doc, {"family", "streams"}, "document")
            if not isinstance(doc["streams"], list) or not doc["streams"]:
                raise SpecFileError("'streams' must be a nonempty list")
            streams = []
            for i, stream in enumerate(doc["streams"]):
                if not isinstance(stream, list):
                    raise SpecFileError(f"streams[{i}] must be a list of operations")
                ops = []
                for j, op in enumerate(stream):
                    where = f"streams[{i}][{j}]"
                    _ref_fields(op, {"server", "rate"}, where)
                    if type(op["server"]) is not int or op["server"] not in (1, 2):
                        raise SpecFileError(f"{where}.server must be 1 or 2")
                    ops.append((op["server"], _ref_rate(op["rate"], f"{where}.rate")))
                streams.append(ops)
            return build_reentrant(streams)
        _ref_fields(doc, {"family", "M", "actions"}, "document")
        m = doc["M"]
        if not isinstance(m, int) or isinstance(m, bool) or m < 1:
            raise SpecFileError("'M' must be a positive integer")
        if not isinstance(doc["actions"], list) or not doc["actions"]:
            raise SpecFileError("'actions' must be a nonempty list")
        actions = []
        for i, entry in enumerate(doc["actions"]):
            _ref_fields(entry, {"label", "outcomes"}, f"actions[{i}]")
            if not isinstance(entry["label"], str):
                raise SpecFileError(f"actions[{i}].label must be a string")
            if not isinstance(entry["outcomes"], list) or not entry["outcomes"]:
                raise SpecFileError(f"actions[{i}].outcomes must be a nonempty list")
            outcomes = []
            for j, outcome in enumerate(entry["outcomes"]):
                where = f"actions[{i}].outcomes[{j}]"
                _ref_fields(outcome, {"disp", "rate"}, where)
                disp = outcome["disp"]
                if not isinstance(disp, list) or not all(
                    isinstance(x, int) and not isinstance(x, bool) for x in disp
                ):
                    raise SpecFileError(f"{where}.disp must be a list of integers")
                outcomes.append((disp, _ref_rate(outcome["rate"], f"{where}.rate")))
            actions.append((entry["label"], outcomes))
        return build_custom(m, actions)
    except ConstructionError as exc:
        raise SpecFileError(str(exc)) from exc
