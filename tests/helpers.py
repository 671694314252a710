"""Helpers shared by the tests: a network's actions listed one id at a time,
an exact inner product, a rational vector in the exact engine's canonical
form, the linear-algebra oracles that the exact engine is checked against
(Gauss-Jordan elimination over Fractions, its free-column null basis, and
a floating-point rank, skipped without numpy), the reference report
renderer that the one-pass JSON writer is checked against, the Fraction
signed-work rule that integer criticality is checked against, and a
strategy for rings and re-entrant lines."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import strategies as st

from qstab.exactla import primitive
from qstab.netmodel import build_reentrant, build_ring


def list_actions(net):
    """Every action of ``net`` in id order, each built from its id."""
    return [net.action(a) for a in range(net.listable_actions())]


def label_ids(net) -> dict[str, int]:
    """Each action's id by its label."""
    return {a.label: a.id for a in list_actions(net)}


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
