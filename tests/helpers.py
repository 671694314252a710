"""Helpers shared by the tests: a network's actions listed one id at a time,
an exact inner product, a rational vector in the exact engine's canonical
form, and the linear-algebra oracles that the exact engine is checked
against: Gauss-Jordan elimination over Fractions, its free-column null
basis, and a floating-point rank (skipped without numpy)."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest

from qstab.exactla import primitive


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
