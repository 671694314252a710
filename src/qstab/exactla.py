"""Exact linear algebra over the integers.

Rank and null spaces of drift matrices are computed with fraction-free
(Bareiss) integer elimination followed by integer back substitution, and
every vector returned is in one canonical form (:func:`primitive`).
No floating point is used anywhere in this module: the certificates built
on top of it are exact algebraic objects, and a tolerance-based rank would
make them meaningless.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns the eliminated matrix and the pivot column indices in order.
    Every division below is exact (Sylvester's identity); a nonzero
    remainder would mean the elimination lost exactness, so it is checked.
    """
    m = [list(row) for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, n_rows):
            for j in range(c + 1, n_cols):
                num = m[r][c] * m[i][j] - m[i][c] * m[r][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination lost exactness")
                m[i][j] = q
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
    return m, pivots


def null_space(rows: Sequence[Sequence[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Basis of the right null space of an integer matrix, one vector per free column.

    The vector of free column f is d at f and 0 at the other free columns,
    d being the last Bareiss pivot (+-det of the pivot block). By Cramer's
    rule its pivot entries, solved bottom up, are integers, so every
    division is exact; a remainder is checked, as in :func:`echelon`.
    Vectors are in :func:`primitive` form, ordered by f.
    """
    if rows and rows[0]:
        ech, pivots = echelon(rows)
    else:
        ech, pivots = [], []
    d = ech[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[f] = d
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum(ech[r][c] * v[c] for c in range(pc + 1, n_cols))
            v[pc], rem = divmod(-s, ech[r][pc])
            if rem:
                raise ArithmeticError("integer back substitution lost exactness")
        basis.append(primitive(v))
    return basis


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a nonzero integer vector: coprime entries, first nonzero positive."""
    g = gcd(*ints)
    if not g:
        raise ValueError("cannot normalize the zero vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def normalize_integer_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Canonical form of a rational vector: :func:`primitive` of it times its denominators' lcm."""
    fracs = [Fraction(x) for x in vec]
    mult = lcm(*(f.denominator for f in fracs))
    return primitive([f.numerator * (mult // f.denominator) for f in fracs])
