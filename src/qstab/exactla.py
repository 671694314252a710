"""Exact linear algebra over the rationals.

Rank and null spaces of drift matrices are computed with fraction-free
(Bareiss) integer elimination followed by rational back substitution.
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

    Each basis vector is normalized to coprime integer entries with the
    first nonzero entry positive, so the result is a stable canonical form.
    Vectors are ordered by their free column index.
    """
    if rows and rows[0]:
        ech, pivots = echelon(rows)
    else:
        ech, pivots = [], []
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v: list[Fraction] = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            pc = pivots[r]
            s = sum((Fraction(ech[r][c]) * v[c] for c in range(pc + 1, n_cols)), Fraction(0))
            v[pc] = -s / ech[r][pc]
        basis.append(normalize_integer_vector(v))
    return basis


def normalize_integer_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Canonical form: coprime integers, first nonzero entry positive."""
    fracs = [Fraction(x) for x in vec]
    if all(f == 0 for f in fracs):
        raise ValueError("cannot normalize the zero vector")
    mult = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(ints)
