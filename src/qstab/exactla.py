"""Exact linear algebra over the integers.

Rank and null spaces of drift matrices are read from one reduced row
echelon form (:func:`reduce`), built on sparse integer rows with gcd
divisions only, and every vector returned is in one canonical form
(:func:`primitive`). No floating point is used anywhere in this module:
the certificates built on top of it are exact algebraic objects, and a
tolerance-based rank would make them meaningless.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterable, Sequence


def reduce(rows: Iterable[Sequence[int]]) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of an integer matrix, as ``{pivot: {column: entry}}``.

    Every row is sparse and primitive, its first nonzero entry (at its
    pivot column) is positive, and it is zero at the other rows' pivots.
    Rows are taken one at a time: a new row is reduced against the kept
    rows, and what is left, if anything, is kept and its pivot cleared
    from the kept rows. The form is unique, so it depends only on the row
    space, not on the order of the rows; the rank is its length.
    """
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        new = {c: x for c, x in enumerate(row) if x}
        # Clearing a pivot adds no other pivot, since kept rows are zero there.
        for p in [c for c in new if c in kept]:
            new = _clear(new, kept[p], p)
        if not new:
            continue
        q = min(new)
        g = gcd(*new.values()) if new[q] > 0 else -gcd(*new.values())
        new = {c: x // g for c, x in new.items()}
        for p, old in kept.items():
            if q in old:
                kept[p] = _clear(old, new, q)
        kept[q] = new
    return kept


def _clear(a: dict[int, int], b: dict[int, int], p: int) -> dict[int, int]:
    """b[p] a - a[p] b over gcd(a[p], b[p]), content divided out: a with column p cleared.

    b[p] must be positive, so a's entries keep their signs where b is zero.
    """
    g = gcd(a[p], b[p])
    ka, kb = b[p] // g, a[p] // g
    out = {c: ka * x for c, x in a.items()}
    for c, y in b.items():
        z = out.get(c, 0) - kb * y
        if z:
            out[c] = z
        else:
            del out[c]
    g = gcd(*out.values())
    return {c: x // g for c, x in out.items()} if g > 1 else out


def null_space(rows: Iterable[Sequence[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Basis of the right null space of an integer matrix, one vector per free column.

    The vector of free column f is read off :func:`reduce`: with l the
    lcm of the pivot entries of the rows b that are nonzero at f, it is l
    at f, -b[f] l / b[p] at each such row's pivot p, and 0 elsewhere.
    Vectors are in :func:`primitive` form, ordered by f.
    """
    kept = reduce(rows)
    basis = []
    for f in (c for c in range(n_cols) if c not in kept):
        hits = [(p, b) for p, b in kept.items() if f in b]
        mult = lcm(*(b[p] for p, b in hits))
        v = {f: mult} | {p: -b[f] * (mult // b[p]) for p, b in hits}
        basis.append(primitive([v.get(c, 0) for c in range(n_cols)]))
    return basis


def primitive(ints: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a nonzero integer vector: coprime entries, first nonzero positive."""
    g = gcd(*ints)
    if not g:
        raise ValueError("cannot normalize the zero vector")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)
