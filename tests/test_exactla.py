"""Exact rank / null-space computations against independent oracles.

The production path is fraction-free integer elimination; the oracles here
are (a) a plain Fraction Gauss-Jordan eliminator written independently in
this file and (b) floating-point rank at tolerance 1e-9. Agreement of all
three on random matrices is the correctness argument for the exact path.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dot
from qstab import exactla


def fraction_rank(rows) -> int:
    """Oracle: textbook Gauss-Jordan elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    rank = 0
    for c in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def float_rank(rows) -> int:
    """Oracle: floating-point elimination at tolerance 1e-9."""
    return int(np.linalg.matrix_rank(np.array(rows, dtype=float), tol=1e-9))


@st.composite
def int_matrices(draw):
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 6))
    return [
        [draw(st.integers(-5, 5)) for _ in range(n_cols)] for _ in range(n_rows)
    ]


@st.composite
def rational_matrices(draw):
    n_rows = draw(st.integers(1, 6))
    n_cols = draw(st.integers(1, 5))
    entry = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6
    )
    return [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]


def integer_rows(rows) -> list[list[int]]:
    """Each row times the lcm of its denominators: the same rank and null space."""
    out = []
    for row in rows:
        mult = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(Fraction(x) * mult) for x in row])
    return out


def echelon_rank(rows) -> int:
    return len(exactla.echelon(rows)[1])


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_rank_matches_both_oracles(matrix):
    assert echelon_rank(matrix) == fraction_rank(matrix) == float_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rank_on_rational_entries(matrix):
    assert echelon_rank(integer_rows(matrix)) == fraction_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_null_space_annihilated_and_complete(matrix):
    n_cols = len(matrix[0])
    rank = fraction_rank(matrix)
    basis = exactla.null_space(integer_rows(matrix), n_cols)
    assert len(basis) == n_cols - rank
    for vec in basis:
        assert all(dot(row, vec) == 0 for row in matrix)
    if basis:
        # Basis vectors are linearly independent.
        assert fraction_rank(list(basis)) == len(basis)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_null_space_vectors_are_canonical(matrix):
    n_cols = len(matrix[0])
    for vec in exactla.null_space(integer_rows(matrix), n_cols):
        nonzero = [x for x in vec if x]
        assert nonzero, "null-space vectors are nonzero"
        assert gcd(*vec) == 1
        assert nonzero[0] > 0


def test_echelon_known_case():
    matrix = [[2, 4, 6], [1, 2, 4], [0, 0, 5]]
    _, pivots = exactla.echelon(matrix)
    assert pivots == [0, 2]


def test_echelon_skips_zero_columns():
    matrix = [[0, 3, 1], [0, 6, 2]]
    _, pivots = exactla.echelon(matrix)
    assert pivots == [1]
    assert exactla.null_space(matrix, 3) == [(1, 0, 0), (0, 1, -3)]


def test_normalize_integer_vector():
    assert exactla.normalize_integer_vector([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert exactla.normalize_integer_vector([Fraction(0), Fraction(-5)]) == (0, 1)
    assert exactla.normalize_integer_vector([Fraction(-1, 2), Fraction(1, 3)]) == (3, -2)


def test_normalize_rejects_zero_vector():
    import pytest

    with pytest.raises(ValueError):
        exactla.normalize_integer_vector([Fraction(0), Fraction(0)])


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_row_scaling_preserves_rank_and_null_space(matrix, data):
    scales = [data.draw(st.integers(1, 7)) for _ in matrix]
    scaled = [[k * x for x in row] for k, row in zip(scales, matrix)]
    n_cols = len(matrix[0])
    assert exactla.echelon(scaled)[1] == exactla.echelon(matrix)[1]
    assert exactla.null_space(scaled, n_cols) == exactla.null_space(matrix, n_cols)


def gauss_jordan_null_basis(rows, n_cols) -> list[tuple[int, ...]]:
    """Oracle: the free-column null basis of the reduced row echelon form, canonicalized.

    For free column f, v[f] = 1, v = 0 at the other free columns and
    v[p_k] = -R[k][f] at pivot column p_k; then coprime integers, first
    nonzero entry positive.
    """
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


@st.composite
def shaped_matrices(draw):
    """(matrix, n_cols): integer or rational, tall or wide, with some rows and columns zeroed."""
    n_rows = draw(st.integers(0, 6))
    n_cols = draw(st.integers(1, 8))
    entry = draw(st.sampled_from([
        st.integers(-5, 5),
        st.integers(-60, 60),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6),
    ]))
    zero_rows = draw(st.sets(st.integers(0, max(n_rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
    matrix = [
        [0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(n_cols)]
        for i in range(n_rows)
    ]
    return matrix, n_cols


@settings(max_examples=400, deadline=None, derandomize=True)
@given(shaped_matrices())
def test_null_space_is_the_gauss_jordan_free_column_basis(shaped):
    matrix, n_cols = shaped
    expected = gauss_jordan_null_basis(matrix, n_cols)
    assert exactla.null_space(integer_rows(matrix), n_cols) == expected


def test_back_substitution_checks_every_division(monkeypatch):
    # Not a Bareiss echelon form: the last pivot 3 does not clear the first pivot 2.
    monkeypatch.setattr(exactla, "echelon", lambda rows: ([[2, 0, 1], [0, 3, 1]], [0, 1]))
    with pytest.raises(ArithmeticError, match="back substitution"):
        exactla.null_space([[1, 0, 0]], 3)


def test_primitive_rejects_the_zero_vector():
    for zero in ((0,), (0, 0, 0), ()):
        with pytest.raises(ValueError):
            exactla.primitive(zero)


def test_primitive_flips_a_negative_first_entry():
    assert exactla.primitive((-1, 3)) == (1, -3)
    assert exactla.primitive((0, -2, 1)) == (0, 2, -1)


def test_primitive_divides_out_the_common_gcd():
    assert exactla.primitive((0, 6, -9, 0)) == (0, 2, -3, 0)
    assert exactla.primitive((-4, -8)) == (1, 2)


def test_primitive_leaves_a_primitive_vector_unchanged():
    for vec in ((1,), (0, 3, -2, 5), (2, 3), (1, -1, 0)):
        assert exactla.primitive(vec) == vec
