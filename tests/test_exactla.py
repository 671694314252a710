"""Exact rank / null-space computations against independent oracles.

The production path is one sparse reduced row echelon form in integers
(``exactla.reduce``); the oracles here are (a) a plain Fraction
Gauss-Jordan eliminator written independently in ``tests/helpers.py`` and
(b) floating-point rank at tolerance 1e-9, which needs numpy. Agreement of all
three on random matrices is the correctness argument for the exact path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dot, float_rank, gauss_jordan, gauss_jordan_null_basis
from qstab import exactla


def fraction_rank(rows) -> int:
    """Oracle: the number of pivots of the Gauss-Jordan form over Fractions."""
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


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


def reduce_rank(rows) -> int:
    return len(exactla.reduce(rows))


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_rank_matches_both_oracles(matrix):
    assert reduce_rank(matrix) == fraction_rank(matrix) == float_rank(matrix)


@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_rank_on_rational_entries(matrix):
    assert reduce_rank(integer_rows(matrix)) == fraction_rank(matrix)


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
    assert sorted(exactla.reduce(matrix)) == [0, 2]
    assert exactla.reduce(matrix) == {0: {0: 1, 1: 2}, 2: {2: 1}}


def test_echelon_skips_zero_columns():
    matrix = [[0, 3, 1], [0, 6, 2]]
    assert sorted(exactla.reduce(matrix)) == [1]
    assert exactla.reduce(matrix) == {1: {1: 3, 2: 1}}
    assert exactla.null_space(matrix, 3) == [(1, 0, 0), (0, 1, -3)]


def test_normalize_integer_vector():
    assert exactla.normalize_integer_vector([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert exactla.normalize_integer_vector([Fraction(0), Fraction(-5)]) == (0, 1)
    assert exactla.normalize_integer_vector([Fraction(-1, 2), Fraction(1, 3)]) == (3, -2)


def test_normalize_rejects_zero_vector():
    with pytest.raises(ValueError):
        exactla.normalize_integer_vector([Fraction(0), Fraction(0)])


@settings(max_examples=100, deadline=None)
@given(int_matrices(), st.data())
def test_row_scaling_preserves_rank_and_null_space(matrix, data):
    scales = [data.draw(st.integers(1, 7)) for _ in matrix]
    scaled = [[k * x for x in row] for k, row in zip(scales, matrix)]
    n_cols = len(matrix[0])
    assert exactla.reduce(scaled) == exactla.reduce(matrix)
    assert exactla.null_space(scaled, n_cols) == exactla.null_space(matrix, n_cols)


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


@st.composite
def wide_matrices(draw):
    """(matrix, n_cols) up to 30 columns: sparse or dense rows, integer or rational
    entries, and some rows that are integer combinations of two earlier rows."""
    n_cols = draw(st.integers(1, 30))
    per_row = draw(st.sampled_from([2, 4, n_cols]))
    entry = draw(st.sampled_from([
        st.integers(-5, 5),
        st.integers(-10**6, 10**6),
        st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=12),
    ]))
    matrix = []
    for _ in range(draw(st.integers(0, 24))):
        if len(matrix) >= 2 and draw(st.booleans()):
            a, b = draw(st.sampled_from(matrix)), draw(st.sampled_from(matrix))
            ka, kb = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            matrix.append([ka * x + kb * y for x, y in zip(a, b)])
            continue
        row = [0] * n_cols
        for c in draw(st.sets(st.integers(0, n_cols - 1), max_size=per_row)):
            row[c] = draw(entry)
        matrix.append(row)
    return matrix, n_cols


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wide_matrices(), st.randoms(use_true_random=False))
def test_reduce_is_the_gauss_jordan_reduced_form(shaped, rnd: random.Random):
    matrix, n_cols = shaped
    rows = integer_rows(matrix)
    reduced = exactla.reduce(rows)
    oracle, pivots = gauss_jordan(matrix, n_cols)
    assert sorted(reduced) == pivots
    assert len(reduced) == fraction_rank(matrix)
    for p, row in reduced.items():
        assert min(row) == p and row[p] > 0
        assert gcd(*row.values()) == 1 and all(row.values())
        assert not any(q in row for q in reduced if q != p)
        assert [Fraction(row.get(c, 0), row[p]) for c in range(n_cols)] == oracle[pivots.index(p)]
    # The form is unique: any order of the rows gives the same one.
    rnd.shuffle(rows)
    assert exactla.reduce(rows) == reduced
    assert exactla.null_space(rows, n_cols) == gauss_jordan_null_basis(matrix, n_cols)


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
