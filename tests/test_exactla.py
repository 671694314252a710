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
