"""The fraction-free integer kernel against plain Gaussian elimination over
Fraction, on seeded random integer and rational matrices."""

import random
from fractions import Fraction
from math import lcm

import pytest

from dtregge.linalg import (
    clear_denominators,
    det,
    integer_det,
    kernel_and_particular,
    matrix_rank,
    pfaffian,
    rref,
    solve_square,
)
from test_measure import _pfaffian_oracle


# --- independent oracle: Gaussian elimination over Fraction ---------------


def oracle_rref(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def oracle_det(rows) -> Fraction:
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def oracle_solve(rows, rhs):
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


# --- seeded random matrices -----------------------------------------------


def _entry(rng, rational):
    if rational and rng.random() < 0.5:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return rng.randint(-4, 4)


def random_matrix(rng, n_rows, n_cols, rank=None, rational=False):
    """A random matrix; with ``rank`` given, a product of two random
    factors, so its rank is at most ``rank``."""
    if rank is None:
        return [[_entry(rng, rational) for _ in range(n_cols)] for _ in range(n_rows)]
    left = random_matrix(rng, n_rows, rank, rational=rational)
    right = random_matrix(rng, rank, n_cols, rational=rational)
    return [
        [sum((left[i][k] * right[k][j] for k in range(rank)), 0) for j in range(n_cols)]
        for i in range(n_rows)
    ]


def matrices(seed, count=120):
    """Square and non-square matrices, full rank or not, integer or rational,
    with empty and zero edge cases."""
    rng = random.Random(seed)
    yield []
    yield [[0, 0], [0, 0]]
    yield [[0, 1, 2], [0, 2, 4]]
    for _ in range(count):
        n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
        rank = rng.choice((None, None, rng.randint(0, min(n_rows, n_cols))))
        yield random_matrix(rng, n_rows, n_cols, rank, rational=rng.random() < 0.5)


def square_matrices(seed, count=120):
    rng = random.Random(seed)
    yield []
    for _ in range(count):
        n = rng.randint(1, 6)
        rank = rng.choice((None, None, rng.randint(0, n - 1) if n > 1 else 0))
        yield random_matrix(rng, n, n, rank, rational=rng.random() < 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_rref_and_rank_match_the_oracle(seed):
    for rows in matrices(seed):
        expected, pivots = oracle_rref(rows)
        assert rref(rows) == (expected, pivots)
        assert matrix_rank(rows) == len(pivots)


@pytest.mark.parametrize("seed", range(3))
def test_det_matches_the_oracle(seed):
    for rows in square_matrices(seed):
        expected = oracle_det(rows)
        value = det(rows)
        assert isinstance(value, Fraction) and value == expected
        if all(isinstance(x, int) for row in rows for x in row):
            assert integer_det(rows) == expected


@pytest.mark.parametrize("seed", range(3))
def test_solve_square_matches_the_oracle(seed):
    rng = random.Random(100 + seed)
    for rows in square_matrices(seed):
        rhs = [_entry(rng, True) for _ in rows]
        expected = oracle_solve(rows, rhs)
        assert solve_square(rows, rhs) == expected
        integer_rows = [clear_denominators(row)[0] for row in rows]
        integer_rhs = [rng.randint(-9, 9) for _ in rows]
        assert solve_square(integer_rows, integer_rhs) == oracle_solve(integer_rows, integer_rhs)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_and_particular_match_the_oracle(seed):
    rng = random.Random(200 + seed)
    for rows in matrices(seed):
        if not rows:
            continue
        n_cols = len(rows[0])
        rhs = [_entry(rng, True) for _ in rows]
        basis, particular, pivots = kernel_and_particular(rows, rhs)
        reduced, expected_pivots = oracle_rref(rows)
        assert pivots == expected_pivots
        free = [c for c in range(n_cols) if c not in pivots]
        assert len(basis) == len(free)
        for f, column in zip(free, basis):
            # an integer multiple of the reduced kernel vector, least such
            assert all(isinstance(x, int) for x in column) and column[f] > 0
            for r, p in enumerate(pivots):
                assert column[p] == -reduced[r][f] * column[f]
            assert all(column[g] == 0 for g in free if g != f)
            assert column[f] == lcm(*(Fraction(x, column[f]).denominator for x in column))
        consistent = oracle_rref([list(r) + [b] for r, b in zip(rows, rhs)])[1] == pivots
        if consistent:
            for row, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, particular)) == b
            assert all(particular[c] == 0 for c in free)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    assert clear_denominators([2, -3]) == ([2, -3], 1)
    assert clear_denominators([]) == ([], 1)


# --- Pfaffians --------------------------------------------------------------


def random_skew(rng, n, rational=False, density=1.0):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m[i][j] = _entry(rng, rational)
                m[j][i] = -m[i][j]
    return m


def skew_matrices(seed, count=150):
    """Even-size skew matrices, dense and sparse, integer or rational, with
    a zero (0, 1) entry, a zero first row and low-rank cases."""
    rng = random.Random(seed)
    yield []
    yield [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]  # swap at step 1
    yield [[0, 0, 0, 0], [0, 0, 2, 1], [0, -2, 0, 3], [0, -1, -3, 0]]  # zero first row
    for _ in range(count):
        n = rng.choice((2, 4, 4, 6, 6))
        rational = rng.random() < 0.5
        m = random_skew(rng, n, rational, density=rng.choice((1.0, 0.5, 0.25)))
        if rng.random() < 0.3:
            m[0][1] = m[1][0] = 0
        if rng.random() < 0.2:
            # B S B^T with S skew of size n - 2: singular
            b = random_matrix(rng, n, n - 2, rational=rational)
            s = random_skew(rng, n - 2, rational)
            m = [
                [sum((b[i][k] * s[k][t] * b[j][t] for k in range(n - 2) for t in range(n - 2)), 0)
                 for j in range(n)]
                for i in range(n)
            ]
        yield m


@pytest.mark.parametrize("seed", range(3))
def test_pfaffian_matches_the_permutation_sum_oracle(seed):
    for m in skew_matrices(seed):
        value = pfaffian(m)
        assert value == _pfaffian_oracle(m)
        if all(isinstance(x, int) for row in m for x in row):
            assert isinstance(value, int)


def test_pfaffian_squares_to_the_determinant_up_to_size_20():
    rng = random.Random(7)
    for n in range(0, 21, 2):
        for density in (1.0, 0.3, 0.1):
            m = random_skew(rng, n, density=density)
            assert pfaffian(m) ** 2 == integer_det(m)
