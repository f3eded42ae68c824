"""Exact linear algebra by fraction-free integer elimination.

One routine, ``eliminate``, reduces an integer matrix in place by
Bareiss's one-step fraction-free rule (Bareiss, Math. Comp. 22, 1968):
every entry it writes is an integer minor of the input, so every division
is exact and no rational is ever built.  Determinants, solutions and ranks
are read off its result.  Rational input is first cleared of denominators
row by row; that scales each row by a positive integer, which keeps
solution sets, row spaces and signs.
``pfaffian`` applies the same rule to skew matrices, two indices a step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod


def clear_denominators(row) -> tuple[list[int], int]:
    """(integers, scale) with integers = scale * row and scale >= 1 least."""
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def eliminate(m: list[list[int]], pivot_columns: int | None = None) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of the integer matrix ``m``,
    in place.

    Pivots are sought in the first ``pivot_columns`` columns (all of them
    by default) and rows are swapped to bring each pivot up; every other
    row is reduced at each pivot.  Returns the pivot columns and the sign
    of the row permutation.  Afterwards, with D the last pivot, row r
    holds D at the r-th pivot column, zero at the other pivot columns and
    D times its reduced-row-echelon entries elsewhere, and the rows from
    the rank on are zero in the searched columns.  For a square
    nonsingular matrix D is the determinant times the sign.
    """
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    if pivot_columns is None:
        pivot_columns = n_cols
    pivots: list[int] = []
    sign = 1
    previous = 1
    r = 0
    for c in range(pivot_columns):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            sign = -sign
        row = m[r]
        p = row[c]
        for i in range(n_rows):
            if i == r:
                continue
            other = m[i]
            f = other[c]
            if f:
                m[i] = [(p * x - f * y) // previous for x, y in zip(other, row)]
            elif p != previous:
                m[i] = [p * x // previous for x in other]
        previous = p
        pivots.append(c)
        r += 1
    return pivots, sign


def integer_det(rows) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(row) for row in rows]
    pivots, sign = eliminate(m)
    return sign * m[n - 1][n - 1] if len(pivots) == n else 0


def pfaffian(rows):
    """Pfaffian of an even-size skew rational matrix, by fraction-free skew
    elimination, the Pfaffian analogue of Bareiss's rule.

    Rational input is scaled by its common denominator L first, and
    Pf(M) = Pf(L M) / L^(n/2).  Each step pivots on entry (0, 1), after
    swapping index 1 with the first nonzero column of row 0, and replaces
    the trailing block by (p a_ij - a_0i a_1j + a_0j a_1i) / previous pivot.
    Every entry written is the Pfaffian of a principal submatrix of L M, so
    every division is exact; the last pivot is the Pfaffian up to the swap
    sign.
    """
    scale = lcm(*(x.denominator for row in rows for x in row))
    m = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    sign = previous = 1
    while m:
        j = next((j for j in range(1, len(m)) if m[0][j]), None)
        if j is None:
            sign = 0
            break
        if j != 1:
            for row in m:
                row[1], row[j] = row[j], row[1]
            m[1], m[j] = m[j], m[1]
            sign = -sign
        r0, r1 = m[0], m[1]
        p = r0[1]
        m = [
            [(p * row[k] - r0[i] * r1[k] + r0[k] * r1[i]) // previous for k in range(2, len(row))]
            for i, row in enumerate(m[2:], 2)
        ]
        previous = p
    return sign * previous if scale == 1 else Fraction(sign * previous, scale ** (len(rows) // 2))


def det(rows) -> Fraction:
    """Determinant of a square rational matrix."""
    cleared = [clear_denominators(row) for row in rows]
    return Fraction(
        integer_det([m for m, _ in cleared]), prod(scale for _, scale in cleared)
    )


def solve_square(rows, rhs):
    """Solve a square system exactly; returns a list of Fractions, or None
    if singular."""
    n = len(rows)
    m = [clear_denominators(list(row) + [b])[0] for row, b in zip(rows, rhs)]
    pivots, _ = eliminate(m, n)
    if len(pivots) < n:
        return None
    d = m[n - 1][n - 1] if n else 1
    return [Fraction(m[r][n], d) for r in range(n)]


def matrix_rank(rows) -> int:
    m = [clear_denominators(row)[0] for row in rows]
    return len(eliminate(m)[0])


def kernel_and_particular(rows, rhs):
    """Solutions of rows . x = rhs from one reduction of [rows | rhs].

    Returns (basis, particular, pivots): one primitive-denominator integer
    kernel column per non-pivot column f (entry f positive, entries at the
    other non-pivot columns zero), the solution whose non-pivot entries are
    zero, and the pivot columns of ``rows``.  Pivots are never taken in the
    rhs column; the particular solution solves the system whenever it is
    consistent, which it always is when ``rows`` has full row rank.
    """
    n_cols = len(rows[0]) if rows else 0
    m = [clear_denominators(list(row) + [b])[0] for row, b in zip(rows, rhs)]
    pivots, _ = eliminate(m, n_cols)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    basis = []
    for f in range(n_cols):
        if f in pivots:
            continue
        # the reduced entries are -m[r][f] / d; scale them to integers
        scale = lcm(*(abs(d) // gcd(m[r][f], d) for r in range(len(pivots))))
        column = [0] * n_cols
        column[f] = scale
        for r, p in enumerate(pivots):
            column[p] = -m[r][f] * scale // d
        basis.append(column)
    particular = [Fraction(0)] * n_cols
    for r, p in enumerate(pivots):
        particular[p] = Fraction(m[r][n_cols], d)
    return basis, particular, pivots


def _poly_divmod(poly, monic) -> tuple[list[int], list[int]]:
    """Quotient and remainder by a monic divisor; coefficients lowest first."""
    k, rest, quotient = len(monic) - 1, list(poly), []
    for i in range(len(rest) - 1, k - 1, -1):
        quotient.insert(0, c := rest[i])
        for j, b in enumerate(monic):
            rest[i - k + j] -= c * b
    return quotient, rest[:k] + [0] * (k - len(rest))


@cache
def cyclotomic_polynomial(q: int) -> tuple[int, ...]:
    """Phi_q, lowest degree first: x^q - 1 divided by Phi_d for d | q, d < q."""
    poly = [-1] + [0] * (q - 1) + [1]
    for d in (d for d in range(1, q) if q % d == 0):
        poly = _poly_divmod(poly, cyclotomic_polynomial(d))[0]
    return tuple(poly)


def regular_representation(x, q: int) -> list[list[int]]:
    """Matrix of multiplication by x = sum_k x[k] zeta^k, zeta = exp(2 pi i / q), on
    the basis zeta^0..zeta^(phi(q) - 1) of Q(zeta): column j is x zeta^j."""
    modulus = cyclotomic_polynomial(q)
    columns = [_poly_divmod([0] * j + list(x), modulus)[1] for j in range(len(modulus) - 1)]
    return [list(row) for row in zip(*columns)]


def cyclotomic_rank(rows, q: int) -> int:
    """Rank over K = Q(zeta_q) of a matrix of such coefficient lists: the rank
    over Q of their regular representations, divided by [K:Q]."""
    degree = len(cyclotomic_polynomial(q)) - 1
    blocks = [[regular_representation(x, q) for x in row] for row in rows]
    rational = [[v for b in row for v in b[i]] for row in blocks for i in range(degree)]
    rank, rest = divmod(matrix_rank(rational), degree)
    assert rest == 0, (q, rest)
    return rank
