"""Linear algebra that only the tests read, on ``dtregge.linalg``'s kernel."""

from fractions import Fraction

from dtregge.linalg import clear_denominators, eliminate


def rref(rows):
    """Reduced row echelon form; returns (matrix, pivot_columns)."""
    m = [clear_denominators(row)[0] for row in rows]
    pivots, _ = eliminate(m)
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    return [[Fraction(x, d) for x in row] for row in m], pivots
