"""The deformation rank of the Euclidean q-gon dual to a vertex.

At the regular q-gon the isoperimetric edge-length tangent map has entries
cos and sin of 2 pi a / q; its rank is q - 1, computed exactly over the
cyclotomic field Q(zeta_q).  The numerical charts that cross-check it live
with the tests.
"""

from __future__ import annotations

from .linalg import cyclotomic_rank


class PolygonError(ValueError):
    pass


def _cyclotomic_tangent_map(q: int) -> list[list[list[int]]]:
    """The tangent map at the regular q-gon, columns 2a and 2a+1 times 2 and 2i:
    zeta^a + zeta^-a and zeta^a - zeta^-a as coefficient lists in zeta^0..zeta^(q-1)."""
    rows = [[[0] * q for _ in range(2 * (q - 1))] for _ in range(q - 1)]
    for a, row in enumerate(rows):
        for k, sign in ((a, 1), (-a % q, -1)):
            row[2 * a][k] += 1
            row[2 * a + 1][k] += sign
    rows.append([[-sum(c) for c in zip(*column)] for column in zip(*rows)])
    return rows


def equilateral_rank(q: int) -> int:
    """Exact rank of the tangent map at the regular q-gon: scaling columns by
    2 and 2i keeps it, and over Q(zeta_q) it is the rank over the reals."""
    if q < 2:
        raise PolygonError(f"a polygon needs q >= 2 edges, not {q}")
    return cyclotomic_rank(_cyclotomic_tangent_map(q), q)
