"""The deficit angle of a corner fan and the exact linearization of its
half-edge lengths at the equilateral point, in Q[sqrt(3)]: cross-checks of
``dtregge.geometry`` that only the tests read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from linalg_oracles import rref
from qsqrt3 import QSqrt3

from dtregge.geometry import CornerFan, DegenerateTriangleError
from dtregge.linalg import det


def vertex_deficit(fan: CornerFan) -> float:
    """Deficit angle 2*pi - sum of vertex angles, from squared lengths."""
    total = 0.0
    q = fan.q
    for a in range(q):
        sa, sb, ka = fan.spokes_sq[a], fan.spokes_sq[(a + 1) % q], fan.links_sq[a]
        cos = float(sa + sb - ka) / (2.0 * math.sqrt(float(sa * sb)))
        if abs(cos) > 1.0:
            raise DegenerateTriangleError(f"invalid triangle at corner {a}")
        total += math.acos(cos)
    return 2.0 * math.pi - total


_THIRD_ROOT = QSqrt3(0, Fraction(1, 9))  # 1/(3*sqrt(3)) = sqrt(3)/9

#: Rows of the corner matrix in the basis (dl_a, dl_{a+1}, dl_{a,a+1}),
#: without the common 1/(3*sqrt(3)) factor: the images are
#: (dL+_a, dL-_{a-1}, dL-_{a,a+1}).
_CORNER_ROWS = (
    (Fraction(1), Fraction(-1, 2), Fraction(1)),
    (Fraction(-1, 2), Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(1), Fraction(-1, 2)),
)


@dataclass(frozen=True)
class CornerLinearization:
    matrix: tuple[tuple[QSqrt3, ...], ...]
    determinant: QSqrt3
    inverse: tuple[tuple[QSqrt3, ...], ...]

    def forward(self, dl):
        return _matvec(self.matrix, dl)

    def backward(self, dL):
        return _matvec(self.inverse, dL)


def linearized_map_at_equilateral() -> CornerLinearization:
    """Exact 3x3 corner linearization of the half-edge map at l = a: c R with
    c = 1/(3*sqrt(3)) and R = ``_CORNER_ROWS``, so det = c^3 det R and the
    inverse is R^-1 / c, read off the reduced [R | I]."""
    rows = [[*row, *(int(i == j) for j in range(3))] for i, row in enumerate(_CORNER_ROWS)]
    reduced, _ = rref(rows)
    return CornerLinearization(
        tuple(tuple(_THIRD_ROOT * c for c in row) for row in _CORNER_ROWS),
        _THIRD_ROOT * _THIRD_ROOT * _THIRD_ROOT * det(_CORNER_ROWS),
        tuple(tuple(c / _THIRD_ROOT for c in row[3:]) for row in reduced),
    )


def vertex_jacobian(q: int) -> list[list[QSqrt3]]:
    """Assembled per-vertex Jacobian: all 3q half-edge differentials.

    Rows are ordered (dL+_0, dL-_{-1}, dL-_{0,1}, dL+_1, ...); columns are
    the 2q edge differentials, spokes first then links.
    """
    rows = []
    for a in range(q):
        for row in _CORNER_ROWS:
            full = [QSqrt3(0)] * (2 * q)
            cols = (a % q, (a + 1) % q, q + a % q)  # dl_a, dl_{a+1}, dl_{a,a+1}
            for c, col in zip(row, cols):
                full[col] = full[col] + _THIRD_ROOT * c
            rows.append(full)
    return rows


def dual_edge_row(q: int, a: int) -> list[Fraction]:
    """Coefficients of dL_a = (1/(3*sqrt(3))) * sum_j c_j dl_j at l = a.

    dL_a combines the two half-edge linearizations: coefficient +1 on the
    spokes a and a+2, -1 on spoke a+1, +1 on the links a and a+1.  The
    common 1/(3*sqrt(3)) factor is left to the caller.
    """
    row = [Fraction(0)] * (2 * q)
    row[a % q] += 1
    row[(a + 1) % q] += -1
    row[(a + 2) % q] += 1
    row[q + a % q] += 1
    row[q + (a + 1) % q] += 1
    return row


def _matvec(matrix, vec):
    return tuple(
        sum((row[j] * vec[j] for j in range(len(vec))), QSqrt3(0)) for row in matrix
    )
