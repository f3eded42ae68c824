"""Metric dictionary between a Regge star and its dual polygon.

Squared lengths are the primitive quantities: every half-edge relation is
rational in squared edge lengths, so identity checks stay exact.  Square
roots are taken only at presentation boundaries.  The linearization at the
equilateral point lives in Q[sqrt(3)].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import det, rref
from .qsqrt3 import QSqrt3


class DegenerateTriangleError(ValueError):
    """A triangle in the fan violates the strict triangle inequality."""


@dataclass(frozen=True)
class CornerFan:
    """Split-open star of a vertex: q spokes and q link edges, cyclic.

    ``spokes_sq[a]`` is the squared length of the edge from the vertex to
    link vertex a; ``links_sq[a]`` is the squared length of the link edge
    opposite the vertex in triangle a (between link vertices a and a+1).
    """

    spokes_sq: tuple[Fraction, ...]
    links_sq: tuple[Fraction, ...]

    def __post_init__(self):
        q = len(self.spokes_sq)
        if q < 2 or len(self.links_sq) != q:
            raise ValueError("a fan needs q >= 2 spokes and q link edges")
        if any(s <= 0 for s in self.spokes_sq) or any(s <= 0 for s in self.links_sq):
            raise DegenerateTriangleError("all squared lengths must be positive")
        for a in range(q):
            sides = (self.spokes_sq[a], self.spokes_sq[(a + 1) % q], self.links_sq[a])
            if not _strict_triangle_sq(*sides):
                raise DegenerateTriangleError(
                    f"triangle {a} with squared sides {sides} is degenerate"
                )

    @property
    def q(self) -> int:
        return len(self.spokes_sq)

    @classmethod
    def from_lengths(cls, spokes, links) -> "CornerFan":
        return cls(
            tuple(Fraction(x) ** 2 for x in spokes),
            tuple(Fraction(x) ** 2 for x in links),
        )

    @classmethod
    def equilateral(cls, q: int, a=1) -> "CornerFan":
        s = Fraction(a) ** 2
        return cls((s,) * q, (s,) * q)


def _strict_triangle_sq(a2, b2, c2) -> bool:
    # a + b > c with squared inputs, for every assignment of the long side
    for x2, y2, z2 in ((a2, b2, c2), (b2, c2, a2), (c2, a2, b2)):
        rhs = z2 - x2 - y2
        if rhs >= 0 and 4 * x2 * y2 <= rhs * rhs:
            return False
    return True


@dataclass(frozen=True)
class DualLengths:
    """Squared half-edge lengths of the dual polygon around one vertex.

    ``plus_sq[a]`` is (L+_a)^2, ``minus_sq[a]`` is (L-_a)^2 and
    ``link_sq[a]`` is (L-_{a,a+1})^2, all exact rationals.
    """

    plus_sq: tuple[Fraction, ...]
    minus_sq: tuple[Fraction, ...]
    link_sq: tuple[Fraction, ...]

    @property
    def q(self) -> int:
        return len(self.plus_sq)

    def lengths(self) -> tuple[float, ...]:
        """Dual edge lengths L_a = L-_a + L+_a (presentation values)."""
        return tuple(
            math.sqrt(m) + math.sqrt(p) for m, p in zip(self.minus_sq, self.plus_sq)
        )


def half_edge_lengths(fan: CornerFan) -> DualLengths:
    """Half-edge lengths of the dual cell from the fan's squared lengths.

    36 (L+_a)^2 = 2 l_a^2 + 2 l_{a,a+1}^2 - l_{a+1}^2 and its two cyclic
    companions; every radicand must be strictly positive.
    """
    q = fan.q
    s, k = fan.spokes_sq, fan.links_sq
    plus, minus, link = [], [], []
    for a in range(q):
        a1, a2 = (a + 1) % q, (a + 2) % q
        p = Fraction(2 * s[a] + 2 * k[a] - s[a1], 36)
        m = Fraction(2 * s[a2] + 2 * k[a1] - s[a1], 36)
        w = Fraction(2 * s[a] + 2 * s[a1] - k[a], 36)
        if p <= 0 or m <= 0 or w <= 0:
            raise DegenerateTriangleError(
                f"nonpositive radicand at corner {a}: the fan is degenerate"
            )
        plus.append(p)
        minus.append(m)
        link.append(w)
    return DualLengths(tuple(plus), tuple(minus), tuple(link))


def random_fan(rng: random.Random) -> CornerFan:
    """A random nondegenerate corner fan with rational edge lengths."""
    while True:
        q = rng.randint(2, 6)
        spokes = [Fraction(rng.randint(20, 60), 10) for _ in range(q)]
        links = []
        for a in range(q):
            low = abs(spokes[a] - spokes[(a + 1) % q])
            high = spokes[a] + spokes[(a + 1) % q]
            links.append(low + Fraction(rng.randint(1, 9), 10) * (high - low))
        try:
            fan = CornerFan.from_lengths(spokes, links)
            half_edge_lengths(fan)
            return fan
        except ValueError:
            continue


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


def median_identity_check(dual: DualLengths) -> bool:
    """Sum over a of (L-_{a-1})^2 - (L+_a)^2 vanishes exactly."""
    q = dual.q
    total = sum(
        (dual.minus_sq[(a - 1) % q] - dual.plus_sq[a] for a in range(q)),
        Fraction(0),
    )
    return total == 0


# ---------------------------------------------------------------------------
# Linearization at the equilateral point (exact, in Q[sqrt(3)])

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
