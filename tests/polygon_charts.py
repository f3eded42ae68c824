"""Euclidean q-gon charts at 50 decimal digits: the isoperimetric tangent
map, the connection 1-form and the curvature 2-form, as numerical
cross-checks of ``dtregge.polygon.equilateral_rank``.

A chart stores the first q-1 complex edge vectors; the last edge closes the
polygon.  Components may be exact rationals or high-precision reals
(mpmath, at ``DEFAULT_DPS`` decimal digits).  The perimeter normalization is
u * q with u = sqrt(3)/3 * a, so the squared normalization constant is the
rational 3 / (a q)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from dtregge.polygon import PolygonError

DEFAULT_DPS = 50
mpmath.mp.dps = DEFAULT_DPS


@dataclass(frozen=True)
class PolygonChart:
    """q-gon chart: edges Z^1..Z^{q-1}, with Z^q = -sum of the others."""

    z: tuple[tuple, ...]  # (re, im) pairs, Fraction or mpmath-compatible

    def __post_init__(self):
        if len(self.z) < 1:
            raise PolygonError("a chart needs at least one free edge (q >= 2)")
        if all(x == 0 and y == 0 for x, y in self.z):
            raise PolygonError("the zero chart is excluded")

    @property
    def q(self) -> int:
        return len(self.z) + 1

    def edges(self) -> list[tuple]:
        """All q edge vectors, the closing edge last."""
        cx = -sum(x for x, _ in self.z)
        cy = -sum(y for _, y in self.z)
        return list(self.z) + [(cx, cy)]

    @classmethod
    def regular(cls, q: int, a=1) -> "PolygonChart":
        """Equilateral q-gon with side u = sqrt(3)/3 * a."""
        u = mpmath.sqrt(3) / 3 * a
        return cls(
            tuple(
                (u * mpmath.cos(2 * mpmath.pi * k / q), u * mpmath.sin(2 * mpmath.pi * k / q))
                for k in range(q)
            )[:-1]
        )


@dataclass(frozen=True)
class TangentVector:
    xi: tuple[tuple, ...]  # q-1 components, (re, im)

    @classmethod
    def rotation(cls, chart: PolygonChart) -> "TangentVector":
        """xi = i * Z, the infinitesimal rotation of the chart."""
        return cls(tuple((-y, x) for x, y in chart.z))


def _to_mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _abs(v) -> object:
    x, y = v
    return mpmath.sqrt(_to_mp(x) ** 2 + _to_mp(y) ** 2)


def _length_derivative(z, xi):
    """d|Z|(xi) = Re[Z * conj(xi)] / |Z|; caller must exclude |Z| = 0."""
    (zx, zy), (xx, xy) = z, xi
    return (_to_mp(zx) * _to_mp(xx) + _to_mp(zy) * _to_mp(xy)) / _abs(z)


def edge_length_map(chart: PolygonChart) -> list:
    """The q-tuple of edge lengths (|Z^1|, ..., |Z^{q-1}|, |closing edge|)."""
    return [_abs(z) for z in chart.edges()]


def tangent_map(chart: PolygonChart, xi: TangentVector) -> list:
    """Differential of the edge-length map on the isoperimetric branch.

    Components Re[Z^a conj(xi^a)]/|Z^a| for a < q, and minus their sum for
    the closing edge.
    """
    if len(xi.xi) != len(chart.z):
        raise PolygonError("tangent vector dimension mismatch")
    for z in chart.z:
        if _abs(z) == 0:
            raise PolygonError("tangent_map is undefined on zero-length edges")
    parts = [_length_derivative(z, x) for z, x in zip(chart.z, xi.xi)]
    return parts + [-sum(parts)]


def tangent_map_matrix(chart: PolygonChart):
    """Real q x (2q-2) matrix of the tangent map in (Re xi, Im xi) pairs."""
    q = chart.q
    rows = []
    for a in range(q - 1):
        zx, zy = chart.z[a]
        norm = _abs(chart.z[a])
        row = [mpmath.mpf(0)] * (2 * (q - 1))
        row[2 * a] = _to_mp(zx) / norm
        row[2 * a + 1] = _to_mp(zy) / norm
        rows.append(row)
    rows.append([-sum(col) for col in zip(*rows)])
    return rows


def _norm_sq_factor(q: int, a=1) -> Fraction:
    # [(sqrt(3)/3) * a * q]^(-2) = 3 / (a q)^2
    return Fraction(3) / (Fraction(a) * q) ** 2


def connection_form(chart: PolygonChart, xi: TangentVector, a=1):
    """Connection 1-form of the fixed-perimeter fibration, evaluated on xi.

    psi(xi) = -[u q]^{-2} sum_{a=1}^{q-1} |Z^a| sum_{b<=a} d|Z^b|(xi);
    terms with |Z^b| = 0 are simply removed.
    """
    if len(xi.xi) != len(chart.z):
        raise PolygonError("tangent vector dimension mismatch")
    derivs = []
    for z, x in zip(chart.z, xi.xi):
        derivs.append(None if _abs(z) == 0 else _length_derivative(z, x))
    total = mpmath.mpf(0)
    partial = mpmath.mpf(0)
    for z, d in zip(chart.z, derivs):
        if d is not None:
            partial = partial + d
        total = total + _abs(z) * partial
    return -_norm_sq_factor(chart.q, a) * total


def polygon_two_form(chart: PolygonChart, a=1) -> list[list[Fraction]]:
    """Curvature 2-form as a skew matrix over the q-1 chart edges.

    Entry (i, j) with i < j is [u q]^{-2}; the diagonal terms of the
    a <= b double sum vanish identically and are omitted.
    """
    n = chart.q - 1
    c = _norm_sq_factor(chart.q, a)
    return [
        [c if i < j else (-c if i > j else Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def evaluate_two_form(matrix, chart: PolygonChart, xi1: TangentVector, xi2: TangentVector):
    """Evaluate a skew matrix in the d|Z^a| basis on a pair of tangents."""
    d1 = [_length_derivative(z, x) for z, x in zip(chart.z, xi1.xi)]
    d2 = [_length_derivative(z, x) for z, x in zip(chart.z, xi2.xi)]
    total = mpmath.mpf(0)
    for i, row in enumerate(matrix):
        for j, c in enumerate(row):
            if c:
                total = total + c * d1[i] * d2[j]
    return total


def is_degenerate(chart: PolygonChart, tol=None) -> bool:
    """True iff all edges are real multiples of one common direction."""
    edges = chart.edges()
    exact = all(isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction))
                for x, y in edges)
    ref = next(((x, y) for x, y in edges if x != 0 or y != 0), None)
    if ref is None:
        return True
    rx, ry = ref
    scale = max(_abs(e) for e in edges)
    if tol is None:
        tol = mpmath.mpf(10) ** (-(mpmath.mp.dps - 10))
    for x, y in edges:
        cross = rx * y - ry * x
        if exact:
            if cross != 0:
                return False
        elif abs(cross) > tol * scale * scale:
            return False
    return True
