import math
import random
from fractions import Fraction

import pytest

from corner_linearization import (
    dual_edge_row,
    linearized_map_at_equilateral,
    vertex_deficit,
    vertex_jacobian,
)
from qsqrt3 import QSqrt3

from dtregge.geometry import (
    CornerFan,
    DegenerateTriangleError,
    half_edge_lengths,
    median_identity_check,
    random_fan,
)

_THIRD = QSqrt3(0, Fraction(1, 9))  # 1/(3*sqrt(3))


def _planar_layout(fan: CornerFan):
    """Vector-geometry oracle: lay the split-open fan out in the plane.

    Returns the apex angle of each triangle and the positions of the link
    vertices V_0 .. V_q (the fan is cut open, so V_q need not equal V_0).
    """
    q = fan.q
    angles = []
    for a in range(q):
        sa, sb, ka = (float(fan.spokes_sq[a]), float(fan.spokes_sq[(a + 1) % q]),
                      float(fan.links_sq[a]))
        angles.append(math.acos((sa + sb - ka) / (2.0 * math.sqrt(sa * sb))))
    positions = []
    theta = 0.0
    for a in range(q + 1):
        r = math.sqrt(float(fan.spokes_sq[a % q]))
        positions.append((r * math.cos(theta), r * math.sin(theta)))
        if a < q:
            theta += angles[a]
    return angles, positions


def _dist(p, r):
    return math.hypot(p[0] - r[0], p[1] - r[1])


def _mid(p, r):
    return ((p[0] + r[0]) / 2.0, (p[1] + r[1]) / 2.0)


def _centroid(p, r, s):
    return ((p[0] + r[0] + s[0]) / 3.0, (p[1] + r[1] + s[1]) / 3.0)


def test_half_edge_lengths_match_planar_oracle():
    rng = random.Random(2024)
    origin = (0.0, 0.0)
    for _ in range(50):
        fan = random_fan(rng)
        dual = half_edge_lengths(fan)
        _, v = _planar_layout(fan)
        q = fan.q
        for a in range(q):
            # plus and link live in triangle a = (O, V_a, V_{a+1})
            centroid_a = _centroid(origin, v[a], v[a + 1])
            assert math.isclose(
                math.sqrt(float(dual.plus_sq[a])),
                _dist(centroid_a, _mid(origin, v[a + 1])),
                rel_tol=1e-12,
            )
            assert math.isclose(
                math.sqrt(float(dual.link_sq[a])),
                _dist(centroid_a, _mid(v[a], v[a + 1])),
                rel_tol=1e-12,
            )
            # minus lives in the next triangle t, at its first spoke
            t = (a + 1) % q
            centroid_t = _centroid(origin, v[t], v[t + 1])
            assert math.isclose(
                math.sqrt(float(dual.minus_sq[a])),
                _dist(centroid_t, _mid(origin, v[t])),
                rel_tol=1e-12,
            )


def test_median_identity_exact_on_random_fans():
    rng = random.Random(99)
    for _ in range(100):
        fan = random_fan(rng)
        assert median_identity_check(half_edge_lengths(fan))


def test_vertex_deficit_matches_angle_sum():
    rng = random.Random(5)
    for _ in range(25):
        fan = random_fan(rng)
        angles, _ = _planar_layout(fan)
        assert math.isclose(
            vertex_deficit(fan), 2.0 * math.pi - sum(angles), rel_tol=1e-12
        )


def test_equilateral_dual_lengths():
    fan = CornerFan.from_lengths([1] * 6, [1] * 6)
    dual = half_edge_lengths(fan)
    assert set(dual.plus_sq) == {Fraction(1, 12)}
    assert set(dual.minus_sq) == {Fraction(1, 12)}
    assert set(dual.link_sq) == {Fraction(1, 12)}
    # full dual edge length is L = L- + L+ = sqrt(3)/3 * a: with L- = L+,
    # L^2 = 4 (L+)^2 = 1/3 exactly
    for minus, plus in zip(dual.minus_sq, dual.plus_sq):
        assert minus == plus and 4 * plus == Fraction(1, 3)
    assert math.isclose(vertex_deficit(fan), 0.0, abs_tol=1e-12)


def test_degenerate_fan_rejected():
    with pytest.raises(DegenerateTriangleError):
        CornerFan.from_lengths([1, 1], [2, Fraction(1, 100)])


def test_linearization_determinant_and_inverse():
    lin = linearized_map_at_equilateral()
    assert lin.determinant == QSqrt3(0, Fraction(-1, 72))
    basis = [
        (QSqrt3(1), QSqrt3(0), QSqrt3(0)),
        (QSqrt3(0), QSqrt3(1), QSqrt3(0)),
        (QSqrt3(0), QSqrt3(0), QSqrt3(1)),
    ]
    for vec in basis:
        assert lin.backward(lin.forward(vec)) == vec
        assert lin.forward(lin.backward(vec)) == vec


def test_linearization_matches_finite_differences():
    h = 1e-6
    lin = linearized_map_at_equilateral()

    def halves(l0, l1, k0):
        fan = CornerFan.from_lengths([Fraction(l0), Fraction(l1), Fraction(1)],
                                     [Fraction(k0), Fraction(1), Fraction(1)])
        dual = half_edge_lengths(fan)
        return (
            math.sqrt(float(dual.plus_sq[0])),
            math.sqrt(float(dual.minus_sq[2])),
            math.sqrt(float(dual.link_sq[0])),
        )

    for col, bump in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
        up = halves(1 + bump[0], 1 + bump[1], 1 + bump[2])
        down = halves(1 - bump[0], 1 - bump[1], 1 - bump[2])
        for row in range(3):
            numeric = (up[row] - down[row]) / (2 * h)
            assert math.isclose(numeric, float(lin.matrix[row][col]), abs_tol=1e-8)


def test_vertex_jacobian_assembles_dual_edge_rows():
    for q in (3, 4, 6):
        rows = vertex_jacobian(q)
        assert len(rows) == 3 * q and all(len(r) == 2 * q for r in rows)
        for a in range(q):
            plus_row = rows[3 * a]                      # dL+_a
            minus_row = rows[3 * ((a + 1) % q) + 1]     # dL-_a
            expected = [_THIRD * c for c in dual_edge_row(q, a)]
            combined = [x + y for x, y in zip(plus_row, minus_row)]
            assert combined == expected
