import cmath
import random
from fractions import Fraction

import mpmath
import pytest

from polygon_charts import (
    PolygonChart,
    TangentVector,
    connection_form,
    edge_length_map,
    evaluate_two_form,
    is_degenerate,
    polygon_two_form,
    tangent_map,
    tangent_map_matrix,
)

from dtregge.linalg import regular_representation
from dtregge.polygon import PolygonError, _cyclotomic_tangent_map, equilateral_rank


def _random_chart(rng: random.Random) -> PolygonChart:
    while True:
        q = rng.randint(3, 6)
        z = tuple(
            (Fraction(rng.randint(-30, 30), 10), Fraction(rng.randint(-30, 30), 10))
            for _ in range(q - 1)
        )
        try:
            chart = PolygonChart(z)
        except PolygonError:
            continue
        lengths = edge_length_map(chart)
        if all(L > mpmath.mpf("0.05") for L in lengths):
            return chart


def _random_tangent(rng: random.Random, chart: PolygonChart) -> TangentVector:
    return TangentVector(
        tuple(
            (Fraction(rng.randint(-20, 20), 10), Fraction(rng.randint(-20, 20), 10))
            for _ in chart.z
        )
    )


def _mp(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _perturbed(chart: PolygonChart, xi: TangentVector, h) -> PolygonChart:
    return PolygonChart(
        tuple(
            (_mp(zx) + h * _mp(xx), _mp(zy) + h * _mp(xy))
            for (zx, zy), (xx, xy) in zip(chart.z, xi.xi)
        )
    )


def _perimeter_derivative(chart: PolygonChart, xi: TangentVector):
    """True first variation of the full perimeter, closing edge included."""
    total = mpmath.mpf(0)
    cx = -sum(_mp(x) for x, _ in xi.xi)
    cy = -sum(_mp(y) for _, y in xi.xi)
    edges = chart.edges()
    for (zx, zy), (xx, xy) in zip(edges[:-1], xi.xi):
        zx, zy = _mp(zx), _mp(zy)
        total += (zx * _mp(xx) + zy * _mp(xy)) / mpmath.sqrt(zx**2 + zy**2)
    zx, zy = (_mp(v) for v in edges[-1])
    total += (zx * cx + zy * cy) / mpmath.sqrt(zx**2 + zy**2)
    return total


def _isoperimetric(chart: PolygonChart, xi: TangentVector) -> TangentVector:
    """Project xi onto the fixed-perimeter branch along the scaling direction."""
    scaling = TangentVector(chart.z)
    ratio = _perimeter_derivative(chart, xi) / _perimeter_derivative(chart, scaling)
    return TangentVector(
        tuple(
            (_mp(xx) - ratio * _mp(zx), _mp(xy) - ratio * _mp(zy))
            for (xx, xy), (zx, zy) in zip(xi.xi, chart.z)
        )
    )


def test_equilateral_rank_is_q_minus_one():
    for q in range(3, 9):
        assert equilateral_rank(q) == q - 1


@pytest.mark.parametrize("q", [1, 0, -3])
def test_equilateral_rank_needs_two_edges(q):
    with pytest.raises(PolygonError):
        equilateral_rank(q)


def _sympy_equilateral_rank(q: int) -> int:
    """Oracle: sympy's rank of the tangent map at the regular q-gon, on its
    symbolic cos and sin entries."""
    import sympy

    rows = []
    for a in range(q - 1):
        angle = 2 * sympy.pi * a / q
        row = [sympy.Integer(0)] * (2 * (q - 1))
        row[2 * a] = sympy.cos(angle)
        row[2 * a + 1] = sympy.sin(angle)
        rows.append(row)
    rows.append([-sum(col) for col in zip(*rows)])
    return sympy.Matrix(rows).rank()


def test_equilateral_rank_agrees_with_sympy():
    for q in range(3, 13):
        assert equilateral_rank(q) == _sympy_equilateral_rank(q) == q - 1


@pytest.mark.parametrize("q", range(2, 13))
def test_cyclotomic_entries_evaluate_to_the_scaled_tangent_map(q):
    """At zeta = exp(2 pi i / q), each Z[zeta] entry is the tangent map's
    entry times 2 (cosine columns) or 2i (sine columns), and column j of its
    regular representation is that times zeta^j."""
    zeta = cmath.exp(2j * cmath.pi / q)

    def value(coefficients):
        return sum(c * zeta**k for k, c in enumerate(coefficients))

    real = tangent_map_matrix(PolygonChart.regular(q))
    for real_row, row in zip(real, _cyclotomic_tangent_map(q), strict=True):
        for c, (x, entry) in enumerate(zip(real_row, row, strict=True)):
            expected = float(x) * (2 if c % 2 == 0 else 2j)
            assert abs(value(entry) - expected) < 1e-12
            for j, column in enumerate(zip(*regular_representation(entry, q))):
                assert abs(value(column) - expected * zeta**j) < 1e-12


def test_tangent_map_matches_central_differences():
    rng = random.Random(314)
    h = mpmath.mpf("1e-15")
    for _ in range(100):
        chart = _random_chart(rng)
        xi = _isoperimetric(chart, _random_tangent(rng, chart))
        exact = tangent_map(chart, xi)
        up = edge_length_map(_perturbed(chart, xi, h))
        down = edge_length_map(_perturbed(chart, xi, -h))
        for a in range(chart.q):
            numeric = (up[a] - down[a]) / (2 * h)
            assert abs(numeric - exact[a]) < mpmath.mpf("1e-8")


def test_free_edge_derivatives_for_arbitrary_tangents():
    rng = random.Random(271)
    h = mpmath.mpf("1e-15")
    for _ in range(25):
        chart = _random_chart(rng)
        xi = _random_tangent(rng, chart)
        exact = tangent_map(chart, xi)
        up = edge_length_map(_perturbed(chart, xi, h))
        down = edge_length_map(_perturbed(chart, xi, -h))
        for a in range(chart.q - 1):
            numeric = (up[a] - down[a]) / (2 * h)
            assert abs(numeric - exact[a]) < mpmath.mpf("1e-8")


def test_tangent_map_preserves_perimeter():
    rng = random.Random(7)
    for _ in range(20):
        chart = _random_chart(rng)
        xi = _random_tangent(rng, chart)
        assert abs(sum(tangent_map(chart, xi))) < mpmath.mpf("1e-40")


def test_rotation_is_in_the_kernel():
    rng = random.Random(8)
    for _ in range(20):
        chart = _random_chart(rng)
        values = tangent_map(chart, TangentVector.rotation(chart))
        assert all(abs(v) < mpmath.mpf("1e-40") for v in values)


def test_tangent_map_matrix_columns():
    rng = random.Random(9)
    chart = _random_chart(rng)
    matrix = tangent_map_matrix(chart)
    n = len(chart.z)
    for col in range(2 * n):
        basis = [[Fraction(0), Fraction(0)] for _ in range(n)]
        basis[col // 2][col % 2] = Fraction(1)
        xi = TangentVector(tuple(tuple(pair) for pair in basis))
        values = tangent_map(chart, xi)
        for row in range(chart.q):
            assert abs(matrix[row][col] - values[row]) < mpmath.mpf("1e-40")


def test_two_form_matrix_shape_and_values():
    chart = PolygonChart(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    q = chart.q
    matrix = polygon_two_form(chart, a=1)
    c = Fraction(3, q * q)
    for i in range(q - 1):
        for j in range(q - 1):
            assert matrix[i][j] == -matrix[j][i]
            if i < j:
                assert matrix[i][j] == c


def test_evaluate_two_form_antisymmetric():
    rng = random.Random(10)
    chart = _random_chart(rng)
    matrix = polygon_two_form(chart)
    xi1, xi2 = _random_tangent(rng, chart), _random_tangent(rng, chart)
    v12 = evaluate_two_form(matrix, chart, xi1, xi2)
    v21 = evaluate_two_form(matrix, chart, xi2, xi1)
    assert abs(v12 + v21) < mpmath.mpf("1e-40")
    assert abs(evaluate_two_form(matrix, chart, xi1, xi1)) < mpmath.mpf("1e-40")


def test_connection_form_is_linear():
    rng = random.Random(11)
    chart = _random_chart(rng)
    xi1, xi2 = _random_tangent(rng, chart), _random_tangent(rng, chart)
    both = TangentVector(
        tuple(
            (a + c, b + d) for (a, b), (c, d) in zip(xi1.xi, xi2.xi)
        )
    )
    lhs = connection_form(chart, both)
    rhs = connection_form(chart, xi1) + connection_form(chart, xi2)
    assert abs(lhs - rhs) < mpmath.mpf("1e-38")


def test_degeneracy_detection():
    flat = PolygonChart(((Fraction(1), Fraction(2)), (Fraction(-2), Fraction(-4))))
    assert is_degenerate(flat)
    assert not is_degenerate(PolygonChart.regular(5))


def test_zero_chart_rejected():
    with pytest.raises(PolygonError):
        PolygonChart(((Fraction(0), Fraction(0)),))
