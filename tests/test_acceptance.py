"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each criterion prints its verdict directly to the terminal (bypassing
capture) so a plain pytest run shows one line per criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from dtregge.catalog import (
    InfeasibleKeyError,
    enumerate_triangulations,
    face_count,
    feasible_q_vectors,
)
from dtregge.intersection import TauQuery, intersection_number, tau
from dtregge.measure import incidence_matrix, kontsevich_check, pfaffian
from dtregge.pairing import duality_pairing
from dtregge.polygon import equilateral_rank
from dtregge.ribbon import dualize
from dtregge.triangulation import curvature_assignments, gauss_bonnet_check
from dtregge.volume import leray_volume

from corner_linearization import linearized_map_at_equilateral
from qsqrt3 import QSqrt3
from test_intersection import _on_shell_sets, _string_reduction_genus0
from test_measure import _pfaffian_oracle, _random_skew
from test_polygon import (
    _isoperimetric,
    _perturbed,
    _random_chart,
    _random_tangent,
)


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {number}: FAIL - {description}")
        raise
    else:
        with capsys.disabled():
            print(f"CRITERION {number}: PASS - {description}")


@pytest.fixture(scope="module")
def survey():
    """All catalogs at (g=0, N0<=6) and (g=1, N0<=3), one per sorted class."""
    start = time.monotonic()
    catalogs = {}
    for genus, max_n0 in ((0, 6), (1, 3)):
        for n0 in range(1, max_n0 + 1):
            try:
                face_count(genus, n0)
            except InfeasibleKeyError:
                continue
            seen = set()
            for q in feasible_q_vectors(genus, n0):
                key = tuple(sorted(q))
                if key in seen:
                    continue
                seen.add(key)
                catalogs[(genus, n0, key)] = enumerate_triangulations(genus, n0, key)
    return catalogs, time.monotonic() - start


def test_criterion_01_gauss_bonnet(capsys, survey):
    catalogs, build_seconds = survey
    with criterion(capsys, 1, "Gauss-Bonnet exact on all catalogs at (g=0, N0<=6), (g=1, N0<=3)"):
        start = time.monotonic()
        checked = 0
        for (genus, n0, q), catalog in catalogs.items():
            for entry in catalog.entries:
                total, ok = gauss_bonnet_check(entry.triangulation)
                assert ok and total == 2 * (2 - 2 * genus)
                checked += 1
        assert checked > 100
        assert build_seconds + (time.monotonic() - start) < 60


def test_criterion_02_dual_consistency(capsys, survey):
    catalogs, build_seconds = survey
    with criterion(capsys, 2, "triangulation/dual consistency on the same catalogs"):
        start = time.monotonic()
        for (genus, n0, q), catalog in catalogs.items():
            for entry in catalog.entries:
                t, dual = entry.triangulation, entry.dual
                assert dualize(t) == dual
                assert dual.genus() == genus == t.genus
                assert dual.vertex_count == t.n2
                assert dual.edge_count == t.n1
                assert len(dual.boundary_cycles) == n0
                system = incidence_matrix(dual)
                assert tuple(int(x) for x in system.rhs) == curvature_assignments(t) == q
        assert build_seconds + (time.monotonic() - start) < 60


def test_criterion_03_corner_linearization(capsys):
    with criterion(capsys, 3, "corner linearization: det = -sqrt(3)/72, exact inverse"):
        lin = linearized_map_at_equilateral()
        assert lin.determinant == QSqrt3(0, Fraction(-1, 72))
        basis = [
            tuple(QSqrt3(1 if i == j else 0) for j in range(3)) for i in range(3)
        ]
        for vec in basis:
            assert lin.backward(lin.forward(vec)) == vec
            assert lin.forward(lin.backward(vec)) == vec


def test_criterion_04_polygon_tangent_map(capsys):
    import mpmath

    from polygon_charts import edge_length_map, tangent_map

    with criterion(capsys, 4, "rank q-1 at the regular q-gon (q=3..8) and 1e-8 finite-difference agreement on 100 seeded charts"):
        for q in range(3, 9):
            assert equilateral_rank(q) == q - 1
        rng = random.Random(314)
        h = mpmath.mpf("1e-15")
        for _ in range(100):
            chart = _random_chart(rng)
            xi = _isoperimetric(chart, _random_tangent(rng, chart))
            exact = tangent_map(chart, xi)
            up = edge_length_map(_perturbed(chart, xi, h))
            down = edge_length_map(_perturbed(chart, xi, -h))
            for a in range(chart.q):
                assert abs((up[a] - down[a]) / (2 * h) - exact[a]) < mpmath.mpf("1e-8")


def test_criterion_05_wedge_identity(capsys):
    with criterion(capsys, 5, "wedge identity |coeff| = 2^(2N0+5g-5) (3g-3+N0)! on all duals at (0,{3,4,5}) and (1,{1,2}); anchors 2, 8, 4"):
        start = time.monotonic()
        anchors = {(0, 3): 2, (0, 4): 8, (1, 1): 4}
        for genus, n0s in ((0, (3, 4, 5)), (1, (1, 2))):
            for n0 in n0s:
                seen = set()
                for q in feasible_q_vectors(genus, n0):
                    key = tuple(sorted(q))
                    if key in seen:
                        continue
                    seen.add(key)
                    for entry in enumerate_triangulations(genus, n0, key).entries:
                        ok, coeff, expected = kontsevich_check(entry.dual)
                        assert ok
                        if (genus, n0) in anchors:
                            assert expected == anchors[(genus, n0)]
        assert time.monotonic() - start < 300


def test_criterion_06_leray_volumes(capsys):
    with criterion(capsys, 6, "Leray volumes 1/2, 9/4, 9/4 and invariance under 20 randomized coordinate re-choices"):
        systems = {
            (0, 3, (2, 2, 2)): Fraction(1, 2),
            (1, 1, (6,)): Fraction(9, 4),
            (0, 4, (3, 3, 3, 3)): Fraction(9, 4),
        }
        for (genus, n0, q), expected in systems.items():
            entry = enumerate_triangulations(genus, n0, q).entries[0]
            system = incidence_matrix(entry.dual)
            assert leray_volume(system).value == expected
            for seed in range(20):
                assert leray_volume(system, random.Random(seed)).value == expected


def test_criterion_07_intersection_numbers(capsys):
    with criterion(capsys, 7, "intersection numbers: dimension filter, string equation, closed form vs reduction, base values 1, 1, 1/24"):
        rng = random.Random(1234)
        for _ in range(1000):
            g = rng.randint(0, 1)
            ds = tuple(rng.randint(0, 5) for _ in range(rng.randint(1, 6)))
            query = TauQuery(g, ds)
            if not query.on_shell:
                assert intersection_number(query) == 0
        for g in (0, 1):
            for n in range(1, 6):
                target = n + 3 * g - 2
                if target < 0:
                    continue
                for ds in _on_shell_sets(g, n):
                    shifted = tuple(d for d in ds)
                    if sum(shifted) != target:
                        continue
                    lhs = tau(g, (0,) + shifted)
                    rhs = sum(
                        tau(g, shifted[:j] + (shifted[j] - 1,) + shifted[j + 1:])
                        for j in range(n)
                        if shifted[j] >= 1
                    )
                    assert lhs == rhs
        for n in range(3, 8):
            for ds in _on_shell_sets(0, n):
                assert tau(0, ds) == _string_reduction_genus0(list(ds))
        assert tau(0, (0, 0, 0)) == 1
        assert tau(0, (1, 0, 0, 0)) == 1
        assert tau(1, (1,)) == Fraction(1, 24)


def test_criterion_08_duality_pairing(capsys):
    with criterion(capsys, 8, "duality pairing exact at the anchors and at every feasible q at (0,4) and (1,2)"):
        start = time.monotonic()
        anchors = {
            (0, 3, (2, 2, 2)): Fraction(1),
            (0, 4, (3, 3, 3, 3)): Fraction(36),
            (1, 1, (6,)): Fraction(3, 2),
        }
        for (genus, n0, q), value in anchors.items():
            report = duality_pairing(genus, n0, q)
            assert report.equal and report.lhs == value
        for genus, n0 in ((0, 4), (1, 2)):
            for q in feasible_q_vectors(genus, n0):
                report = duality_pairing(genus, n0, q)
                assert report.equal, f"pairing failed at g={genus}, q={q}"
        assert time.monotonic() - start < 600


def test_criterion_09_pfaffian(capsys):
    with criterion(capsys, 9, "Pfaffian matches the permutation-sum oracle on 100 seeded skew matrices, dims 2-8"):
        rng = random.Random(17)
        dims = [2, 4, 6, 8]
        for trial in range(100):
            m = _random_skew(rng, dims[trial % len(dims)])
            assert pfaffian(m) == _pfaffian_oracle(m)


def test_criterion_10_enumeration(capsys):
    import json

    with criterion(capsys, 10, "cardinalities 1, 2, 1; parallel equals serial; bit-identical catalog JSON round-trip"):
        assert enumerate_triangulations(0, 3, (2, 2, 2)).cardinality == 1
        assert enumerate_triangulations(0, 4, (3, 3, 3, 3)).cardinality == 2
        assert enumerate_triangulations(1, 1, (6,)).cardinality == 1
        serial = enumerate_triangulations(0, 4, (3, 3, 3, 3), workers=1)
        parallel = enumerate_triangulations(0, 4, (3, 3, 3, 3), workers=2)
        assert serial.to_dict() == parallel.to_dict()
        from dtregge.catalog import Catalog

        first = json.dumps(serial.to_dict(), indent=2, sort_keys=True)
        again = Catalog.from_dict(json.loads(first))
        assert json.dumps(again.to_dict(), indent=2, sort_keys=True) == first
