import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from conftest import PAIRING_KEYS, has_positive_solution, lp_maximum
from dtregge.catalog import (
    ResourceCapError,
    enumerate_ribbon_cells,
    enumerate_triangulations,
    feasible_q_vectors,
)
from dtregge import pairing
from dtregge.intersection import GenusError, tau
from dtregge.measure import ConstraintSystem, constraint_system
from dtregge.pairing import (
    cardinality_and_average,
    cell_class,
    class_volume,
    duality_pairing,
    has_interior_point,
    pairing_constant,
    system_class,
)
from dtregge.ribbon import aut_boundary, canonical_code
from dtregge.volume import leray_volume


def test_pairing_constant():
    assert pairing_constant(0, 3) == 2
    assert pairing_constant(0, 4) == 8
    assert pairing_constant(1, 1) == 4
    assert pairing_constant(1, 2) == 16


def test_anchor_keys_close_on_catalog_cells_alone():
    expected = {
        (0, 3, (2, 2, 2)): Fraction(1),
        (0, 4, (3, 3, 3, 3)): Fraction(36),
        (1, 1, (6,)): Fraction(3, 2),
    }
    for (genus, n0, q), value in expected.items():
        report = duality_pairing(genus, n0, q)
        assert report.equal
        assert report.lhs == value == report.rhs
        # at the anchors the loop cells contribute nothing
        assert report.catalog_lhs == report.lhs


def test_non_catalog_cells_are_needed_off_anchor():
    report = duality_pairing(0, 4, (2, 2, 4, 4))
    assert report.equal and report.lhs == report.rhs == 40
    assert report.catalog_lhs == 16
    assert report.cardinality == 1
    loop_total = sum(
        c.volume / c.aut_order for c in report.contributions if c.has_loop
    )
    other_total = sum(
        c.volume / c.aut_order
        for c in report.contributions
        if not c.has_loop and not c.from_catalog
    )
    const = pairing_constant(0, 4)
    assert const * loop_total == 8
    assert const * (loop_total + other_total) == report.lhs - report.catalog_lhs


def test_pairing_holds_at_every_sorted_class():
    for genus, n0 in [(0, 4), (1, 2)]:
        seen = set()
        for q in feasible_q_vectors(genus, n0):
            key = tuple(sorted(q))
            if key in seen:
                continue
            seen.add(key)
            report = duality_pairing(genus, n0, key)
            assert report.equal, f"pairing failed at g={genus}, q={key}"


def test_contribution_invariants():
    report = duality_pairing(0, 4, (2, 2, 4, 4))
    catalog_cells = [c for c in report.contributions if c.from_catalog]
    assert len(catalog_cells) == report.cardinality == 1
    assert catalog_cells[0].sides == (2, 2, 4, 4)
    for c in report.contributions:
        assert sum(c.sides) == 12  # 3 * N2 sides in every top cell
        assert c.volume >= 0
        assert c.aut_order >= 1
        if c.from_catalog:
            assert not c.has_loop


def test_cardinality_and_average():
    card, average = cardinality_and_average(0, 4, (3, 3, 3, 3))
    assert (card, average) == (2, Fraction(9, 4))
    card, average = cardinality_and_average(1, 1, (6,))
    assert (card, average) == (1, Fraction(3, 8))
    # empty catalog: cardinality zero, no average
    card, average = cardinality_and_average(0, 4, (2, 2, 2, 6))
    assert (card, average) == (0, None)


def test_report_serialization():
    report = duality_pairing(0, 3, (2, 2, 2))
    data = report.to_dict()
    assert data["lhs"] == "1" and data["rhs"] == "1"
    assert data["key"] == {"genus": 0, "vertices": 3, "q": [2, 2, 2]}
    assert all("code" in c for c in data["contributions"])


def test_pairing_raises_genus_error_before_any_volume(monkeypatch):
    def no_volumes(system):
        raise AssertionError("volume computed before the genus check")

    monkeypatch.setattr("dtregge.pairing.leray_volume", no_volumes)
    with pytest.raises(GenusError):
        duality_pairing(2, 1, (18,))


def test_face_cap_is_checked_before_the_cells(monkeypatch):
    def no_cells(*args):
        raise AssertionError("cells enumerated before the face cap")

    monkeypatch.setattr("dtregge.pairing.enumerate_ribbon_cells", no_cells)
    with pytest.raises(ResourceCapError):
        duality_pairing(0, 4, (3, 3, 3, 3), max_faces=2)


@pytest.mark.parametrize("max_faces", [14, None])
def test_cells_take_the_face_cap_of_the_pairing(monkeypatch, max_faces):
    # (0, 9) needs 14 faces, above the default cap of 10 of the cells
    q = (4,) * 6 + (6,) * 3
    asked = []
    monkeypatch.setattr("dtregge.catalog._cells", lambda *key: asked.append(key) or ())
    report = duality_pairing(0, 9, q, max_faces=max_faces)
    assert asked == [(0, 9)] and report.contributions == ()
    with pytest.raises(ResourceCapError, match="cap of 13"):
        duality_pairing(0, 9, q, max_faces=13)


def test_catalog_cells_are_the_catalog_duals():
    """The cells marked ``from_catalog`` are exactly the duals of the
    catalog that ``enumerate_triangulations`` builds by its own search."""
    assert len(PAIRING_KEYS) == 47
    for genus, n0, q in PAIRING_KEYS:
        report = duality_pairing(genus, n0, q)
        catalog = enumerate_triangulations(genus, n0, q)
        marked = [c.code for c in report.contributions if c.from_catalog]
        assert set(marked) == {entry.code for entry in catalog.entries}, (genus, n0, q)
        assert report.cardinality == catalog.cardinality == len(marked), (genus, n0, q)


@pytest.mark.parametrize("key", [(1, 3, (6, 6, 6)), (0, 4, (2, 3, 3, 4))])
def test_memoized_volumes_equal_direct_volumes(key):
    genus, n0, q = key
    report = duality_pairing(genus, n0, q)
    perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
    cells = enumerate_ribbon_cells(genus, n0)
    assert len(report.contributions) == len(cells)
    for graph, contribution in zip(cells, report.contributions):
        assert contribution.code == canonical_code(graph)
        assert contribution.aut_order == aut_boundary(graph)[0]
        labelled = sorted(zip(graph.boundary_labels, graph.boundary_cycles))
        assert contribution.sides == tuple(len(cycle) for _, cycle in labelled)
        assert contribution.has_loop == any(
            d // 3 == graph.alpha[d] // 3 for d in range(graph.dart_count)
        )
        assert contribution.volume == leray_volume(constraint_system(graph, perimeters)).value
        assert cell_class(graph, q) == system_class(constraint_system(graph, perimeters))


def test_pairing_computes_one_volume_per_system_class(monkeypatch):
    calls = []

    def counting(system):
        calls.append(system)
        return leray_volume(system)

    class_volume.cache_clear()
    monkeypatch.setattr("dtregge.pairing.leray_volume", counting)
    report = duality_pairing(1, 3, (6, 6, 6))
    assert report.equal
    assert len(report.contributions) == 236
    assert class_volume.cache_info().currsize == 31
    assert len(calls) == 15  # the nonempty classes


def _brute_force_class(system):
    """Sorted rhs and the least sorted column tuple over every row order
    that sorts rhs."""
    rhs = sorted(system.rhs)
    orders = [
        order for order in permutations(range(system.n0))
        if [system.rhs[i] for i in order] == rhs
    ]
    return tuple(rhs), min(
        tuple(sorted(zip(*(system.a[i] for i in order)))) for order in orders
    )


def test_system_class_ignores_column_and_rhs_preserving_row_order():
    rng = random.Random(7)
    for genus, n0, q in [(1, 3, (6, 6, 6)), (0, 4, (2, 3, 3, 4)), (0, 4, (3, 3, 3, 3))]:
        perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
        for graph in enumerate_ribbon_cells(genus, n0)[:20]:
            system = constraint_system(graph, perimeters)
            key = system_class(system)
            assert key == _brute_force_class(system)
            groups = {}
            for i, b in enumerate(system.rhs):
                groups.setdefault(b, []).append(i)
            for _ in range(5):
                columns = list(range(system.n1))
                rng.shuffle(columns)
                rows = list(range(system.n0))
                for members in groups.values():
                    shuffled = rng.sample(members, len(members))
                    for position, row in zip(members, shuffled):
                        rows[position] = row
                moved = ConstraintSystem(
                    tuple(tuple(system.a[i][j] for j in columns) for i in rows),
                    tuple(system.rhs[i] for i in rows),
                )
                assert moved.rhs == system.rhs
                assert system_class(moved) == key


def test_system_class_ignores_every_boundary_relabelling():
    rng = random.Random(11)
    for genus, n0, q in [(0, 4, (4, 3, 2, 3)), (1, 2, (7, 5)), (1, 3, (7, 5, 6))]:
        perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
        for graph in enumerate_ribbon_cells(genus, n0)[:20]:
            system = constraint_system(graph, perimeters)
            key = system_class(system)
            assert key == _brute_force_class(system)
            for _ in range(5):
                columns = rng.sample(range(system.n1), system.n1)
                rows = rng.sample(range(system.n0), system.n0)
                moved = ConstraintSystem(
                    tuple(tuple(system.a[i][j] for j in columns) for i in rows),
                    tuple(system.rhs[i] for i in rows),
                )
                assert system_class(moved) == key


@pytest.mark.parametrize(
    "genus, n0, classes, volumes", [(0, 4, 106, 16), (1, 2, 41, 21)], ids=["0-4-106", "1-2-41"]
)
def test_labelled_keys_share_one_volume_per_class(monkeypatch, genus, n0, classes, volumes):
    calls = []

    def counting(system):
        calls.append(system)
        return leray_volume(system)

    class_volume.cache_clear()
    monkeypatch.setattr("dtregge.pairing.leray_volume", counting)
    for q in feasible_q_vectors(genus, n0):
        assert duality_pairing(genus, n0, q).equal
    assert class_volume.cache_info().currsize == classes
    assert len(calls) == volumes  # the nonempty classes


@pytest.mark.parametrize("key", [(0, 4, (4, 3, 3, 2)), (1, 2, (7, 5))])
def test_volumes_shared_across_keys_equal_direct_volumes(key):
    genus, n0, q = key
    duality_pairing(genus, n0, tuple(sorted(q)))  # the memo holds the twin's classes
    report = duality_pairing(genus, n0, q)
    perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
    cells = enumerate_ribbon_cells(genus, n0)
    for graph, contribution in zip(cells, report.contributions, strict=True):
        assert contribution.volume == leray_volume(constraint_system(graph, perimeters)).value


def test_pairing_at_0_5_with_perimeters_3_3_4_4_4():
    report = duality_pairing(0, 5, (3, 3, 4, 4, 4))
    assert report.equal
    assert report.lhs == report.rhs == 3891


@pytest.mark.parametrize("genus, n0, q, value", [
    (1, 4, (6, 6, 6, 6), 3790800),
    (2, 2, (12, 12), Fraction(331444224, 5)),
    (0, 6, (4, 4, 4, 4, 4, 4), 679936),
    (1, 4, (5, 5, 7, 7), Fraction(586400725, 144)),
])
def test_pairing_at_eight_faces(genus, n0, q, value):
    report = duality_pairing(genus, n0, q, enable_higher_genus=genus >= 2)
    assert report.equal
    assert report.lhs == report.rhs == value


def test_pairing_builds_rows_only_on_a_cell_class_miss():
    """The pairing keeps nothing per cell beyond what the enumerator caches:
    a cell gets its ``dart_edge`` only when it builds the rows of a new
    ``cell_class`` entry."""
    duality_pairing(1, 4, (6, 6, 6, 6))
    with_rows = sum("dart_edge" in vars(graph) for graph in enumerate_ribbon_cells(1, 4))
    assert 0 < with_rows <= len(pairing._cell_classes)


@pytest.mark.parametrize("keys, classes, nonempty", [
    (PAIRING_KEYS, 181, 54),
    ([(0, 5, (3, 3, 4, 4, 4))], 163, 29),
    ([(1, 4, (6, 6, 6, 6))], 244, 56),
], ids=["pairing-keys", "0-5", "1-4"])
def test_interior_point_test_agrees_with_the_lp_and_the_volumes(keys, classes, nonempty):
    """On every class of the keys, ``has_interior_point`` agrees with the LP
    oracle, and the Leray volume is zero exactly where it finds no L > 0."""
    found = {
        cell_class(graph, q) for genus, n0, q in keys for graph in enumerate_ribbon_cells(genus, n0)
    }
    assert len(found) == classes
    count = 0
    for rhs, columns in found:
        a = tuple(zip(*columns))
        interior = has_interior_point(rhs, columns)
        assert has_positive_solution(a, rhs) == interior, (rhs, columns)
        assert (leray_volume(ConstraintSystem(a, rhs)).value != 0) == interior, (rhs, columns)
        count += interior
    assert count == nonempty


# Each row is a boundary; a column holding 1, 1 is an edge, one holding 2 a loop.
@pytest.mark.parametrize("rows, rhs, interior", [
    # a=b double edge, b-c: I = {a} has q(I) = 3 > q(N(I)) = q(b) = 2
    ([(1, 1, 0), (1, 1, 1), (0, 0, 1)], (3, 2, 1), False),
    # the same edges: I = {a, c} is tight, and b has no edge outside I
    ([(1, 1, 0), (1, 1, 1), (0, 0, 1)], (2, 3, 1), True),
    # a=b double edge, b-c, c-d: I = {a} is tight, and the edge b-c leaves it
    ([(1, 1, 0, 0), (1, 1, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1)], (2, 2, 2, 2), False),
    # a=b double edge and a loop at b: I = {a} is tight, and the loop is at N(I)
    ([(1, 1, 0), (1, 1, 2)], (2, 2), False),
    ([(1, 1, 0), (1, 1, 2)], (2, 4), True),
])
def test_interior_point_test_on_each_clause(rows, rhs, interior):
    columns = tuple(zip(*rows))
    assert has_interior_point(rhs, columns) == interior
    assert has_positive_solution(rows, rhs) == interior


@pytest.mark.parametrize("columns", [((1, 0), (1, 1)), ((3, -1), (1, 1)), ((0, 0), (1, 1))])
def test_interior_point_test_raises_on_a_column_not_summing_to_2(columns):
    with pytest.raises(ValueError, match="does not sum to 2"):
        has_interior_point((2, 2), columns)


def test_lp_oracle_drives_zero_artificials_out_before_phase_2():
    # x1 + x2 = 1, x1 + x2 = 1 (a redundant row), x1 - x3 = 0: max x3 is 1
    assert lp_maximum([(1, 1, 0), (1, 1, 0), (1, 0, -1)], (1, 1, 0), (0, 0, 1)) == 1
    assert lp_maximum([(1, 1), (1, 1)], (1, 2), (1, 0)) is None
    # L = (1, 0) is the only solution of L1 + L2 = 1, L1 = 1
    assert not has_positive_solution([(1, 1), (1, 0)], (1, 1))
    assert has_positive_solution([(1, 1), (1, 0)], (2, 1))


def _double_factorial(k: int) -> int:
    """k!! for odd k >= -1, with (-1)!! = 1."""
    result = 1
    for m in range(k, 0, -2):
        result *= m
    return result


def _draw_lambda(genus: int, n0: int, seed: int) -> dict:
    """Seeded rational lambda for boundaries 1..N0, drawn again until they are
    distinct and none is 1, so that every edge factor depends on its sides."""
    rng = random.Random(100 * genus + 10 * n0 + seed)
    while True:
        lam = [Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(n0)]
        if len(set(lam)) == n0 and 1 not in lam:
            return dict(enumerate(lam, start=1))


def _kontsevich_sides(genus: int, n0: int, lam: dict) -> tuple[Fraction, Fraction]:
    """Both sides of Kontsevich's Laplace-transformed main identity,

    sum_G 2^(-N2) / |Aut G| prod_e 2 / (lam_e + lam'_e)
        = sum_d <tau_d>_g prod_i (2 d_i - 1)!! / lam_i^(2 d_i + 1),

    the left over the labelled trivalent cells, with lam_e and lam'_e the
    lam of the boundaries on the two sides of edge e (a loop edge gives
    2 / (2 lam_i)), the right over the compositions d of N0 + 3g - 3.
    """
    left = Fraction(0)
    for graph in enumerate_ribbon_cells(genus, n0):
        labels = graph.dart_labels()
        term = Fraction(1, 2**graph.vertex_count * aut_boundary(graph)[0])
        for d, e in graph.edges:
            term *= 2 / (lam[labels[d]] + lam[labels[e]])
        left += term
    dim = n0 + 3 * genus - 3
    right = Fraction(0)
    for ds in product(range(dim + 1), repeat=n0):
        if sum(ds) != dim:
            continue
        term = tau(genus, ds, enable_higher_genus=True)
        for label, d in enumerate(ds, start=1):
            term *= Fraction(_double_factorial(2 * d - 1)) / lam[label] ** (2 * d + 1)
        right += term
    return left, right


@pytest.mark.parametrize(
    "genus, n0", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
)
def test_kontsevich_laplace_identity_on_the_cells(genus, n0):
    for seed in (1, 2):
        left, right = _kontsevich_sides(genus, n0, _draw_lambda(genus, n0, seed))
        assert left == right != 0, f"g={genus}, N0={n0}, seed {seed}"
