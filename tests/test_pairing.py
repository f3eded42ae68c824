import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod

import pytest

from conftest import (
    PAIRING_KEYS,
    feasible_q_vectors,
    has_positive_solution,
    lp_maximum,
    per_call_has_interior_point,
    system_classes,
)
from dtregge.catalog import (
    ResourceCapError,
    enumerate_ribbon_cells,
    enumerate_triangulations,
)
import dtregge.catalog
from dtregge import measure, pairing, ribbon
from dtregge.intersection import generating_F, tau
from dtregge.linalg import solve_square
from dtregge.measure import ConstraintSystem, constraint_system
from dtregge.pairing import (
    cell_volume,
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
    report = duality_pairing(0, 4, (3, 3, 3, 3))
    assert (report.cardinality, report.average_volume) == (2, Fraction(9, 4))
    report = duality_pairing(1, 1, (6,))
    assert (report.cardinality, report.average_volume) == (1, Fraction(3, 8))
    # empty catalog: cardinality zero, no average
    report = duality_pairing(0, 4, (2, 2, 2, 6))
    assert (report.cardinality, report.average_volume) == (0, None)


def test_report_serialization():
    report = duality_pairing(0, 3, (2, 2, 2))
    data = report.to_dict()
    assert data["lhs"] == "1" and data["rhs"] == "1"
    assert data["key"] == {"genus": 0, "vertices": 3, "q": [2, 2, 2]}
    assert all("code" in c for c in data["contributions"])


def test_face_cap_is_checked_before_the_cells(monkeypatch):
    def no_cells(*args):
        raise AssertionError("cells enumerated before the face cap")

    monkeypatch.setattr("dtregge.catalog._cells", no_cells)
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
def test_memoized_volumes_equal_direct_volumes(monkeypatch, key):
    """Each cell's volume is its system's Leray volume, and ``cell_volume``,
    from an empty memo, puts the columns it reads off the boundary cycles
    in the ``system_class`` of the cell's rows, and only when that class has
    an L > 0."""
    genus, n0, q = key
    report = duality_pairing(genus, n0, q)
    found = []
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    monkeypatch.setattr(
        pairing, "system_class", lambda system: found.append(system_class(system)) or found[-1]
    )
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
        expected = system_class(constraint_system(graph, perimeters))
        found.clear()
        pairing._cell_volumes.clear()
        assert cell_volume(graph, q) == contribution.volume
        assert found == ([expected] if has_interior_point(*expected) else [])


def test_pairing_computes_one_volume_per_system_class(monkeypatch):
    calls = []

    def counting(system):
        calls.append(system)
        return leray_volume(system)

    class_volume.cache_clear()
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    monkeypatch.setattr("dtregge.pairing.leray_volume", counting)
    report = duality_pairing(1, 3, (6, 6, 6))
    assert report.equal
    assert len(report.contributions) == 236
    assert class_volume.cache_info().currsize == 15  # only the nonempty classes reach it
    assert len(calls) == 15


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
    """The cells of every labelled key of (g, N0) fall in ``classes`` system
    classes, and only the ``volumes`` nonempty ones reach ``class_volume``."""
    calls = []

    def counting(system):
        calls.append(system)
        return leray_volume(system)

    class_volume.cache_clear()
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    monkeypatch.setattr("dtregge.pairing.leray_volume", counting)
    keys = [(genus, n0, q) for q in feasible_q_vectors(genus, n0)]
    for key in keys:
        assert duality_pairing(*key).equal
    found = system_classes(keys)
    assert len(found) == classes
    assert sum(has_interior_point(*key) for key in found) == volumes
    assert class_volume.cache_info().currsize == len(calls) == volumes


@pytest.mark.parametrize("key", [(0, 4, (4, 3, 3, 2)), (1, 2, (7, 5))])
def test_volumes_shared_across_keys_equal_direct_volumes(key):
    genus, n0, q = key
    duality_pairing(genus, n0, tuple(sorted(q)))  # the memo holds the twin's classes
    report = duality_pairing(genus, n0, q)
    perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
    cells = enumerate_ribbon_cells(genus, n0)
    for graph, contribution in zip(cells, report.contributions, strict=True):
        assert contribution.volume == leray_volume(constraint_system(graph, perimeters)).value


@pytest.mark.parametrize("genus, q, value", [
    (0, (1, 2, 3, 7), 63),
    (0, (Fraction(1, 3), 2, 3, Fraction(7, 2)), Fraction(913, 36)),
    (1, (3, 4), Fraction(625, 48)),
    (1, (1, Fraction(1, 2)), Fraction(25, 768)),
    (1, (Fraction(5, 7),), Fraction(25, 1176)),
    (1, (1, 2, 4), Fraction(4787, 48)),
    (0, (1, 2, 3, 4, 5), Fraction(5071, 2)),
    (0, (1, 1, 1, 1, 9), Fraction(7885, 2)),
])
def test_cell_sum_is_kontsevichs_polynomial_at_perimeters_of_no_triangulation(genus, q, value):
    """Kontsevich's theorem holds at any positive perimeters, not only at
    triangulation keys: 2^(2 N0 + 5g - 5) sum vol / |Aut| over the trivalent
    cells is F_g(q), here at q with sum(q) != 3 N2, entries 1 or fractions."""
    n0 = len(q)
    cells = enumerate_ribbon_cells(genus, n0)
    total = sum((cell_volume(graph, q) / graph.aut_order for graph in cells), Fraction(0))
    assert pairing_constant(genus, n0) * total == generating_F(genus, q) == value


@pytest.mark.parametrize("genus, n0", [(0, 4), (1, 2), (1, 3), (2, 2), (0, 5)])
def test_cell_sum_coefficients_are_the_intersection_numbers(genus, n0):
    """Kontsevich's volume polynomial, coefficient by coefficient: the cell
    sum at as many seeded rational q as there are exponents delta with
    sum delta = 3g - 3 + N0 determines the coefficient of each
    prod q_i^(2 delta_i), which times prod delta_i! is <tau_delta>_g."""
    degree = 3 * genus - 3 + n0
    deltas = [d for d in product(range(degree + 1), repeat=n0) if sum(d) == degree]
    rng = random.Random(10 * genus + n0)
    points = [tuple(Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(n0))
              for _ in deltas]
    cells = enumerate_ribbon_cells(genus, n0)
    values = [
        pairing_constant(genus, n0)
        * sum((cell_volume(graph, q) / graph.aut_order for graph in cells), Fraction(0))
        for q in points
    ]
    rows = [[prod(x ** (2 * d) for x, d in zip(q, delta)) for delta in deltas] for q in points]
    coefficients = solve_square(rows, values)
    assert coefficients is not None, "the points do not determine the polynomial"
    for delta, coefficient in zip(deltas, coefficients):
        expected = tau(genus, delta)
        assert coefficient * prod(map(factorial, delta)) == expected, delta


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
    report = duality_pairing(genus, n0, q)
    assert report.equal
    assert report.lhs == report.rhs == value


def test_pairing_at_genus_3():
    """(3,1,(30)): the 1726 genus-3 cells of one boundary against <tau_7>_3."""
    report = duality_pairing(3, 1, (30,))
    assert report.equal
    assert report.lhs == report.rhs == Fraction(8009033203125, 7)


def test_pairing_builds_no_rows_on_the_cells(monkeypatch, fresh_gluing_caches):
    """The pairing keeps nothing per cell beyond the enumerator's rows:
    fresh rows paired from an empty memo stay six plain fields each, and
    the volume memo is keyed by class index and perimeters, as ``_volume``
    reads its columns once per class, off the boundary cycles."""
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    duality_pairing(1, 4, (6, 6, 6, 6))
    assert pairing._cell_volumes
    assert all(type(index) is int and len(perimeters) == 4
               for index, perimeters in pairing._cell_volumes)
    for row in dtregge.catalog._cells(1, 4):
        assert [type(field) for field in row] == [bytes, tuple, int, bool, tuple, int]


def test_pairing_keys_build_no_ribbon_graph(monkeypatch, fresh_gluing_caches):
    """From fresh caches and an empty memo, the 47 pairing keys read the
    cells as rows and construct no ``RibbonGraph``."""
    built = []
    post_init = ribbon.RibbonGraph.__post_init__
    monkeypatch.setattr(ribbon.RibbonGraph, "__post_init__",
                        lambda graph: built.append(graph) or post_init(graph))
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    for key in PAIRING_KEYS:
        assert duality_pairing(*key).equal
    assert built == []
    assert len(enumerate_ribbon_cells(1, 3)) == len(built) == 236  # the count sees a build


def test_cell_volume_of_a_catalog_dual_reads_the_pairing_memo(monkeypatch):
    """``cell_volume`` on the duals of the (1,3,(6,6,6)) catalog finds each
    volume in the memo the pairing filled, keyed by the class index of the
    dual's (sigma, alpha) and its perimeters in cycle order."""
    q = (6, 6, 6)
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    report = duality_pairing(1, 3, q)
    filled = dict(pairing._cell_volumes)

    def no_search(*args):
        raise AssertionError("memo miss")

    monkeypatch.setattr(pairing, "has_interior_point", no_search)
    volumes = {c.code: c.volume for c in report.contributions}
    entries = enumerate_triangulations(1, 3, q).entries
    assert len(entries) == report.cardinality > 0
    for entry in entries:
        dual = entry.dual
        key = (dtregge.catalog.class_index(dual.sigma, dual.alpha),
               tuple(q[label - 1] for label in dual.boundary_labels))
        assert key in filled
        assert cell_volume(dual, q) == filled[key] == volumes[entry.code]
    assert pairing._cell_volumes == filled


@pytest.mark.parametrize("labels, q", [
    ((1, 2, 3), (2, 2, 2, 99)),  # an extra q entry
    ((0, 1, 2), (2, 2, 5)),  # label 0 would read q[-1]
    ((1, 2, 7), (2, 2, 5)),  # label 7 is past q
], ids=["extra-q", "label-0", "label-7"])
def test_cell_volume_rejects_labels_that_are_not_1_to_n0(labels, q):
    graph = enumerate_ribbon_cells(0, 3)[0]
    cell = ribbon.RibbonGraph(graph.sigma, graph.alpha, labels)
    with pytest.raises(ValueError, match="need labels 1..3 and 3 perimeters"):
        cell_volume(cell, q)


def test_pairing_keys_run_one_class_search_per_nonempty_memo_key(monkeypatch):
    """From empty memos, the 47 pairing keys run ``system_class`` once per
    memo key with an L > 0 (95 of them), ``leray_volume`` once per nonempty
    class (54), and build no constraint rows."""
    calls = Counter()

    def counting(name, function):
        return lambda *args: calls.update([name]) or function(*args)

    class_volume.cache_clear()
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    for name in ("system_class", "leray_volume"):
        monkeypatch.setattr(pairing, name, counting(name, getattr(pairing, name)))
    monkeypatch.setattr(measure, "constraint_system", counting("constraint_system", constraint_system))
    for key in PAIRING_KEYS:
        assert duality_pairing(*key).equal
    assert len(PAIRING_KEYS) == 47
    assert calls == {"system_class": 95, "leray_volume": 54}
    assert sum(volume > 0 for volume in pairing._cell_volumes.values()) == 95


def test_a_second_key_recomputes_no_cell_field(monkeypatch):
    """Side counts, code and aut order ignore q: they are computed once per
    cell and kept in its row, so a second key of the same (g, N0) reads the
    first key's objects back and runs no canonical pass or cycle search."""
    first = duality_pairing(0, 4, (2, 3, 3, 4))
    calls = []

    def count(module, name):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or function(*args))

    # the rows read their cycles in catalog, a class's columns in measure
    count(dtregge.catalog, "canonical_form")
    count(dtregge.catalog, "boundary_cycles")
    count(measure, "boundary_cycles")
    second = duality_pairing(0, 4, (4, 3, 3, 2))
    assert calls == []
    assert len(second.contributions) == 64
    for before, after in zip(first.contributions, second.contributions, strict=True):
        assert after.sides is before.sides
        assert after.code is before.code


def test_reports_do_not_depend_on_the_order_of_the_keys(monkeypatch, fresh_gluing_caches):
    """Memos filled by earlier keys change no later report: the 35 labelled
    (0,4) keys paired in descending order, from empty memos, give the
    reports of ascending order."""
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    keys = [(0, 4, q) for q in feasible_q_vectors(0, 4)]
    assert len(keys) == 35 and keys == sorted(keys)
    reports = []
    for order in (keys, keys[::-1]):
        for name in ("enumerate_gluings", "_classes", "_cells"):
            getattr(dtregge.catalog, name).cache_clear()
        class_volume.cache_clear()
        pairing._cell_volumes.clear()
        reports.append({key: duality_pairing(*key).to_dict() for key in order})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("keys, classes, nonempty", [
    (PAIRING_KEYS, 181, 54),
    ([(0, 5, (3, 3, 4, 4, 4))], 163, 29),
    ([(1, 4, (6, 6, 6, 6))], 244, 56),
], ids=["pairing-keys", "0-5", "1-4"])
def test_interior_point_test_agrees_with_the_lp_and_the_volumes(keys, classes, nonempty):
    """On every class of the keys, ``has_interior_point`` agrees with the LP
    oracle, and the Leray volume is zero exactly where it finds no L > 0."""
    found = system_classes(keys)
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


def test_interior_point_test_builds_its_sets_once_per_column_tuple(monkeypatch):
    """From empty memos the 47 pairing keys reach ``has_interior_point`` on
    304 memo misses with 55 distinct column tuples: it agrees with the
    per-call oracle on each, and builds the independent sets once per
    column tuple."""
    calls = []
    original = pairing.has_interior_point
    monkeypatch.setattr(pairing, "_cell_volumes", {})
    monkeypatch.setattr(
        pairing, "has_interior_point", lambda *args: calls.append(args) or original(*args)
    )
    pairing._independent_sets.cache_clear()
    for key in PAIRING_KEYS:
        duality_pairing(*key)
    assert len(calls) == 304
    assert len({columns for _, columns in calls}) == 55
    info = pairing._independent_sets.cache_info()
    assert (info.misses, info.hits, info.currsize) == (55, 304 - 55, 55)
    for rhs, columns in calls:
        assert original(rhs, columns) == per_call_has_interior_point(rhs, columns), (rhs, columns)


def test_interior_point_test_equals_the_per_call_oracle_on_random_systems():
    """Seeded random multigraphs on N0 <= 6 rows, loops included, each
    paired with four rhs in halves: the sets built once per
    column tuple answer as the per-call oracle does, at every call."""
    rng = random.Random(34)
    answers = Counter()
    for _ in range(150):
        n0 = rng.randint(1, 6)
        ends = [(rng.randrange(n0), rng.randrange(n0)) for _ in range(rng.randint(1, n0 + 3))]
        columns = tuple(tuple((u == i) + (v == i) for i in range(n0)) for u, v in ends)
        for _ in range(4):
            rhs = tuple(Fraction(rng.randint(1, 8), rng.choice([1, 2])) for _ in range(n0))
            expected = per_call_has_interior_point(rhs, columns)
            assert has_interior_point(rhs, columns) == expected, (rhs, columns)
            answers[expected] += 1
    assert answers[True] and answers[False]


def test_interior_point_test_raises_at_every_call_on_an_invalid_column():
    """A column that is no edge raises on the first call and again on a
    repeated one, and no set is kept for it."""
    pairing._independent_sets.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="does not sum to 2"):
            has_interior_point((2, 2), ((1, 0), (1, 1)))
    assert pairing._independent_sets.cache_info().currsize == 0


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
    2 / (2 lam_i)), the right over the compositions d of N0 + 3g - 3.  Each
    |Aut G| is read off the cell's row of ``catalog._cells``: the order that
    ``duality_pairing`` sums.
    """
    left = Fraction(0)
    rows = dtregge.catalog._cells(genus, n0)  # in code order, as the cells
    for graph, (_, _, aut, *_) in zip(enumerate_ribbon_cells(genus, n0), rows, strict=True):
        labels = graph.dart_labels()
        term = Fraction(1, 2**graph.vertex_count * aut)
        for d, e in graph.edges:
            term *= 2 / (lam[labels[d]] + lam[labels[e]])
        left += term
    dim = n0 + 3 * genus - 3
    right = Fraction(0)
    for ds in product(range(dim + 1), repeat=n0):
        if sum(ds) != dim:
            continue
        term = tau(genus, ds)
        for label, d in enumerate(ds, start=1):
            term *= Fraction(_double_factorial(2 * d - 1)) / lam[label] ** (2 * d + 1)
        right += term
    return left, right


@pytest.mark.parametrize(
    "genus, n0", [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
)
def test_kontsevich_laplace_identity_on_the_cells(genus, n0):
    for seed in (1, 2):
        left, right = _kontsevich_sides(genus, n0, _draw_lambda(genus, n0, seed))
        assert left == right != 0, f"g={genus}, N0={n0}, seed {seed}"
