import concurrent.futures
import hashlib
import json
import os
from itertools import permutations

import pytest

from conftest import search_matchings, union_find_corner_classes
from dtregge import catalog
from dtregge.catalog import (
    Catalog,
    InfeasibleKeyError,
    ResourceCapError,
    _classes,
    check_feasible,
    enumerate_gluings,
    enumerate_ribbon_cells,
    enumerate_triangulations,
    face_count,
    feasible_q_vectors,
)
from dtregge.ribbon import RibbonGraph, aut_boundary, canonical_code, dualize
from dtregge.triangulation import (
    TriangulationError,
    build_triangulation,
    corner_classes,
    corner_rotation,
    curvature_assignments,
    gauss_bonnet_check,
    orbits,
)


# --- brute-force oracle: all slot matchings, no canonicalization ----------


def _all_matchings(slots):
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for tail in _all_matchings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + tail


def _brute_force_codes(genus, n0, q):
    """Canonical codes of all labelled triangulations at a key, found by
    exhausting every pairing of the 3*N2 slots with no symmetry pruning."""
    n2 = check_feasible(genus, n0, q)
    codes = set()
    slots = [(f, i) for f in range(n2) for i in range(3)]
    for matching in _all_matchings(slots):
        if any(s[0] == t[0] for s, t in matching):
            continue
        classes = union_find_corner_classes([(0, 0, 0)] * n2, matching)
        if sorted(len(c) for c in classes) != sorted(q):
            continue
        for label_perm in permutations(range(1, n0 + 1)):
            assignment = {}
            ok = True
            used = set()
            # assign labels to classes greedily by matching sizes in order
            sizes = [len(c) for c in classes]
            # try all bijections class -> label with matching q
            for class_order in permutations(range(len(classes))):
                if [sizes[i] for i in class_order] != [
                    q[l - 1] for l in label_perm
                ]:
                    continue
                label_of = {}
                for idx, label in zip(class_order, label_perm):
                    for corner in classes[idx]:
                        label_of[corner] = label
                faces = [
                    tuple(label_of[(f, c)] for c in range(3)) for f in range(n2)
                ]
                try:
                    t = build_triangulation(n0, faces, matching)
                except TriangulationError:
                    continue
                if t.genus != genus:
                    continue
                codes.add(canonical_code(dualize(t)))
            break  # label_perm loop already covers bijections via class_order
    return codes


def test_face_count_and_feasibility():
    assert face_count(0, 3) == 2
    assert face_count(0, 4) == 4
    assert face_count(1, 1) == 2
    with pytest.raises(InfeasibleKeyError):
        face_count(0, 1)
    with pytest.raises(InfeasibleKeyError):
        check_feasible(0, 3, (2, 2, 3))  # wrong total
    with pytest.raises(InfeasibleKeyError):
        check_feasible(0, 4, (1, 2, 4, 5))  # entry below 2
    with pytest.raises(InfeasibleKeyError):
        check_feasible(0, 3, (2, 2))  # wrong length


def test_reference_cardinalities():
    assert enumerate_triangulations(0, 3, (2, 2, 2)).cardinality == 1
    assert enumerate_triangulations(0, 4, (3, 3, 3, 3)).cardinality == 2
    assert enumerate_triangulations(1, 1, (6,)).cardinality == 1


def test_catalog_matches_brute_force_oracle():
    for genus, n0, q in [(0, 3, (2, 2, 2)), (1, 1, (6,)), (0, 4, (2, 2, 4, 4)),
                         (0, 4, (3, 3, 3, 3)), (1, 2, (6, 6))]:
        catalog = enumerate_triangulations(genus, n0, q)
        assert {e.code for e in catalog.entries} == _brute_force_codes(genus, n0, q)


def test_entries_satisfy_key_invariants():
    catalog = enumerate_triangulations(0, 4, (2, 2, 4, 4))
    for entry in catalog.entries:
        assert curvature_assignments(entry.triangulation) == (2, 2, 4, 4)
        assert gauss_bonnet_check(entry.triangulation)[1]
        assert entry.dual.genus() == 0
        assert canonical_code(entry.dual) == entry.code


def test_parallel_equals_serial():
    serial = enumerate_triangulations(0, 4, (3, 3, 3, 3), workers=1)
    parallel = enumerate_triangulations(0, 4, (3, 3, 3, 3), workers=2)
    assert serial.to_dict() == parallel.to_dict()


@pytest.mark.parametrize("workers,cpus,size", [
    (10**6, 8, 3),  # the key has 3 jobs
    (2, 8, 2),
    (10**6, 1, 1),
    (10**6, None, 1),
])
def test_process_pool_is_no_larger_than_its_jobs_or_the_cpus(monkeypatch, workers, cpus, size):
    """The pool is only recorded and mapped serially: no process starts."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    key = (1, 4, (6, 6, 6, 6))
    serial = enumerate_triangulations(*key)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert enumerate_triangulations(*key, workers=workers).to_dict() == serial.to_dict()
    assert sizes == [size]


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        enumerate_triangulations(0, 6, (3,) * 4 + (6, 6), max_faces=4)


def test_gluing_budget(monkeypatch, fresh_gluing_caches):
    budget = catalog.MAX_MATCHINGS
    monkeypatch.setattr(catalog, "MAX_MATCHINGS", 1000)  # (1, 4) holds 14912
    with pytest.raises(ResourceCapError, match="more than 1000 gluings"):
        enumerate_ribbon_cells(1, 4)
    with pytest.raises(ResourceCapError, match="more than 1000 gluings"):
        enumerate_triangulations(1, 4, (6, 6, 6, 6))
    assert catalog.enumerate_gluings.cache_info().currsize == 0
    assert catalog._cells.cache_info().currsize == 0
    monkeypatch.setattr(catalog, "MAX_MATCHINGS", budget)
    assert enumerate_triangulations(1, 4, (6, 6, 6, 6)).cardinality > 0
    assert enumerate_ribbon_cells(1, 4)
    assert sum(map(len, catalog.enumerate_gluings(1, 4).values())) == 14912


def test_gluing_node_cap(monkeypatch, fresh_gluing_caches):
    monkeypatch.setattr(catalog, "MAX_NODES", 1000)  # (1, 4) visits 52149
    with pytest.raises(ResourceCapError, match="more than 1000 nodes"):
        enumerate_ribbon_cells(1, 4)
    with pytest.raises(ResourceCapError, match="more than 1000 nodes"):
        enumerate_triangulations(1, 4, (6, 6, 6, 6))
    assert catalog.enumerate_gluings.cache_info().currsize == 0
    assert catalog._cells.cache_info().currsize == 0
    monkeypatch.setattr(catalog, "MAX_NODES", 52149)
    assert sum(map(len, catalog.enumerate_gluings(1, 4).values())) == 14912


def test_gluing_search_glues_only_along_the_boundary_once_the_handles_are_spent(
    monkeypatch, fresh_gluing_caches
):
    """(0, 6) visits 18351 nodes; a search cut only on closed orbits visits 74875."""
    monkeypatch.setattr(catalog, "MAX_NODES", 20000)
    assert sum(map(len, catalog.enumerate_gluings(0, 6).values())) == 4096


def test_gluing_search_at_genus_zero_with_seven_vertices(fresh_gluing_caches):
    """The groups of (0, 7), matchings in order, as the search without the
    handle cut found them; the oracle scan of every matching at N2 = 10
    (828250 of them) is too slow to run here."""
    search = catalog.enumerate_gluings(0, 7)
    assert sum(map(len, search.values())) == 54912
    assert hashlib.sha256(repr(dict(search)).encode()).hexdigest() == (
        "432a2f93e17636f03509802a05d52ad1bd74e00d9333fda90bab9ce14f4434f7"
    )


def test_json_round_trip_is_bit_identical():
    catalog = enumerate_triangulations(1, 1, (6,))
    first = json.dumps(catalog.to_dict(), indent=2, sort_keys=True)
    again = Catalog.from_dict(json.loads(first))
    second = json.dumps(again.to_dict(), indent=2, sort_keys=True)
    assert first == second


def test_feasible_q_vectors():
    vectors = list(feasible_q_vectors(0, 4))
    assert len(vectors) == 35
    assert all(sum(q) == 12 and min(q) >= 2 for q in vectors)
    assert (2, 2, 4, 4) in vectors and (3, 3, 3, 3) in vectors
    assert list(feasible_q_vectors(0, 3)) == [(2, 2, 2)]


def test_cells_of_one_class_share_one_boundary_cycles_tuple():
    cells = enumerate_ribbon_cells(0, 5)
    shared = {}
    for cell in cells:
        assert shared.setdefault(cell.alpha, cell.boundary_cycles) is cell.boundary_cycles
    assert len(shared) < len(cells)


def test_ribbon_cells_include_catalog_duals_and_loops():
    cells = enumerate_ribbon_cells(0, 4)
    assert len(cells) == 64
    cell_codes = {canonical_code(g) for g in cells}
    for q in [(2, 2, 4, 4), (3, 3, 3, 3)]:
        for entry in enumerate_triangulations(0, 4, q).entries:
            assert entry.code in cell_codes
    # every cell is a connected trivalent map with the right key
    for graph in cells:
        assert isinstance(graph, RibbonGraph)
        assert graph.genus() == 0
        assert len(graph.boundary_cycles) == 4
    # loop cells exist and are never duals of triangulations
    has_loop = [
        g for g in cells
        if any(d // 3 == g.alpha[d] // 3 for d in range(g.dart_count))
    ]
    assert has_loop
    all_catalog = set()
    for q in feasible_q_vectors(0, 4):
        for entry in enumerate_triangulations(0, 4, q).entries:
            all_catalog.add(entry.code)
    assert not ({canonical_code(g) for g in has_loop} & all_catalog)


def _slot_pairs(alpha):
    return [(divmod(d, 3), divmod(a, 3)) for d, a in enumerate(alpha) if d < a]


def _loop_free_search(n2):
    """The pruned search of ``search_matchings`` with every gluing of a slot to
    its own face excluded during the search, not filtered afterwards."""
    n = 3 * n2
    partner = [-1] * n
    used = [False] * n2
    used[0] = True
    found = []

    def rec(matched):
        if matched == n:
            found.append(tuple(partner))
            return
        s = partner.index(-1)
        if not used[s // 3]:
            return
        new_face = next((f for f in range(n2) if not used[f]), None)
        candidates = [
            t for t in range(s + 1, n)
            if partner[t] == -1 and used[t // 3] and t // 3 != s // 3
        ]
        if new_face is not None:
            candidates.append(3 * new_face)
        for t in candidates:
            partner[s], partner[t] = t, s
            opened = not used[t // 3]
            used[t // 3] = True
            rec(matched + 2)
            if opened:
                used[t // 3] = False
            partner[s] = partner[t] = -1

    rec(0)
    return found


def test_orbit_corner_classes_equal_union_find_on_every_matching():
    for n2 in (2, 4, 6, 8):
        faces = [(0, 0, 0)] * n2
        for alpha in search_matchings(n2):
            gluing = _slot_pairs(alpha)
            assert corner_classes(faces, gluing) == union_find_corner_classes(faces, gluing)


def _keys_with_faces(n2):
    """Every (genus, N0) whose face count is n2."""
    return [(g, n2 // 2 + 2 - 2 * g) for g in range(n2 // 4 + 2) if n2 // 2 + 2 - 2 * g >= 1]


def test_gluing_groups_match_a_scan_of_every_gluing():
    for n2 in (2, 4, 6, 8):
        matchings = search_matchings(n2)
        groups = [
            (genus, n0, sizes, alphas)
            for genus, n0 in _keys_with_faces(n2)
            for sizes, alphas in enumerate_gluings(genus, n0).items()
        ]
        group_of = {alpha: group[:3] for group in groups for alpha in group[3]}
        # every matching lands in exactly one group of one search
        assert sum(len(group[3]) for group in groups) == len(matchings) == len(group_of)
        for alpha in matchings:
            gluing = _slot_pairs(alpha)
            classes = union_find_corner_classes([(0, 0, 0)] * n2, gluing)
            chi = len(classes) - 3 * n2 // 2 + n2
            genus, n0, sizes = group_of[alpha]
            assert (genus, n0, sizes) == (
                (2 - chi) // 2, len(classes), tuple(sorted(len(c) for c in classes))
            )
            # a loop bounds a 1-sided boundary, and only a loop does
            assert any(s[0] == t[0] for s, t in gluing) == (1 in sizes)
        position = {alpha: i for i, alpha in enumerate(matchings)}
        for *_, alphas in groups:
            assert [position[a] for a in alphas] == sorted(position[a] for a in alphas)
        loop_free = [alpha for alpha in matchings if 1 not in group_of[alpha][2]]
        assert loop_free == _loop_free_search(n2)


def test_gluing_searches_equal_the_oracle_search_and_its_orbits():
    """The sizes each (genus, N0) search tracks while it glues equal the
    orbits of sigma o alpha computed afterwards, group for group and in
    order, loops included."""
    for n2 in (2, 4, 6, 8):
        sigma = corner_rotation(3 * n2)
        expected: dict = {key: {} for key in _keys_with_faces(n2)}
        for alpha in search_matchings(n2):
            sizes = tuple(sorted(len(o) for o in orbits([sigma[a] for a in alpha])))
            genus = (2 - len(sizes) + n2 // 2) // 2
            expected[genus, len(sizes)].setdefault(sizes, []).append(alpha)
        for (genus, n0), groups in expected.items():
            search = enumerate_gluings(genus, n0)
            assert list(search) == list(groups)
            assert [list(alphas) for alphas in search.values()] == list(groups.values())


def test_gluing_search_of_genus_three_with_one_vertex():
    search = enumerate_gluings(3, 1)
    assert list(search) == [(30,)]
    assert len(search[30,]) == 50050


def test_catalogs_are_the_loop_free_cells_with_their_side_counts():
    keys = 0
    for genus, n0 in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)]:
        codes_by_q: dict = {}
        for cell in enumerate_ribbon_cells(genus, n0):
            if any(d // 3 == a // 3 for d, a in enumerate(cell.alpha)):
                continue
            sides = dict(zip(cell.boundary_labels, map(len, cell.boundary_cycles)))
            q = tuple(sides[k] for k in range(1, n0 + 1))
            codes_by_q.setdefault(q, set()).add(canonical_code(cell))
        qs = list(feasible_q_vectors(genus, n0))
        assert set(codes_by_q) <= set(qs)
        for q in qs:
            catalog = enumerate_triangulations(genus, n0, q)
            assert {e.code for e in catalog.entries} == codes_by_q.get(q, set())
        keys += len(qs)
    assert keys == 633


def test_resource_cap_in_check_feasible():
    assert check_feasible(0, 6, (3,) * 4 + (6, 6), max_faces=8) == 8
    with pytest.raises(ResourceCapError):
        check_feasible(0, 6, (3,) * 4 + (6, 6), max_faces=4)
    with pytest.raises(InfeasibleKeyError):  # infeasibility is reported first
        check_feasible(0, 6, (3,) * 4 + (6, 5), max_faces=4)


def test_dart_cap_in_check_feasible():
    # canonical codes number the darts in bytes: 3 N2 <= 256
    assert check_feasible(0, 44, (6,) * 40 + (3,) * 4) == 84  # 252 darts
    with pytest.raises(ResourceCapError, match="258 darts"):
        check_feasible(0, 45, (6,) * 33 + (5,) * 12)
    with pytest.raises(ResourceCapError, match="258 darts"):
        enumerate_triangulations(0, 45, (6,) * 33 + (5,) * 12, max_faces=100)


def test_face_and_dart_caps_in_enumerate_ribbon_cells():
    with pytest.raises(ResourceCapError, match="14 faces"):
        enumerate_ribbon_cells(0, 9)  # the default cap is 10 faces
    with pytest.raises(ResourceCapError, match="6 faces"):
        enumerate_ribbon_cells(0, 5, max_faces=4)
    with pytest.raises(ResourceCapError, match="258 darts"):
        enumerate_ribbon_cells(0, 45, max_faces=None)
    assert len(enumerate_ribbon_cells(0, 3, max_faces=2)) == 4


# --- oracle: every labelling of every matching, deduplicated by code -------

CELL_KEYS = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


def _labelling_loop_cells(genus, n0):
    """The cells of (genus, N0) found by building and coding every labelling
    of every matching of the oracle search with N0 orbits, keeping the
    first graph of each code."""
    out = {}
    sigma = corner_rotation(3 * face_count(genus, n0))
    for alpha in search_matchings(face_count(genus, n0)):
        if len(orbits([sigma[a] for a in alpha])) != n0:
            continue
        for labels in permutations(range(1, n0 + 1)):
            graph = RibbonGraph(sigma, alpha, labels)
            out.setdefault(canonical_code(graph), graph)
    return [out[code] for code in sorted(out)]


@pytest.mark.parametrize("genus, n0", CELL_KEYS)
def test_ribbon_cells_equal_the_labelling_loop_oracle(genus, n0):
    cells = enumerate_ribbon_cells(genus, n0)
    for cell, graph in zip(cells, _labelling_loop_cells(genus, n0), strict=True):
        assert (cell.sigma, cell.alpha, cell.boundary_labels) == (
            graph.sigma, graph.alpha, graph.boundary_labels
        )
        assert canonical_code(cell) == canonical_code(graph)
        assert aut_boundary(cell)[0] == aut_boundary(graph)[0]


def _check_orbit_stabilizer(graph, group):
    """The automorphisms of ``graph`` are the elements of the group of its
    unlabelled class that keep its labels, and |group| = orbit x stabilizer."""
    labels = graph.dart_labels()
    images = {tuple(labels[g[d]] for d in range(graph.dart_count)) for g in group}
    stabilizer = [g for g in group if all(labels[g[d]] == labels[d] for d in range(len(g)))]
    assert aut_boundary(graph) == (len(stabilizer), stabilizer)
    assert len(images) * len(stabilizer) == len(group)
    return len(images) > 1


def test_orbit_stabilizer_automorphisms_equal_the_coding_pass():
    moved = 0
    for genus, n0 in CELL_KEYS:
        groups = {
            alpha: group
            for sizes in enumerate_gluings(genus, n0)
            for alpha, group in _classes(genus, sizes)
        }
        for cell in enumerate_ribbon_cells(genus, n0):
            moved += _check_orbit_stabilizer(cell, groups[cell.alpha])
    entries = 0
    for genus, n0 in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3)]:
        for q in sorted({tuple(sorted(q)) for q in feasible_q_vectors(genus, n0)}):
            groups = dict(_classes(genus, q))
            for entry in enumerate_triangulations(genus, n0, q).entries:
                moved += _check_orbit_stabilizer(entry.dual, groups[entry.dual.alpha])
                assert entry.aut_order == aut_boundary(entry.dual)[0]
                entries += 1
    assert moved > 0 and entries > 0


@pytest.mark.parametrize("genus, n0", [*CELL_KEYS, (0, 6), (1, 4), (3, 1)])
def test_the_search_stores_each_class_once_per_root_up_to_automorphism(genus, n0):
    """Every (g, N0) with N2 <= 8, and (3,1).  The search stores one matching
    per root dart of a class, and two roots give the same matching exactly
    when an automorphism maps one to the other, so a class whose group has
    order |G| is stored 3 N2 / |G| times (orbit-stabilizer on the darts)."""
    darts = 3 * face_count(genus, n0)
    for sizes, alphas in enumerate_gluings(genus, n0).items():
        classes = _classes(genus, sizes)
        assert all(darts % len(group) == 0 for _, group in classes)
        assert sum(darts // len(group) for _, group in classes) == len(alphas)
