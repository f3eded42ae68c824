import random
from types import SimpleNamespace

import networkx as nx
import pytest
from networkx.algorithms import isomorphism

from dtregge import ribbon
from dtregge.catalog import (
    _cells,
    _classes,
    enumerate_gluings,
    enumerate_ribbon_cells,
    enumerate_triangulations,
    face_count,
    feasible_q_vectors,
)
from dtregge.ribbon import (
    RibbonGraph,
    RibbonGraphError,
    aut_boundary,
    canonical_code,
    dualize,
)
from dtregge.triangulation import corner_rotation


def _encode(graph: RibbonGraph) -> nx.DiGraph:
    """Encode (sigma, alpha, labels) as a labelled digraph for VF2."""
    g = nx.DiGraph()
    labels = graph.dart_labels()
    for d in range(graph.dart_count):
        g.add_node(d, label=labels[d])
    for d in range(graph.dart_count):
        g.add_edge(d, graph.sigma[d], kind="s")
        g.add_edge(d, graph.alpha[d], kind="a")
    return g


def _vf2_aut_count(graph: RibbonGraph) -> int:
    enc = _encode(graph)
    matcher = isomorphism.DiGraphMatcher(
        enc,
        enc,
        node_match=isomorphism.categorical_node_match("label", None),
        edge_match=isomorphism.categorical_edge_match("kind", None),
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


def _dfs_automorphisms(graph: RibbonGraph) -> set[tuple[int, ...]]:
    """Boundary-label-preserving automorphisms by depth-first extension of
    every image of dart 0: an automorphism is fixed by that image, because
    the darts are connected under sigma and alpha."""
    n = graph.dart_count
    sigma, alpha = graph.sigma, graph.alpha
    labels = graph.dart_labels()
    found = set()
    for image in range(n):
        perm = [-1] * n
        perm[0] = image
        stack = [0]
        ok = True
        while stack and ok:
            d = stack.pop()
            for step in (sigma, alpha):
                e, fe = step[d], step[perm[d]]
                if perm[e] == -1:
                    perm[e] = fe
                    stack.append(e)
                elif perm[e] != fe:
                    ok = False
                    break
        if not ok or sorted(perm) != list(range(n)):
            continue
        if any(labels[perm[d]] != labels[d] for d in range(n)):
            continue
        found.add(tuple(perm))
    return found


def _relabel(graph: RibbonGraph, rng: random.Random) -> RibbonGraph:
    """The same map with darts renamed by a random bijection."""
    n = graph.dart_count
    perm = list(range(n))
    rng.shuffle(perm)
    sigma = [0] * n
    alpha = [0] * n
    for d in range(n):
        sigma[perm[d]] = perm[graph.sigma[d]]
        alpha[perm[d]] = perm[graph.alpha[d]]
    old = graph.dart_labels()
    label_of = {perm[d]: old[d] for d in range(n)}
    probe = RibbonGraph(tuple(sigma), tuple(alpha), tuple(range(1, len(graph.boundary_labels) + 1)))
    labels = tuple(label_of[cycle[0]] for cycle in probe.boundary_cycles)
    return RibbonGraph(tuple(sigma), tuple(alpha), labels)


def _reference_code(graph: RibbonGraph) -> bytes:
    """Canonical code by breadth-first encoding from every base dart, with
    no pruning of bases."""
    n = graph.dart_count
    labels = graph.dart_labels()
    codes = []
    for base in range(n):
        new = {base: 0}
        order = [base]
        for d in order:
            for e in (graph.sigma[d], graph.alpha[d]):
                if e not in new:
                    new[e] = len(order)
                    order.append(e)
        codes.append(
            bytes(x for d in order for x in (new[graph.sigma[d]], new[graph.alpha[d]], labels[d]))
        )
    return min(codes)


@pytest.fixture
def theta_graph(theta_sphere):
    return dualize(theta_sphere)


@pytest.fixture
def torus_graph(one_vertex_torus):
    return dualize(one_vertex_torus)


@pytest.fixture
def k4_graphs():
    catalog = enumerate_triangulations(0, 4, (3, 3, 3, 3))
    return [entry.dual for entry in catalog.entries]


def test_dual_counts(theta_graph, torus_graph):
    assert theta_graph.vertex_count == 2
    assert theta_graph.edge_count == 3
    assert sorted(len(c) for c in theta_graph.boundary_cycles) == [2, 2, 2]
    assert theta_graph.genus() == 0
    assert torus_graph.vertex_count == 2
    assert len(torus_graph.boundary_cycles) == 1
    assert torus_graph.genus() == 1


def test_dual_boundary_labels_match_vertex_stars(theta_graph):
    assert sorted(theta_graph.boundary_labels) == [1, 2, 3]


def test_automorphism_order_against_vf2(theta_graph, torus_graph, k4_graphs):
    for graph in [theta_graph, torus_graph] + k4_graphs:
        assert aut_boundary(graph)[0] == _vf2_aut_count(graph)


def test_automorphisms_form_a_group(torus_graph):
    elements = set(aut_boundary(torus_graph)[1])
    assert tuple(range(torus_graph.dart_count)) in elements
    for p in elements:
        for q in elements:
            assert tuple(p[q[d]] for d in range(len(p))) in elements


def test_canonical_code_invariant_under_dart_renaming(theta_graph, torus_graph, k4_graphs):
    rng = random.Random(3)
    for graph in [theta_graph, torus_graph] + k4_graphs:
        code = canonical_code(graph)
        for _ in range(5):
            assert canonical_code(_relabel(graph, rng)) == code


def test_canonical_code_agrees_with_vf2_isomorphism(k4_graphs, theta_graph):
    a, b = k4_graphs
    assert canonical_code(a) != canonical_code(b)
    ga, gb = _encode(a), _encode(b)
    matcher = isomorphism.DiGraphMatcher(
        ga,
        gb,
        node_match=isomorphism.categorical_node_match("label", None),
        edge_match=isomorphism.categorical_edge_match("kind", None),
    )
    assert not matcher.is_isomorphic()


def test_mirror_chirality(theta_graph, k4_graphs):
    # the theta graph is amphichiral, the tetrahedral graph is not
    assert canonical_code(theta_graph.mirror()) == canonical_code(theta_graph)
    a, b = k4_graphs
    assert canonical_code(a.mirror()) == canonical_code(b)
    assert canonical_code(b.mirror()) == canonical_code(a)


def test_rejects_fixed_point_involution():
    with pytest.raises(RibbonGraphError):
        RibbonGraph((1, 2, 0), (0, 1, 2), (1,))


@pytest.mark.parametrize(
    "sigma, alpha, labels, message",
    [
        ((1, 2, 0, 4, 5, 3), (3, 5, 4, 0), (1, 2, 3), "different dart sets"),
        ((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 2), (1, 2, 3), "permutations"),
        ((1, 2, 0, 4, 5, 3), (3, 1, 4, 0, 2, 5), (1, 2, 3), "fixes dart 1"),
        ((1, 2, 0, 4, 5, 3), (1, 2, 0, 4, 5, 3), (1, 2, 3), "not an involution"),
        ((1, 0, 3, 2, 5, 4), (3, 5, 4, 0, 2, 1), (1, 2, 3), "trivalent"),
        (
            (1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9),
            (3, 5, 4, 0, 2, 1, 9, 11, 10, 6, 8, 7),
            (1, 2, 3, 4, 5, 6),
            "not connected",
        ),
        ((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1), (1, 2), "one label per boundary"),
        ((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1), (1, 2, 2), "distinct"),
    ],
)
def test_malformed_graphs_are_rejected_after_a_valid_one(sigma, alpha, labels, message):
    # the dart check remembers only a pair that passed, so a bad pair fails every time
    for _ in range(2):
        RibbonGraph((1, 2, 0, 4, 5, 3), (3, 5, 4, 0, 2, 1), (1, 2, 3))
        with pytest.raises(RibbonGraphError, match=message):
            RibbonGraph(sigma, alpha, labels)


def test_labelling_loop_validates_each_matching_once(monkeypatch):
    checked = []
    connected = ribbon._connected
    monkeypatch.setattr(
        "dtregge.ribbon._connected",
        lambda sigma, alpha: checked.append(alpha) or connected(sigma, alpha),
    )
    ribbon._check_darts.cache_clear()
    _cells.__wrapped__(1, 2)  # labels each class from its first matching
    groups = enumerate_gluings(1, 2)
    representatives = [alpha for sizes in groups for alpha, _ in _classes(1, sizes)]
    matchings = [alpha for alphas in groups.values() for alpha in alphas]
    assert checked == representatives  # each representative once, in search order
    assert len(set(checked)) == len(checked) < len(matchings)


def test_round_trip(theta_graph, torus_graph, k4_graphs):
    for graph in [theta_graph, torus_graph] + k4_graphs:
        again = RibbonGraph.from_dict(graph.to_dict())
        assert again == graph


def test_canonical_code_matches_unpruned_reference():
    rng = random.Random(7)
    loop_cells = 0
    for genus, n0 in [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1)]:
        for graph in enumerate_ribbon_cells(genus, n0):
            loop_cells += any(graph.alpha[d] == graph.sigma[d] for d in range(graph.dart_count))
            code = canonical_code(graph)
            assert code == _reference_code(graph)
            mirror = graph.mirror()
            assert canonical_code(mirror) == _reference_code(mirror)
            renamed = _relabel(graph, rng)
            assert canonical_code(renamed) == _reference_code(renamed) == code
    assert loop_cells > 0


def test_automorphisms_equal_the_depth_first_oracle_on_every_cell():
    loop_cells = nontrivial = 0
    for genus, n0 in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (1, 3)]:
        for graph in enumerate_ribbon_cells(genus, n0):
            loop_cells += any(graph.alpha[d] == graph.sigma[d] for d in range(graph.dart_count))
            order, elements = aut_boundary(graph)
            assert order == len(elements)
            assert set(elements) == _dfs_automorphisms(graph)
            nontrivial += order > 1
    assert loop_cells > 0 and nontrivial > 0


def _all_bases_classes(genus, sizes):
    """The first matching of each unlabelled class of a group of gluings,
    with its orientation-preserving group, from the unpruned references: the
    least encoding over every base dart and the depth-first automorphisms,
    run on the map with one label on every dart."""
    sigma = corner_rotation(3 * face_count(genus, len(sizes)))
    classes = {}
    for alpha in enumerate_gluings(genus, len(sizes)).get(sizes, ()):
        unlabelled = SimpleNamespace(
            dart_count=len(alpha), sigma=sigma, alpha=alpha, dart_labels=lambda: [0] * len(alpha)
        )
        code = _reference_code(unlabelled)
        if code not in classes:
            classes[code] = (alpha, tuple(sorted(_dfs_automorphisms(unlabelled))))
    return tuple(classes.values())


def test_pruned_class_pass_equals_the_all_bases_pass():
    keys = [(0, 3), (1, 1), (0, 4), (1, 2), (0, 5), (1, 3), (2, 1)]  # every key with N2 <= 6
    groups = [(genus, sizes) for genus, n0 in keys for sizes in enumerate_gluings(genus, n0)]
    survey_n2_8 = {tuple(sorted(q)) for q in feasible_q_vectors(0, 6)}
    assert face_count(0, 6) == 8
    groups += [(0, q) for q in sorted(survey_n2_8)]
    nontrivial = survey_matchings = 0
    for genus, sizes in groups:
        classes = _classes(genus, sizes)
        assert classes == _all_bases_classes(genus, sizes)
        nontrivial += sum(len(group) > 1 for _, group in classes)
        if face_count(genus, len(sizes)) == 8:
            survey_matchings += len(enumerate_gluings(genus, len(sizes)).get(sizes, ()))
    assert nontrivial > 0
    assert survey_matchings == 296  # every loop-free genus-0 matching of 8 faces
