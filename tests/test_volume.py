import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    PAIRING_KEYS,
    all_bases_vertices,
    feasible_q_vectors,
    kernel_vertices,
    system_classes,
    triangulated_leray_volume,
)
from linalg_oracles import rref
from dtregge.catalog import enumerate_triangulations
from dtregge.linalg import det, kernel_and_particular, matrix_rank, solve_square
from dtregge.measure import ConstraintSystem, edge_ends, incidence_matrix
from dtregge.pairing import has_interior_point
from dtregge.volume import (
    LerayVolume,
    RankDeficientError,
    UnboundedPolytopeError,
    _bases,
    _integer_vertices,
    kernel_basis_and_particular,
    lebesgue_volume,
    leray_volume,
    polytope_vertices,
)


# --- independent volume oracle: Lasserre's facet recursion on A x <= b ----


def _normalize(row, b):
    lead = next((x for x in row if x != 0), None)
    if lead is None:
        return None
    scale = Fraction(1) / abs(lead)
    return tuple(Fraction(x) * scale for x in row), Fraction(b) * scale


def _dedupe(ineqs):
    best = {}
    for row, b in ineqs:
        norm = _normalize(row, b)
        if norm is None:
            if b < 0:
                return None  # infeasible 0 <= b
            continue
        key = norm[0]
        if key not in best or norm[1] < best[key]:
            best[key] = norm[1]
    return [(list(k), v) for k, v in best.items()]


def lasserre_volume(ineqs, dim) -> Fraction:
    """Exact volume of {x : A x <= b} by recursive variable elimination."""
    ineqs = _dedupe(ineqs)
    if ineqs is None:
        return Fraction(0)
    if dim == 0:
        return Fraction(1)  # the feasible point
    if dim == 1:
        lo, hi = None, None
        for (a,), b in ineqs:
            if a > 0:
                hi = b / a if hi is None else min(hi, b / a)
            else:
                lo = b / a if lo is None else max(lo, b / a)
        if lo is None or hi is None:
            raise ValueError("unbounded interval")
        return max(Fraction(0), hi - lo)
    total = Fraction(0)
    for i, (row, b) in enumerate(ineqs):
        k = next(j for j in range(dim) if row[j] != 0)
        reduced = []
        for i2, (r2, b2) in enumerate(ineqs):
            if i2 == i:
                continue
            factor = Fraction(r2[k]) / row[k]
            nr = [r2[j] - factor * row[j] for j in range(dim)]
            del nr[k]
            reduced.append((nr, b2 - factor * b))
        total += (Fraction(b) / abs(row[k])) * lasserre_volume(reduced, dim - 1)
    return total / dim


def _tight_sets(points, geq):
    """For each point, the indices of the inequalities row . x + b >= 0
    that hold with equality there."""
    return [
        frozenset(i for i, (row, b) in enumerate(geq) if sum(r * x for r, x in zip(row, p)) + b == 0)
        for p in points
    ]


def _nonempty_systems(keys):
    """The constraint system of every class with some L > 0 among the cells
    of the keys."""
    return [
        ConstraintSystem(tuple(zip(*columns)), rhs)
        for rhs, columns in sorted(system_classes(keys))
        if has_interior_point(rhs, columns)
    ]


def test_linear_algebra_basics():
    m, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert m == [[1, 0], [0, 1]]
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[1, 2], [2, 4]]) == 0
    assert solve_square([[2, 0], [0, 4]], [2, 8]) == [1, 2]
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2


def test_lasserre_oracle_on_known_bodies():
    # unit square, unit simplex, a scaled box
    square = [([1, 0], Fraction(1)), ([-1, 0], Fraction(0)),
              ([0, 1], Fraction(1)), ([0, -1], Fraction(0))]
    assert lasserre_volume(square, 2) == 1
    simplex = [([-1, 0, 0], Fraction(0)), ([0, -1, 0], Fraction(0)),
               ([0, 0, -1], Fraction(0)), ([1, 1, 1], Fraction(1))]
    assert lasserre_volume(simplex, 3) == Fraction(1, 6)
    box = [([1, 0], Fraction(3)), ([-1, 0], Fraction(0)),
           ([0, 1], Fraction(2)), ([0, -1], Fraction(0)),
           ([2, 0], Fraction(6))]  # redundant duplicate facet
    assert lasserre_volume(box, 2) == 6


def test_lebesgue_volume_matches_lasserre_on_random_polytopes():
    rng = random.Random(42)
    for _ in range(20):
        dim = rng.choice((2, 3))
        # unit box plus random cutting halfplanes through it
        ineqs = []
        for j in range(dim):
            e = [Fraction(0)] * dim
            e[j] = Fraction(1)
            ineqs.append((list(e), Fraction(1)))
            ineqs.append(([-x for x in e], Fraction(0)))
        for _ in range(rng.randint(1, 3)):
            row = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            if all(x == 0 for x in row):
                continue
            b = Fraction(rng.randint(1, 4), 2)
            ineqs.append((row, b))
        oracle = lasserre_volume(ineqs, dim)
        # vertex enumeration route: rewrite A x <= b as (-A) x + b >= 0
        geq = [([-x for x in row], b) for row, b in ineqs]
        n = len(geq)
        vertices = set()
        for subset in combinations(range(n), dim):
            sol = solve_square([geq[i][0] for i in subset], [-geq[i][1] for i in subset])
            if sol is None:
                continue
            if all(sum(r * x for r, x in zip(row, sol)) + b >= 0 for row, b in geq):
                vertices.add(tuple(sol))
        vertices = sorted(vertices)
        assert lebesgue_volume(vertices, _tight_sets(vertices, geq)) == oracle


def _box_inequalities(dim):
    """The unit cube [0,1]^dim as A x <= b."""
    ineqs = []
    for j in range(dim):
        e = [Fraction(0)] * dim
        e[j] = Fraction(1)
        ineqs += [(e, Fraction(1)), ([-x for x in e], Fraction(0))]
    return ineqs


@pytest.mark.parametrize("name, dim, vertices, ineqs, volume", [
    ("cube", 3, list(product((0, 1), repeat=3)), _box_inequalities(3), 1),
    ("4-cube", 4, list(product((0, 1), repeat=4)), _box_inequalities(4), 1),
    # triangle x, y >= 0, x + y <= 1 times 0 <= z <= 2
    ("prism", 3, [(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 2)],
     [([-1, 0, 0], 0), ([0, -1, 0], 0), ([1, 1, 0], 1), ([0, 0, 1], 2), ([0, 0, -1], 0)],
     1),
    # unit square base in x = 0; the apex sorts first, so the recursion
    # starts there and must decompose the square
    ("pyramid", 3, [(Fraction(-1), Fraction(1, 2), Fraction(1, 2))]
     + [(0, y, z) for y in (0, 1) for z in (0, 1)],
     [([1, 0, 0], 0), ([-1, -2, 0], 0), ([-1, 2, 0], 2), ([-1, 0, -2], 0), ([-1, 0, 2], 2)],
     Fraction(1, 3)),
])
def test_lebesgue_volume_on_bodies_whose_facets_are_not_simplices(name, dim, vertices, ineqs, volume):
    """Square and cube facets make the facet recursion work below its top
    level; the volumes are exact and agree with the Lasserre oracle."""
    points = [tuple(Fraction(x) for x in p) for p in vertices]
    geq = [([-Fraction(x) for x in row], Fraction(b)) for row, b in ineqs]
    assert lasserre_volume(ineqs, dim) == volume
    assert lebesgue_volume(points, _tight_sets(points, geq)) == volume


@pytest.mark.parametrize("name, dim, vertices, geq", [
    # x, y in [0, 1], z = 0: four points, one flat simplex
    ("square-in-3d", 3, [(x, y, 0) for x in (0, 1) for y in (0, 1)],
     [([1, 0, 0], 0), ([-1, 0, 0], 1), ([0, 1, 0], 0), ([0, -1, 0], 1),
      ([0, 0, 1], 0), ([0, 0, -1], 0)]),
    # 0 <= x <= 2 on the line y = x
    ("collinear", 2, [(0, 0), (1, 1), (2, 2)],
     [([1, 0], 0), ([-1, 0], 2), ([1, -1], 0), ([-1, 1], 0)]),
    # the unit cube at x4 = 0: the facet recursion runs down to flat simplices
    ("cube-in-4d", 4, [p + (0,) for p in product((0, 1), repeat=3)],
     [([-x for x in row] + [0], b) for row, b in _box_inequalities(3)]
     + [([0, 0, 0, 1], 0), ([0, 0, 0, -1], 0)]),
])
def test_lebesgue_volume_is_zero_below_full_dimension(name, dim, vertices, geq):
    """Points spanning fewer than ``dim`` dimensions have volume 0: every
    simplex among them is flat."""
    points = [tuple(Fraction(x) for x in p) for p in vertices]
    geq = [([Fraction(x) for x in row], Fraction(b)) for row, b in geq]
    assert all(len(p) == dim for p in points)
    assert lebesgue_volume(points, _tight_sets(points, geq)) == 0


def test_leray_volumes_match_lasserre_on_dual_polytopes():
    """The Leray volume equals the Lasserre volume of the polytope in kernel
    coordinates L = L0 + K y times the density |det K_F| / |det A_C|, with C
    the pivot columns and F the others, on catalog duals and on every
    nonempty class of the (1,2) sweep, where d = 4."""
    keys = [(0, 3, (2, 2, 2)), (1, 1, (6,)), (0, 4, (3, 3, 3, 3)), (0, 4, (2, 2, 4, 4))]
    systems = [
        incidence_matrix(entry.dual)
        for genus, n0, q in keys
        for entry in enumerate_triangulations(genus, n0, q).entries
    ]
    sweep = _nonempty_systems([(1, 2, q) for q in feasible_q_vectors(1, 2)])
    assert sweep and all(system.n1 - system.n0 == 4 for system in sweep)
    for system in systems + sweep:
        basis, l0, pivots = kernel_basis_and_particular(system)
        d = len(basis)
        free = [i for i in range(system.n1) if i not in pivots]
        density = abs(det([[col[i] for col in basis] for i in free])) / abs(
            det([[row[c] for c in pivots] for row in system.a])
        )
        # L0 + K y >= 0 as (-K) y <= L0
        oracle_ineqs = [
            ([-basis[j][i] for j in range(d)], l0[i]) for i in range(system.n1)
        ]
        expected = density * lasserre_volume(oracle_ineqs, d)
        assert leray_volume(system).value == expected, system


def _assert_vertices_match_the_oracle(system):
    """The vertices are L0 + K y over the vertices y of the kernel polytope,
    in order, and each one's zero coordinates are the facets tight at y."""
    basis, l0, _ = kernel_basis_and_particular(system)
    expected = {}
    for y in kernel_vertices(basis, l0):
        vertex = tuple(l0[i] + sum(col[i] * x for col, x in zip(basis, y)) for i in range(system.n1))
        expected[vertex] = {i for i, x in enumerate(vertex) if x == 0}
    vertices = polytope_vertices(system)
    assert vertices == sorted(expected), system
    for vertex in vertices:
        assert {j for j, x in enumerate(vertex) if not x} == expected[vertex]


@pytest.mark.parametrize("keys", [
    PAIRING_KEYS, [(0, 5, (3, 3, 4, 4, 4))], [(1, 4, (6, 6, 6, 6))],
], ids=["pairing-keys", "0-5", "1-4"])
def test_basic_solutions_equal_the_kernel_vertex_oracle(keys):
    """On every nonempty class of the keys, the nonnegative basic solutions
    are L0 + K y over the vertices y of the kernel polytope, and each one's
    zero coordinates are the facets tight at its y."""
    for system in _nonempty_systems(keys):
        _assert_vertices_match_the_oracle(system)


@pytest.mark.parametrize("keys, count", [
    (PAIRING_KEYS, 54), ([(1, 4, (5, 5, 7, 7))], 396),
], ids=["pairing-keys", "1-4-5577"])
def test_vertices_equal_the_all_bases_oracle(keys, count):
    """On every nonempty class of the keys, the bases walked and solved in
    place give the all-bases oracle's sorted vertices and unit."""
    systems = _nonempty_systems(keys)
    assert len(systems) == count
    for system in systems:
        ends = edge_ends(zip(*system.a))
        expected = all_bases_vertices(ends, system.rhs, system.n0)
        assert _integer_vertices(ends, system.rhs, system.n0) == expected, system


def test_a_system_with_no_rows_has_the_empty_basis():
    """With no rows, the empty set of columns is the one basis, and its
    solution is the one vertex: the polytope is a point of volume 1."""
    assert list(_bases([], 0)) == [([], 0)]
    assert _integer_vertices([], (), 0) == ([()], 2)
    assert leray_volume(ConstraintSystem((), ())) == LerayVolume(Fraction(1), 0)


def test_vertices_and_bases_on_seeded_random_multigraphs():
    """Seeded random multigraphs on N0 <= 6 rows, with loops and parallel
    edges, and with rhs in halves and thirds, all 6 (as (6, 6, 6)), or A L
    for an L >= 0 with zeros, which makes them degenerate: the vertices and
    unit are the all-bases oracle's, None where A is rank deficient, and
    ``_bases`` walks exactly the N0-subsets of nonzero determinant, in
    lexicographic order, each with |det| 2**components."""
    rng = random.Random(33)
    seen = Counter()
    for _ in range(240):
        n0 = rng.randint(1, 6)
        ends = [(rng.randrange(n0), rng.randrange(n0)) for _ in range(rng.randint(n0, n0 + 3))]
        ends += [(v, v) for v in rng.sample(range(n0), rng.randint(0, min(n0, 2)))]
        rng.shuffle(ends)
        a = [[(u == i) + (v == i) for u, v in ends] for i in range(n0)]
        kind = rng.choice(["rational", "sixes", "degenerate"])
        if kind == "rational":
            rhs = tuple(Fraction(rng.randint(0, 12), rng.choice([1, 2, 3])) for _ in range(n0))
        elif kind == "sixes":
            rhs = (6,) * n0
        else:
            point = [rng.choice([0, 0, Fraction(1, 2), 1, 2]) for _ in ends]
            rhs = tuple(sum(x * p for x, p in zip(row, point)) for row in a)
        vertices, unit = _integer_vertices(ends, rhs, n0)
        assert (vertices, unit) == all_bases_vertices(ends, rhs, n0), (ends, rhs)
        bases = list(_bases(ends, n0))
        nonsingular = [
            list(subset) for subset in combinations(range(len(ends)), n0)
            if det([[row[j] for j in subset] for row in a])
        ]
        assert [basis for basis, _ in bases] == nonsingular, ends
        for basis, components in bases:
            assert abs(det([[row[j] for j in basis] for row in a])) == 2**components
        seen[kind, "rank deficient" if vertices is None else "empty" if not vertices else "vertices"] += 1
    assert {outcome for _, outcome in seen} == {"rank deficient", "empty", "vertices"}
    assert all(seen[kind, "vertices"] for kind in ("rational", "sixes", "degenerate")), seen


@st.composite
def multigraph_systems(draw):
    """A random multigraph on N0 <= 5 rows with N1 <= 9 edges, loops,
    parallel edges and several components allowed, as a constraint system.
    The rhs is either drawn in halves or is A L for a drawn L >= 0 with
    zeros, which makes the polytope nonempty and often degenerate."""
    n0 = draw(st.integers(1, 5))
    ends = draw(st.lists(st.tuples(st.integers(0, n0 - 1), st.integers(0, n0 - 1)),
                         min_size=1, max_size=9))
    a = tuple(tuple((u == i) + (v == i) for u, v in ends) for i in range(n0))
    if draw(st.booleans()):
        point = draw(st.lists(st.sampled_from([0, 0, Fraction(1, 2), 1, 2]),
                              min_size=len(ends), max_size=len(ends)))
        rhs = tuple(sum(x * p for x, p in zip(row, point)) for row in a)
    else:
        rhs = tuple(draw(st.lists(st.integers(0, 12).map(lambda k: Fraction(k, 2)),
                                  min_size=n0, max_size=n0)))
    return ConstraintSystem(a, rhs)


# an edge and a loop at each end, rhs (2, 2): the vertex (2, 0, 0) solves
# the bases {edge, either loop}
@example(ConstraintSystem(((1, 2, 0), (1, 0, 2)), (2, 2)))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(system=multigraph_systems())
def test_basic_solutions_on_random_multigraphs(system):
    """With full row rank the vertices are the kernel oracle's, with the
    same tight facets, the first basis is the oracle's pivot columns, and
    every basis B has |det A_B| = 2**components; without it there are no
    vertices and no Leray volume."""
    a = [list(row) for row in system.a]
    if matrix_rank(a) == system.n0:
        _assert_vertices_match_the_oracle(system)
        bases = list(_bases(edge_ends(zip(*a)), system.n0))
        assert bases[0][0] == kernel_and_particular(a, system.rhs)[2]
        for basis, components in bases:
            assert abs(det([[row[j] for j in basis] for row in a])) == 2**components
    else:
        assert polytope_vertices(system) == []
        with pytest.raises(RankDeficientError):
            leray_volume(system)


# an edge and a loop at each end, rhs (1, 1): the loops force equal
# lengths, so the facet where the edge has length 0 lies on both loops'
# hyperplanes and must count once, for a volume of 1/4
@example(ConstraintSystem(((1, 2, 0), (1, 0, 2)), (1, 1)))
@settings(derandomize=True, deadline=None, max_examples=300)
@given(system=multigraph_systems())
def test_leray_volume_equals_the_triangulated_volume(system):
    """On full-rank random multigraphs, degenerate ones included, the face
    recursion gives the volume of a triangulation of the vertices projected
    off a basis, with the edge order and the apexes as they come and as
    three seeds re-choose them."""
    assume(matrix_rank([list(row) for row in system.a]) == system.n0)
    expected = triangulated_leray_volume(system)
    assert leray_volume(system).value == expected
    for seed in range(3):
        assert leray_volume(system, random.Random(seed)).value == expected


@pytest.mark.parametrize("column", [(1, 1, 1), (2, -1, 1), (1, 0, 0), (0, 0, 0)])
def test_vertices_need_columns_of_a_multigraph(column):
    """A column that does not sum to 2 over nonnegative entries is no edge."""
    system = ConstraintSystem(tuple(zip((1, 1, 0), (0, 1, 1), column)), (1, 1, 1))
    with pytest.raises(ValueError, match="does not sum to 2"):
        polytope_vertices(system)


def test_reference_leray_volumes(theta_sphere, one_vertex_torus):
    from dtregge.ribbon import dualize

    theta = leray_volume(incidence_matrix(dualize(theta_sphere)))
    assert (theta.value, theta.dimension) == (Fraction(1, 2), 0)
    torus = leray_volume(incidence_matrix(dualize(one_vertex_torus)))
    assert (torus.value, torus.dimension) == (Fraction(9, 4), 2)
    k4 = enumerate_triangulations(0, 4, (3, 3, 3, 3)).entries[0]
    vol = leray_volume(incidence_matrix(k4.dual))
    assert (vol.value, vol.dimension) == (Fraction(9, 4), 2)


def _shuffled_pivot_det(system, seed):
    """|det A_C| for the pivot columns C of A with its columns in the order
    the seed first shuffles them into, as ``leray_volume(system,
    Random(seed))`` shuffles its edges."""
    order = list(range(system.n1))
    random.Random(seed).shuffle(order)
    a = [[row[j] for j in order] for row in system.a]
    pivots = kernel_and_particular(a, system.rhs)[2]
    return abs(det([[row[c] for c in pivots] for row in a]))


def test_leray_volume_invariant_under_randomized_choices(one_vertex_torus):
    """The 20 seeds re-choose the edge order and each face's apex.  On the
    torus every basis of A has |det| 2.  One class at (1,2,(5,7)) has bases
    of |det| 2 and 4, and ``linalg`` finds that the seeds' edge orders put
    one of each first; the face recursion divides by no first basis, so
    that reach no longer sees the volume path.  A path on six rows with a
    loop at row 0 and eight more copies of its first edge has few bases
    among its N0-subsets: every seed finds one."""
    from dtregge.ribbon import dualize

    ends = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 0)] + [(0, 1)] * 8
    path = ConstraintSystem(
        tuple(tuple((u == i) + (v == i) for u, v in ends) for i in range(6)), (4, 3, 2, 2, 2, 1)
    )
    assert leray_volume(path) == LerayVolume(Fraction(1, 315), 8)
    mixed = _nonempty_systems([(1, 2, (5, 7))])
    assert {_shuffled_pivot_det(system, seed) for system in mixed for seed in range(20)} == {2, 4}
    for system in [incidence_matrix(dualize(one_vertex_torus)), path] + mixed:
        reference = leray_volume(system).value
        for seed in range(20):
            assert leray_volume(system, random.Random(seed)).value == reference


def test_unbounded_and_rank_deficient_systems():
    with pytest.raises(UnboundedPolytopeError):
        leray_volume(ConstraintSystem(((1, 0),), (Fraction(1),)))
    doubled_edge = ConstraintSystem(((1, 1), (1, 1)), (Fraction(1), Fraction(1)))
    with pytest.raises(RankDeficientError):
        kernel_basis_and_particular(doubled_edge)
    with pytest.raises(RankDeficientError):
        leray_volume(doubled_edge)
