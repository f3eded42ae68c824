from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from dtregge import catalog
from dtregge.linalg import clear_denominators, solve_square
from dtregge.measure import edge_ends
from dtregge.triangulation import build_triangulation
from dtregge.volume import _bases, lebesgue_volume, polytope_vertices

#: The keys of the benchmark's pairing workload: every labelled q at (0,4)
#: and (1,2), the anchors, and (1,3,(6,6,6)).
PAIRING_KEYS = [
    *((0, 4, q) for q in catalog.feasible_q_vectors(0, 4)),
    *((1, 2, q) for q in catalog.feasible_q_vectors(1, 2)),
    (0, 3, (2, 2, 2)),
    (1, 1, (6,)),
    (1, 3, (6, 6, 6)),
]


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DTREGGE_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def fresh_gluing_caches(monkeypatch):
    """Empty caches for the gluing search and the classes and cells that
    read it, so a test sees nothing an earlier test cached; the shared
    caches, still full, come back after the test."""
    for name in ("enumerate_gluings", "_classes", "_cells"):
        uncached = getattr(catalog, name).__wrapped__
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(uncached))


@pytest.fixture
def theta_sphere():
    """Two triangles glued along their full boundary: genus 0, q = (2,2,2)."""
    return build_triangulation(
        3,
        [(1, 2, 3), (2, 1, 3)],
        [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))],
    )


@pytest.fixture
def one_vertex_torus():
    """Two triangles forming the square torus: genus 1, q = (6,)."""
    return build_triangulation(
        1,
        [(1, 1, 1), (1, 1, 1)],
        [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
    )


def bipyramid(k: int):
    """The sphere as two cones over a k-gon: 2k faces, 3 * 2k darts.

    Equator vertices are 1..k and the apexes k+1 (faces 0..k-1) and k+2
    (faces k..2k-1); faces i and k+i share the equator edge from i+1.
    """
    top, bottom = k + 1, k + 2
    faces = [(i + 1, (i + 1) % k + 1, top) for i in range(k)]
    faces += [((i + 1) % k + 1, i + 1, bottom) for i in range(k)]
    gluing = []
    for i in range(k):
        j = (i + 1) % k
        gluing += [((i, 0), (k + i, 0)), ((i, 1), (j, 2)), ((k + i, 2), (k + j, 1))]
    return build_triangulation(k + 2, faces, gluing)


def union_find_corner_classes(faces, gluing) -> list[frozenset]:
    """Corner classes by union-find over the gluing: an oracle for the
    orbit computation of ``triangulation.corner_classes``.

    Slot (f, i) runs from corner i to corner i+1; its partner runs the same
    edge backwards, so the source corner of one meets the target corner of
    the other.  Classes come in the order of their least corner.
    """
    n2 = len(faces)
    parent = {(f, c): (f, c) for f in range(n2) for c in range(3)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for s, t in gluing:
        union((s[0], s[1]), (t[0], (t[1] + 1) % 3))
        union((s[0], (s[1] + 1) % 3), (t[0], t[1]))

    groups: dict[tuple[int, int], set] = {}
    for corner in parent:
        groups.setdefault(find(corner), set()).add(corner)
    return [frozenset(g) for g in groups.values()]


def search_matchings(n2: int) -> tuple[tuple[int, ...], ...]:
    """The connected slot matchings of n2 faces as partner arrays, in the
    order of the gluing search: an oracle for ``catalog.enumerate_gluings``,
    which finds the same matchings one (genus, N0) at a time and classifies
    them while it glues.

    The lowest unmatched slot is glued to each unmatched slot above it on a
    used face, then to slot 0 of the lowest unused face; the used faces are
    found by rescanning, and nothing else is tracked.
    """
    n = 3 * n2
    partner = [-1] * n
    used = [False] * n2
    used[0] = True
    found = []

    def rec(matched: int):
        if matched == n:
            found.append(tuple(partner))
            return
        s = next(i for i in range(n) if partner[i] == -1)
        if not used[s // 3]:
            return  # the faces before s//3 closed up: disconnected
        new_face = next((f for f in range(n2) if not used[f]), None)
        candidates = [
            t for t in range(s + 1, n) if partner[t] == -1 and used[t // 3]
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
    return tuple(found)


def _pivot(tableau, basis, i, j):
    """Make column j basic in row i of the tableau, in place."""
    pivot = tableau[i][j]
    tableau[i] = [x / pivot for x in tableau[i]]
    for k, row in enumerate(tableau):
        if k != i and row[j]:
            factor = row[j]
            tableau[k] = [x - factor * y for x, y in zip(row, tableau[i])]
    basis[i] = j


def _bland_simplex(tableau, basis, cost, columns):
    """Primal simplex with Bland's rule, maximizing ``cost`` with the entering
    column taken from ``columns``: the least index of positive reduced cost
    enters, and among the rows of least ratio the least basic index leaves."""
    while True:
        entering = next((
            j for j in columns
            if cost[j] > sum(cost[b] * row[j] for b, row in zip(basis, tableau))
        ), None)
        if entering is None:
            return
        rows = [i for i, row in enumerate(tableau) if row[entering] > 0]
        if not rows:
            raise ValueError("unbounded")
        leaving = min(rows, key=lambda i: (tableau[i][-1] / tableau[i][entering], basis[i]))
        _pivot(tableau, basis, leaving, entering)


def lp_maximum(a, b, cost):
    """max cost . x over {a x = b, x >= 0}, or None when that set is empty: an
    exact two-phase simplex on Fractions with Bland's rule.

    Phase 1 minimizes the sum of one artificial variable per row.  Any
    artificial still basic at level zero is then pivoted out on a nonzero
    entry of its row, or its row, redundant, is dropped; left in, phase 2
    could pivot it above zero and answer for a relaxed system.
    """
    m, n = len(a), len(a[0])
    tableau = [
        [Fraction(x if bi >= 0 else -x) for x in row]
        + [Fraction(int(k == i)) for k in range(m)]
        + [Fraction(abs(bi))]
        for i, (row, bi) in enumerate(zip(a, b))
    ]
    basis = list(range(n, n + m))
    _bland_simplex(tableau, basis, [0] * n + [-1] * m, range(n + m))
    if any(row[-1] for j, row in zip(basis, tableau) if j >= n):
        return None
    for i in reversed(range(m)):
        if basis[i] >= n:
            j = next((j for j in range(n) if tableau[i][j]), None)
            if j is None:
                del tableau[i], basis[i]
            else:
                _pivot(tableau, basis, i, j)
    tableau = [row[:n] + row[-1:] for row in tableau]
    _bland_simplex(tableau, basis, cost, range(n))
    return sum(cost[j] * row[-1] for j, row in zip(basis, tableau))


def has_positive_solution(a, rhs) -> bool:
    """Whether some L > 0 solves a L = rhs, by LP: the largest t in [0, 1]
    with L = s + t (1, ..., 1) and s >= 0 is positive."""
    n1 = len(a[0])
    rows = [[*row, sum(row), 0] for row in a] + [[0] * n1 + [1, 1]]
    best = lp_maximum(rows, [*rhs, 1], [0] * n1 + [1, 0])
    return best is not None and best > 0


def kernel_vertices(basis, l0):
    """Vertices of {y : L0 + K y >= 0}, K given as a list of columns: an
    oracle for ``volume.polytope_vertices``, which reads the basic solutions
    of A L = q in the edge lengths off the boundary multigraph instead.

    Every d-subset of the facets is solved exactly; with row i of [K | L0]
    cleared to (k_i, c_i), a solution y of the subset is a vertex when
    k_i . y + c_i >= 0 for every i.
    """
    d = len(basis)
    n1 = len(l0)
    if d == 0:
        return [()] if all(x >= 0 for x in l0) else []
    rows = [
        clear_denominators([basis[j][i] for j in range(d)] + [l0[i]])[0]
        for i in range(n1)
    ]
    vertices = set()
    for subset in combinations(rows, d):
        solution = solve_square([row[:d] for row in subset], [-row[d] for row in subset])
        if solution is None:
            continue
        if all(sum(k * x for k, x in zip(row, solution)) + row[d] >= 0 for row in rows):
            vertices.add(tuple(solution))
    return sorted(vertices)


def triangulated_leray_volume(system) -> Fraction:
    """The Leray volume of a full-rank system by a triangulation: an oracle
    for ``volume.leray_volume``, which sums over faces instead.

    With C the first basis of A and F the other columns, L -> L_F is one to
    one on {A L = rhs} and the Leray measure is dL_F / |det A_C|, with
    |det A_C| = 2**components.  The vertices projected onto F, each with its
    zero coordinates as its tight facets, go to ``lebesgue_volume``.
    """
    basis, components = next(_bases(edge_ends(zip(*system.a)), system.n0))
    free = [j for j in range(system.n1) if j not in basis]
    vertices = polytope_vertices(system)
    points = [tuple(vertex[j] for j in free) for vertex in vertices]
    tight_sets = [frozenset(j for j, x in enumerate(vertex) if not x) for vertex in vertices]
    return lebesgue_volume(points, tight_sets) / 2**components
