from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial
from pathlib import Path

import pytest
from corner_linearization import dual_edge_row

from dtregge import catalog
from dtregge.catalog import Catalog, face_count
from dtregge.cache import atomic_write_json, catalog_path
from dtregge.intersection import TauQuery, intersection_number
from dtregge.linalg import clear_denominators, solve_square
from dtregge.measure import DimensionError, constraint_system, edge_ends
from dtregge.pairing import system_class
from dtregge.triangulation import (
    Triangulation,
    build_triangulation,
    curvature_assignments,
    deficit_angles,
)
from dtregge.volume import _bases, lebesgue_volume, polytope_vertices


def feasible_q_vectors(genus: int, n0: int):
    """All labelled q-vectors (each entry >= 2) with sum 3*N2 at this key."""
    n2 = face_count(genus, n0)
    total = 3 * n2

    def rec(remaining: int, parts: int):
        if parts == 1:
            if remaining >= 2:
                yield (remaining,)
            return
        for first in range(2, remaining - 2 * (parts - 1) + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    yield from rec(total, n0)


#: The keys of the benchmark's pairing workload: every labelled q at (0,4)
#: and (1,2), the anchors, and (1,3,(6,6,6)).
PAIRING_KEYS = [
    *((0, 4, q) for q in feasible_q_vectors(0, 4)),
    *((1, 2, q) for q in feasible_q_vectors(1, 2)),
    (0, 3, (2, 2, 2)),
    (1, 1, (6,)),
    (1, 3, (6, 6, 6)),
]


def system_classes(keys) -> set:
    """``system_class`` of the constraint system of every cell at each key,
    its rows built by ``measure.constraint_system``."""
    return {
        system_class(constraint_system(graph, dict(enumerate(map(Fraction, q), start=1))))
        for genus, n0, q in keys
        for graph in catalog.enumerate_ribbon_cells(genus, n0)
    }


def compositions(total: int, parts: int):
    """The tuples of ``parts`` nonnegative integers summing to ``total``, by
    stars and bars: the bars sit at ``parts - 1`` of ``total + parts - 1`` places.
    No parts sum only to 0."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for bars in combinations(range(total + parts - 1), parts - 1):
        cuts = (-1, *bars, total + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


@lru_cache(maxsize=None)
def _goulden_jackson(n: int, genus: int) -> Fraction:
    """T(n, g) = (3n + 2) t(n, g), by the recurrence of Goulden and Jackson,
    Adv. Math. 219 (2008):

    T(n, g) = 4 (3n + 2) / (n + 1) (n (3n - 2) T(n - 2, g - 1)
              + sum over i + j = n - 2 and h + k = g of T(i, h) T(j, k)),

    with i, j >= -1, T(-1, 0) = 1/2, and T = 0 at n < -1, at g < 0 and at
    (-1, g >= 1)."""
    if n < -1 or genus < 0 or n == -1 and genus > 0:
        return Fraction(0)
    if n == -1:
        return Fraction(1, 2)
    splits = sum(
        _goulden_jackson(i, h) * _goulden_jackson(n - 2 - i, genus - h)
        for i in range(-1, n) for h in range(genus + 1)
    )
    handle = n * (3 * n - 2) * _goulden_jackson(n - 2, genus - 1)
    return Fraction(4 * (3 * n + 2), n + 1) * (handle + splits)


def rooted_triangulations(n2: int, genus: int) -> int:
    """t(N2/2, g), the rooted triangulations of genus g with N2 faces, loops
    and multiple edges allowed: an oracle for the matchings that
    ``catalog.enumerate_gluings`` stores, one per rooting of each class,
    which shares no code with the search."""
    n = n2 // 2
    count = _goulden_jackson(n, genus) / (3 * n + 2)
    assert count.denominator == 1
    return int(count)


def term_by_term_F(genus: int, q) -> Fraction:
    """F_g(q) as a sum of Fractions, term by term, with one
    ``intersection_number`` per delta: an oracle for
    ``intersection.generating_F``, which sums integer coefficients cached per
    (g, N0) instead.  Past the stability test 2g - 2 + N0 > 0 it raises what
    ``TauQuery`` raises."""
    q = tuple(q)
    n0 = len(q)
    if 2 * genus - 2 + n0 <= 0:
        raise ValueError(f"no stable moduli space for g={genus}, N0={n0}")
    TauQuery(genus, ())  # GenusError at a negative genus
    total = Fraction(0)
    for delta in compositions(n0 + 3 * genus - 3, n0):
        value = intersection_number(TauQuery(genus, delta))
        weight = Fraction(1)
        for qi, di in zip(q, delta):
            weight *= Fraction(qi ** (2 * di), factorial(di))
        total += weight * value
    return total


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


def all_bases_vertices(ends, rhs, n0):
    """The vertices of {L >= 0, A L = rhs} and their unit, as
    ``volume._integer_vertices`` gives them, or None for the vertices of a
    rank-deficient system: an oracle that solves every basis from ``_bases``
    by lists of the basis edges at each row (``listed_basic_solution``),
    where ``_integer_vertices`` peels by degree counts and xors of edges."""
    rhs, scale = clear_denominators(list(rhs))
    solutions = {listed_basic_solution(ends, basis, rhs) for basis, _ in _bases(ends, n0)}
    return (sorted(solutions - {None}) if solutions else None), 2 * scale


def listed_basic_solution(ends, basis, rhs):
    """The basic solution of the basis columns, in units 1 / (2 s) where
    ``rhs`` is s times the true rhs, or None when an entry is negative.

    Leaves are peeled first: a leaf's one edge takes the leaf's residual
    rhs.  What is left of each component is its odd cycle v_0 e_0 v_1 ...
    v_{k-1} e_{k-1} v_0, on which the alternating sum of the residuals
    r_0 - r_1 + ... + r_{k-1} is twice the entry of e_{k-1}; going round
    gives the others.
    """
    residual = [2 * b for b in rhs]
    at = [[] for _ in residual]
    for j in basis:
        u, v = ends[j]
        at[u].append(j)
        at[v].append(j)
    x = [0] * len(ends)
    leaves = [v for v, edges in enumerate(at) if len(edges) == 1]
    while leaves:
        v = leaves.pop()
        (j,) = at[v]
        at[v] = []
        u = sum(ends[j]) - v
        x[j] = residual[v]
        if x[j] < 0:
            return None
        residual[u] -= x[j]
        at[u].remove(j)
        if len(at[u]) == 1:
            leaves.append(u)
    for start, edges in enumerate(at):
        if not edges:
            continue
        cycle, v, j = [], start, edges[0]
        while True:
            cycle.append((v, j))
            at[v] = []
            v = sum(ends[j]) - v
            if v == start:
                break
            j = next(e for e in at[v] if e != j)
        entry = sum(residual[w] * (-1) ** i for i, (w, _) in enumerate(cycle)) // 2
        for w, j in cycle:
            entry = x[j] = residual[w] - entry
            if entry < 0:
                return None
    return tuple(x)


def per_call_has_interior_point(rhs, columns) -> bool:
    """``pairing.has_interior_point`` with every row set's neighbours found
    afresh at each call: an oracle for the function, which finds the
    independent sets once per column tuple."""
    adjacent = [0] * len(rhs)
    for u, v in edge_ends(columns):
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    neighbours, weight = [0] * (1 << len(rhs)), [0] * (1 << len(rhs))
    for rows in range(1, 1 << len(rhs)):
        low = (rows & -rows).bit_length() - 1
        neighbours[rows] = neighbours[rows & (rows - 1)] | adjacent[low]
        weight[rows] = weight[rows & (rows - 1)] + rhs[low]
    for rows, near in enumerate(neighbours):
        if rows and not near & rows and (
            weight[rows] > weight[near]
            or weight[rows] == weight[near] and neighbours[near] & ~rows
        ):
            return False
    return True


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


# --- quantities that only the tests read --------------------------------


def pullback_to_triangulation(matrix, q: int) -> list[list[Fraction]]:
    """Pull a skew form in the dL_a coordinates of one q-gon back to the
    2q triangulation edge differentials around the dual vertex.

    Uses the per-corner linearization dL_a = (1/(3 sqrt 3)) sum c_j dl_j;
    the squared prefactor 1/27 is rational, so the result is exact.
    """
    n = len(matrix)
    if n > q:
        raise DimensionError("form has more side coordinates than the polygon")
    jac = [dual_edge_row(q, a) for a in range(n)]
    out = [[Fraction(0)] * (2 * q) for _ in range(2 * q)]
    scale = Fraction(1, 27)
    for i in range(n):
        for j in range(n):
            cij = matrix[i][j]
            if not cij:
                continue
            for u in range(2 * q):
                if not jac[i][u]:
                    continue
                for v in range(2 * q):
                    if jac[j][v]:
                        out[u][v] += scale * cij * jac[i][u] * jac[j][v]
    return out


@dataclass(frozen=True)
class CurvatureData:
    q: tuple[int, ...]
    deficits: tuple[Fraction, ...]          # coefficients of pi
    divisor_coeffs: tuple[Fraction, ...]
    degree: Fraction
    euler_number: Fraction


def divisor(t: Triangulation) -> CurvatureData:
    """Curvature data of the equilateral triangulation: q(k)/6 - 1 weights."""
    q = curvature_assignments(t)
    coeffs = tuple(Fraction(qk, 6) - 1 for qk in q)
    degree = sum(coeffs, Fraction(0))
    chi = 2 - 2 * t.genus
    return CurvatureData(
        q=q,
        deficits=deficit_angles(t),
        divisor_coeffs=coeffs,
        degree=degree,
        euler_number=chi + degree,
    )


def save_catalog(catalog: Catalog) -> Path:
    """Write a catalog to its key's cache file under DTREGGE_CACHE_DIR, and
    return the path."""
    path = catalog_path(catalog.genus, catalog.vertex_count, catalog.q)
    atomic_write_json(path, catalog.to_dict())
    return path
