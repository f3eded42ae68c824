"""Exact Leray volumes of the isoperimetric constraint polytopes.

The Leray measure mu on P = {L >= 0, A L = rhs} is fixed by
mu ^ d(eta_1) ^ ... ^ d(eta_N0) = dL_1 ^ ... ^ dL_N1 with eta = A L.  Each
column of A is an edge of the boundary multigraph, so the bases of A, their
determinants and their basic solutions are read off subgraphs, with no
linear algebra: one walk over the bases, which keeps its levels on a
stack, and each basis solved in place by peeling leaves off its subgraph.
The vertices of P are its nonnegative basic solutions.
The volume is the pyramid recursion over the faces of P, each a set S of
columns with the others at 0: a basis S has volume 1 / |det A_S|, and
otherwise vol(S) = sum_j v_j vol(S - j) / (|S| - N0) for a vertex v of S,
since mu_S = mu_{S - j} ^ dL_j on the facet L_j = 0.  It runs on the
integers W(S) = (|S| - N0)! 2^N0 vol(S), with W(S) = sum_j v_j W(S - j)
and 2^(N0 - components) at a basis, and divides once at the end.  This is
Dahmen-Micchelli's recurrence for the truncated power (De Concini-Procesi,
Topics in Hyperplane Arrangements, Polytopes and Box-Splines (2011)), and
it needs no coordinates, no triangulation and no determinant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

# perfbench's tracer wraps volume.det, volume.kernel_basis_and_particular,
# volume.polytope_vertices and volume.lebesgue_volume and counts
# volume.solve_square by these names.  leray_volume calls none of them: they
# stay here so that the tracer finds them, until the benchmark takes its
# counts from inside the package, and the tests' kernel coordinates, vertices
# and reference volumes come from the last three.
from .linalg import clear_denominators, det, integer_det, kernel_and_particular, solve_square
from .measure import ConstraintSystem, edge_ends


class VolumeError(ValueError):
    pass


class UnboundedPolytopeError(VolumeError):
    pass


class RankDeficientError(VolumeError):
    pass


@dataclass(frozen=True)
class LerayVolume:
    value: Fraction
    dimension: int  # N1 - N0; the volume carries units u^(N1-N0)


# ---------------------------------------------------------------------------
# kernel parametrization


def kernel_basis_and_particular(system: ConstraintSystem):
    """Kernel basis columns K (integral, as ``Fraction``s), particular
    solution L0 and pivot columns; raises ``RankDeficientError`` unless A
    has full row rank."""
    basis, l0, pivots = kernel_and_particular(system.a, system.rhs)
    if len(pivots) != system.n0:
        raise RankDeficientError("incidence matrix is rank deficient")
    return [[Fraction(x) for x in column] for column in basis], l0, pivots


# ---------------------------------------------------------------------------
# vertex enumeration and exact Lebesgue volume


def polytope_vertices(system: ConstraintSystem):
    """Vertices of {L >= 0, A L = rhs}, sorted (``_integer_vertices``); a
    rank-deficient system has none."""
    vertices, unit = _integer_vertices(edge_ends(zip(*system.a)), system.rhs, system.n0)
    return [tuple(Fraction(x, unit) for x in vertex) for vertex in vertices or ()]


def _integer_vertices(ends, rhs, n0):
    """The vertices of {L >= 0, A L = rhs}, A with the edges ``ends`` on n0
    rows, sorted and in integer units 1 / unit: the nonnegative basic
    solutions (``_basic_solution``) of the bases from ``_bases``, each kept
    once.  A has full row rank exactly when some basis exists; when none
    does, the vertices are None.
    """
    rhs, scale = clear_denominators(list(rhs))
    doubled = [2 * b for b in rhs]
    solutions = {_basic_solution(ends, basis, doubled) for basis, _ in _bases(ends, n0)}
    return (sorted(solutions - {None}) if solutions else None), 2 * scale


def _bases(ends, n0):
    """Every basis of the incidence matrix of the multigraph with edges
    ``ends`` on n0 rows, in lexicographic order, with the number of
    components of the subgraph it spans.

    N0 columns are a basis exactly when every component of that subgraph
    has one cycle, and that cycle is odd; a loop is an odd cycle.  Each
    such component has determinant +-2, so the basis has |det| 2**components.
    The bases are found by adding columns in increasing order, with each
    row's component and its parity along a spanning forest, and the
    components that hold a cycle as a bitmask: a column that closes an even
    cycle or a component's second cycle cuts the branch.  The walk keeps its
    levels on a stack, with no generator per level, and a level shares the
    parities of the level above unless a merge flips them.
    """
    n1 = len(ends)
    if not n0:  # no rows: the empty basis, which the walk below never reaches
        yield [], 0
        return
    basis = [0] * n0
    # per level: the next column to try, and the components, parities and
    # cyclic components the level starts from
    frames = [[0, list(range(n0)), [0] * n0, 0]]
    while frames:
        frame = frames[-1]
        depth, j = len(frames) - 1, frame[0]
        if j > n1 - n0 + depth:
            frames.pop()
            continue
        frame[0] = j + 1
        _, component, parity, cyclic = frame
        u, v = ends[j]
        cu, cv = component[u], component[v]
        if cu == cv:
            # the path u..v has even length exactly when the cycle is odd
            if cyclic >> cu & 1 or parity[u] != parity[v]:
                continue
            cyclic |= 1 << cu
        elif cyclic >> cu & cyclic >> cv & 1:
            continue
        elif cyclic >> cv & 1:
            cyclic ^= 1 << cv | 1 << cu
        basis[depth] = j
        if depth + 1 == n0:  # every component holds its one cycle
            yield basis[:], cyclic.bit_count()
            continue
        if cu != cv:
            # v's component joins u's, its parities flipped if u and v agree
            if parity[u] == parity[v]:
                parity = [p ^ (c == cv) for c, p in zip(component, parity)]
            component = [cu if c == cv else c for c in component]
        frames.append([j + 1, component, parity, cyclic])


def _basic_solution(ends, basis, doubled):
    """The basic solution of the basis columns, solved in place, in units
    1 / (2 s) where ``doubled`` is 2 s times the true rhs, or None at its
    first negative entry.

    Leaves are peeled first: a row of degree 1 in the basis is a leaf, the
    xor of the edges at it is its one edge, and that edge takes the leaf's
    residual rhs.  What is left of each component is its odd cycle v_0 e_0
    v_1 ... v_{k-1} e_{k-1} v_0, on which the alternating sum of the
    residuals r_0 - r_1 + ... + r_{k-1} is twice the entry of e_{k-1};
    going round gives the others (Schrijver, Combinatorial Optimization
    (2003), ch. 31).
    """
    n0 = len(doubled)
    residual, degree, link, x = doubled[:], [0] * n0, [0] * n0, [0] * len(ends)
    for j in basis:
        u, v = ends[j]
        degree[u] += 1
        degree[v] += 1
        if u != v:  # a loop is its component's cycle, never a leaf's edge
            link[u] ^= j
            link[v] ^= j
    leaves = [v for v in range(n0) if degree[v] == 1]
    for v in leaves:
        j = link[v]
        x[j] = entry = residual[v]
        if entry < 0:
            return None
        u = ends[j][0] + ends[j][1] - v
        degree[v] = 0
        degree[u] -= 1
        residual[u] -= entry
        link[u] ^= j
        if degree[u] == 1:
            leaves.append(u)
    for j in basis:  # an edge whose ends both keep degree 2 is on an unsolved cycle
        start, v = ends[j]
        if degree[start] != 2 or degree[v] != 2:
            continue
        cycle, alternating = [(start, j)], residual[start]
        while v != start:
            j = link[v] ^ j
            cycle.append((v, j))
            alternating = residual[v] - alternating
            v = ends[j][0] + ends[j][1] - v
        entry = alternating // 2
        for v, j in cycle:
            x[j] = entry = residual[v] - entry
            if entry < 0:
                return None
            degree[v] = 0
    return tuple(x)


def _triangulate(points, incidence, dim):
    """Simplices decomposing the convex hull of ``points``.

    ``incidence`` maps each point to the set of facets tight at it.  The
    faces of the polytope are the sets of its points tight at some facets,
    so the facets of every level of the recursion are the inclusion-maximal
    proper sets of its points tight at one facet.  ``points`` must be the
    vertices of a polytope of at most ``dim`` dimensions; below ``dim``,
    every simplex is flat.
    """
    points = sorted(points)
    if dim == 0:
        return [tuple(points[:1])]
    if len(points) == dim + 1:
        return [tuple(points)]
    apex = points[0]
    tight: dict[int, set] = {}  # facet -> its tight points
    for p in points:
        for i in incidence[p]:
            tight.setdefault(i, set()).add(p)
    proper = {frozenset(face) for face in tight.values() if len(face) < len(points)}
    simplices = []
    for facet in proper:
        if apex in facet or any(facet < other for other in proper):
            continue
        for simplex in _triangulate(facet, incidence, dim - 1):
            simplices.append(simplex + (apex,))
    return simplices


def lebesgue_volume(points, tight_sets) -> Fraction:
    """Exact Lebesgue volume of the hull of points.

    ``tight_sets[i]`` holds the facets tight at ``points[i]``.  The
    decomposition runs on integers: the points are scaled to a common
    denominator s, so a simplex determinant is s^dim times the true one.
    Points of lower dimension get 0, since every simplex among them is flat.
    """
    if not points:
        return Fraction(0)
    dim = len(points[0])
    if dim == 0:
        return Fraction(1)
    scale = lcm(*(x.denominator for point in points for x in point))
    scaled = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]
    total = 0
    for simplex in _triangulate(scaled, dict(zip(scaled, tight_sets)), dim):
        base = simplex[0]
        total += abs(integer_det([[x - b for x, b in zip(p, base)] for p in simplex[1:]]))
    return Fraction(total, factorial(dim) * scale**dim)


# ---------------------------------------------------------------------------
# Leray volume


def leray_volume(system: ConstraintSystem, rng: random.Random | None = None) -> LerayVolume:
    """Exact Leray volume of {L >= 0, A L = rhs}, by the pyramid recursion
    over faces S, each a tuple of columns with the vertices supported in S.

    The apex v of S is its first vertex.  The sum runs over the j with
    v_j > 0 whose facet L_j = 0 has vertices, one j per vertex set, as a
    facet on two coordinate hyperplanes counts once; every S - j reached
    then has full row rank.  The integers W(S) are memoized by S, in the
    vertices' unit, and one Fraction is built at the end.  ``rng``, when
    given, re-randomizes the edge order and each face's apex; the result is
    invariant under both.
    """
    if any(sum(col) <= 0 for col in zip(*system.a)):
        raise UnboundedPolytopeError("a zero column makes the polytope unbounded")
    ends = edge_ends(zip(*system.a))
    if rng is not None:
        rng.shuffle(ends)
    n0, dimension = system.n0, len(ends) - system.n0
    vertices, unit = _integer_vertices(ends, system.rhs, n0)
    if vertices is None:
        raise RankDeficientError("incidence matrix is rank deficient")
    if not vertices:
        return LerayVolume(Fraction(0), dimension)
    weights = {}

    def weight(face, vertices):
        if len(face) == n0:
            return 1 << n0 - next(_bases([ends[j] for j in face], n0))[1]
        if face not in weights:
            if rng is not None:
                vertices = rng.sample(vertices, len(vertices))
            apex = vertices[0]
            facets = {
                tuple(w for w in vertices if not w[j]): i for i, j in enumerate(face) if apex[j]
            }
            facets.pop((), None)
            weights[face] = sum(
                apex[face[i]] * weight(face[:i] + face[i + 1:], facet)
                for facet, i in facets.items()
            )
        return weights[face]

    value = weight(tuple(range(len(ends))), vertices)
    return LerayVolume(Fraction(value, factorial(dimension) * 2**n0 * unit**dimension), dimension)
