"""Exact Leray volumes of the isoperimetric constraint polytopes.

The Leray measure mu on P = {L >= 0, A L = rhs} is fixed by
mu ^ d(eta_1) ^ ... ^ d(eta_N0) = dL_1 ^ ... ^ dL_N1 with eta = A L.  The
volume is computed in the edge lengths L themselves.  Take N0 columns C at
which A is nonsingular and let F be the other d = N1 - N0 columns: on
{A L = rhs}, L_C = A_C^-1 (rhs - A_F L_F), so L -> L_F is one to one on P
and mu = dL_F / |det A_C|.  The vertices of P are its nonnegative basic
solutions, and a vertex's zero coordinates are its tight facets.  The
Lebesgue volume of the vertices projected onto F is exact, from a
facet-recursive simplicial decomposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, lcm

# perfbench's tracer wraps volume.det and volume.solve_square by these
# names, so the volume path calls them here rather than their linalg cores.
from .linalg import (
    clear_denominators,
    det,
    integer_det,
    kernel_and_particular,
    matrix_rank,
    solve_square,
)
from .measure import ConstraintSystem


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
    """Integer kernel basis columns K, particular solution L0, pivot columns."""
    basis, l0, pivots = kernel_and_particular(system.a, system.rhs)
    if len(pivots) != system.n0:
        raise RankDeficientError("incidence matrix is rank deficient")
    return [[Fraction(x) for x in column] for column in basis], l0, pivots


# ---------------------------------------------------------------------------
# vertex enumeration and exact Lebesgue volume


def polytope_vertices(system: ConstraintSystem):
    """Vertices of {L >= 0, A L = rhs}: its nonnegative basic solutions.

    Every N0-subset B of the columns is solved on integers, A_B x = s rhs
    with s the least common denominator of rhs.  A solution num / D is the
    vertex L_B = num / (s D), zero off B, when sign(D) num >= 0; only those
    become Fractions.  A degenerate vertex solves several subsets and is
    kept once.
    """
    rhs, scale = clear_denominators(list(system.rhs))
    vertices = set()
    for subset in combinations(range(system.n1), system.n0):
        solution = solve_square(
            [[row[j] for j in subset] for row in system.a], rhs, fraction_free=True
        )
        if solution is None:
            continue
        den, num = solution
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(x >= 0 for x in num):
            vertex = [Fraction(0)] * system.n1
            for j, x in zip(subset, num):
                vertex[j] = Fraction(x, den * scale)
            vertices.add(tuple(vertex))
    return sorted(vertices)


def _affine_rank(points) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return matrix_rank(rows) if rows else 0


def _triangulate(points, incidence, dim):
    """Simplices decomposing the convex hull of ``points``.

    ``incidence`` maps each point to the set of facets tight at it.  The
    faces of the polytope are the sets of its points tight at some facets,
    so the facets of every level of the recursion are the inclusion-maximal
    proper sets of its points tight at one facet.  ``points`` must be the
    vertices of a polytope that affinely spans ``dim`` dimensions.
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
    """Exact Lebesgue volume of the hull of full-dimensional points.

    ``tight_sets[i]`` holds the facets tight at ``points[i]``.  The
    decomposition runs on integers: the points are scaled to a common
    denominator s, so a simplex determinant is s^dim times the true one.
    """
    if not points:
        return Fraction(0)
    dim = len(points[0])
    if dim == 0:
        return Fraction(1)
    scale = lcm(*(x.denominator for point in points for x in point))
    scaled = [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]
    if _affine_rank(scaled) < dim:
        return Fraction(0)
    total = 0
    for simplex in _triangulate(scaled, dict(zip(scaled, tight_sets)), dim):
        base = simplex[0]
        total += abs(integer_det([[x - b for x, b in zip(p, base)] for p in simplex[1:]]))
    return Fraction(total, factorial(dim) * scale**dim)


# ---------------------------------------------------------------------------
# Leray volume


def leray_volume(system: ConstraintSystem, rng: random.Random | None = None) -> LerayVolume:
    """Exact Leray volume of {L >= 0, A L = rhs}: the Lebesgue volume of the
    vertices projected onto the columns F off the pivot columns C, divided
    by |det A_C|.

    ``rng``, when given, re-randomizes the edge order, the columns C and a
    unimodular map of the coordinates L_F; the result is invariant under
    all three choices.
    """
    a = [list(row) for row in system.a]
    n0, n1 = system.n0, system.n1
    if any(sum(col) <= 0 for col in zip(*a)):
        raise UnboundedPolytopeError("a zero column makes the polytope unbounded")

    if rng is not None:
        order = list(range(n1))
        rng.shuffle(order)
        a = [[row[j] for j in order] for row in a]
    permuted = ConstraintSystem(tuple(tuple(row) for row in a), tuple(system.rhs))

    complement = kernel_basis_and_particular(permuted)[2]
    if rng is not None:
        complement = _random_complement(a, n1, n0, rng)
    free = [j for j in range(n1) if j not in complement]

    vertices = polytope_vertices(permuted)
    if not vertices:
        return LerayVolume(Fraction(0), len(free))
    coordinates = [[vertex[f] for vertex in vertices] for f in free]
    if rng is not None:
        coordinates = _unimodular_mix(coordinates, rng)
    points = [tuple(c[i] for c in coordinates) for i in range(len(vertices))]
    tight_sets = [frozenset(j for j, x in enumerate(vertex) if not x) for vertex in vertices]
    scale = abs(det([[row[c] for c in complement] for row in a]))
    return LerayVolume(lebesgue_volume(points, tight_sets) / scale, len(free))


def _unimodular_mix(vectors, rng: random.Random):
    vectors = [list(v) for v in vectors]
    d = len(vectors)
    for _ in range(3 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        coeff = rng.choice((-2, -1, 1, 2))
        vectors[i] = [x + coeff * y for x, y in zip(vectors[i], vectors[j])]
    if rng.random() < 0.5 and d > 1:
        i, j = rng.sample(range(d), 2)
        vectors[i], vectors[j] = vectors[j], vectors[i]
    return vectors


def _random_complement(a, n1, n0, rng: random.Random):
    cols = list(range(n1))
    for _ in range(200):
        rng.shuffle(cols)
        candidate = sorted(cols[:n0])
        if det([[a[r][c] for c in candidate] for r in range(n0)]) != 0:
            return candidate
    raise RankDeficientError("could not find a nonsingular complement")
