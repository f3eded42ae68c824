"""Exact Leray volumes of the isoperimetric constraint polytopes.

The Leray measure mu on {L >= 0, A L = rhs} is fixed by
mu ^ d(eta_1) ^ ... ^ d(eta_N0) = dL_1 ^ ... ^ dL_N1.  In kernel
coordinates L = L0 + K y the mu-density relative to Lebesgue dy is
|det[K | W]| / |det(A W)| for any complement W of unit columns, and
|det[K | W]| is the d x d minor of K off that complement.  The Lebesgue
factor is an exact rational polytope volume computed by vertex enumeration
and a facet-recursive simplicial decomposition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, lcm

# det, rref, solve_square and matrix_rank are re-exported as part of this
# module's interface.
from .linalg import (
    clear_denominators,
    det,
    integer_det,
    kernel_and_particular,
    matrix_rank,
    rref,
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
# vertex enumeration and exact Lebesgue volume in kernel coordinates


def polytope_vertices(basis, l0):
    """Vertices of {y : L0 + K y >= 0}, K given as a list of columns.

    Every d-subset of the facets is solved on integers: with row i of
    [K | L0] cleared to (k_i, c_i), a solution num / D of the subset is
    feasible when sign(D) (k_i . num + D c_i) >= 0 for every i, and only
    the feasible ones become Fractions.
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
        solution = solve_square(
            [row[:d] for row in subset], [-row[d] for row in subset], fraction_free=True
        )
        if solution is None:
            continue
        den, num = solution
        if den < 0:
            den, num = -den, [-x for x in num]
        if all(sum(k * x for k, x in zip(row, num)) + row[d] * den >= 0 for row in rows):
            common = gcd(den, *num)
            vertices.add((den // common,) + tuple(x // common for x in num))
    return sorted(tuple(Fraction(x, den) for x in num) for den, *num in vertices)


def _affine_rank(points) -> int:
    if not points:
        return -1
    base = points[0]
    rows = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    return matrix_rank(rows) if rows else 0


def _triangulate(points, incidence, dim):
    """Simplices decomposing the convex hull of ``points``.

    ``incidence`` maps each point to the set of inequalities tight at it.
    The faces of the polytope are the sets of its points tight at some
    inequalities, so the facets of every level of the recursion are the
    inclusion-maximal proper sets of its points tight at one inequality.
    ``points`` must be the vertices of a polytope that affinely spans
    ``dim`` dimensions.
    """
    points = sorted(points)
    if dim == 0:
        return [tuple(points[:1])]
    if len(points) == dim + 1:
        return [tuple(points)]
    apex = points[0]
    tight: dict[int, set] = {}  # inequality -> its tight points
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


def lebesgue_volume(points, inequalities) -> Fraction:
    """Exact Lebesgue volume of the hull of full-dimensional points.

    The decomposition runs on integers: the points are scaled to a common
    denominator s and each inequality is cleared of its denominators, so a
    simplex determinant is s^dim times the true one.  Each point's tight
    inequalities are found once, on the scaled points.
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
    cleared = []
    for row, offset in inequalities:
        integers = clear_denominators(list(row) + [offset])[0]
        cleared.append((integers[:dim], integers[dim] * scale))
    incidence = {
        p: frozenset(
            i for i, (row, offset) in enumerate(cleared)
            if sum(r * x for r, x in zip(row, p)) + offset == 0
        )
        for p in scaled
    }
    total = 0
    for simplex in _triangulate(scaled, incidence, dim):
        base = simplex[0]
        total += abs(integer_det([[x - b for x, b in zip(p, base)] for p in simplex[1:]]))
    return Fraction(total, factorial(dim) * scale**dim)


# ---------------------------------------------------------------------------
# Leray volume


def leray_volume(system: ConstraintSystem, rng: random.Random | None = None) -> LerayVolume:
    """Exact Leray volume of {L >= 0, A L = rhs}.

    ``rng``, when given, re-randomizes the kernel basis (unimodular mix),
    the pivot complement and the edge ordering; the result is invariant
    under all three choices.
    """
    a = [list(row) for row in system.a]
    rhs = list(system.rhs)
    n0, n1 = system.n0, system.n1
    if any(sum(col) <= 0 for col in zip(*a)):
        raise UnboundedPolytopeError("a zero column makes the polytope unbounded")

    order = list(range(n1))
    if rng is not None:
        rng.shuffle(order)
        a = [[row[j] for j in order] for row in a]
    permuted = ConstraintSystem(tuple(tuple(row) for row in a), tuple(rhs))

    basis, l0, pivots = kernel_basis_and_particular(permuted)
    d = len(basis)

    if rng is not None and d > 0:
        basis = _unimodular_mix(basis, rng)
    complement = list(pivots)
    if rng is not None:
        complement = _random_complement(a, n1, n0, rng)

    # mu-density relative to Lebesgue measure in kernel coordinates; the
    # unit columns of W reduce det[K | W] to the rows of K off the complement
    free = [i for i in range(n1) if i not in complement]
    density_num = abs(det([[col[i] for col in basis] for i in free]))
    density_den = abs(det([[a[r][c] for c in complement] for r in range(n0)]))
    if density_den == 0:
        raise RankDeficientError("chosen complement is singular")
    density = density_num / density_den

    vertices = polytope_vertices(basis, l0)
    if not vertices:
        return LerayVolume(Fraction(0), d)
    rows = [[basis[j][i] for j in range(d)] for i in range(n1)]
    inequalities = [(rows[i], l0[i]) for i in range(n1)]
    return LerayVolume(density * lebesgue_volume(vertices, inequalities), d)


def _unimodular_mix(basis, rng: random.Random):
    cols = [list(c) for c in basis]
    d = len(cols)
    for _ in range(3 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            continue
        coeff = rng.choice((-2, -1, 1, 2))
        cols[i] = [x + coeff * y for x, y in zip(cols[i], cols[j])]
    if rng.random() < 0.5 and d > 1:
        i, j = rng.sample(range(d), 2)
        cols[i], cols[j] = cols[j], cols[i]
    return cols


def _random_complement(a, n1, n0, rng: random.Random):
    cols = list(range(n1))
    for _ in range(200):
        rng.shuffle(cols)
        candidate = sorted(cols[:n0])
        if det([[a[r][c] for c in candidate] for r in range(n0)]) != 0:
            return candidate
    raise RankDeficientError("could not find a nonsingular complement")
