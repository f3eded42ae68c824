"""The total deformation 2-form, the Kontsevich wedge identity, and the
isoperimetric constraint system of a trivalent labelled ribbon graph.

All quantities are exact: the 2-form is an integer skew matrix over global
edge indices, the constraint system is an integer incidence matrix with the
curvature assignments on the right-hand side (unit convention
u = sqrt(3)/3 * a = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .geometry import dual_edge_row
from .ribbon import RibbonGraph


class DimensionError(ValueError):
    pass


@dataclass(frozen=True)
class SkewForm:
    """Integer skew matrix of the total 2-form over global edge indices."""

    matrix: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.matrix)

    def __post_init__(self):
        n = len(self.matrix)
        for i in range(n):
            for j in range(n):
                if self.matrix[i][j] != -self.matrix[j][i]:
                    raise ValueError("2-form matrix must be skew")


@dataclass(frozen=True)
class ConstraintSystem:
    """Polygon-edge incidence with fixed perimeters: {L >= 0, A L = rhs}."""

    a: tuple[tuple[int, ...], ...]   # N0 x N1, side multiplicities
    rhs: tuple[int | Fraction, ...]  # exact q(k) in units u = 1

    @property
    def n0(self) -> int:
        return len(self.a)

    @property
    def n1(self) -> int:
        return len(self.a[0]) if self.a else 0


def edge_ends(columns) -> list[tuple[int, int]]:
    """The columns of a constraint system as edges of its boundary multigraph.

    Each column must sum to 2 over nonnegative entries: it is an edge
    between the two rows where it holds a 1, or a loop (i, i) at the row i
    where it holds a 2.
    """
    ends = []
    for column in columns:
        rows = [i for i, x in enumerate(column) for _ in range(x)]
        if sum(column) != 2 or len(rows) != 2:
            raise ValueError(f"column {column} does not sum to 2 over nonnegative entries")
        ends.append((rows[0], rows[1]))
    return ends


def constraint_system(graph: RibbonGraph, perimeters) -> ConstraintSystem:
    """Incidence rows in boundary-label order, with prescribed perimeters.

    ``perimeters`` maps each boundary label to its fixed perimeter in units
    u = 1.  Row k counts the sides of the k-th word of ``boundary_edge_words``
    on each edge.
    """
    rows = []
    for word in boundary_edge_words(graph):
        row = [0] * graph.edge_count
        for j in word:
            row[j] += 1
        rows.append(tuple(row))
    rhs = tuple(Fraction(perimeters[label]) for label in sorted(graph.boundary_labels))
    return ConstraintSystem(tuple(rows), rhs)


def incidence_matrix(graph: RibbonGraph) -> ConstraintSystem:
    """A[k][j] = number of sides of boundary k lying on edge j; the
    perimeter of boundary k is its side count q(k)."""
    side_counts = {
        graph.boundary_labels[i]: len(cycle)
        for i, cycle in enumerate(graph.boundary_cycles)
    }
    return constraint_system(graph, side_counts)


def boundary_edge_words(graph: RibbonGraph) -> list[tuple[int, ...]]:
    """Per-boundary sequence of global edge indices, in label order.

    Each word follows the boundary cycle from its least dart, per the
    face-permutation convention.
    """
    order = sorted(
        range(len(graph.boundary_cycles)), key=lambda i: graph.boundary_labels[i]
    )
    return [
        tuple(graph.dart_edge[d] for d in graph.boundary_cycles[i]) for i in order
    ]


def total_form(graph: RibbonGraph) -> SkewForm:
    """Total 2-form Omega pushed from boundary sides to edge coordinates.

    For each boundary, every side pair a < b among its first q-1 sides adds
    +/-1 at the underlying global edge pair; the perimeter-squared
    normalization cancels against the polygon form's prefactor, so the net
    coefficient per pair is 1.
    """
    n1 = graph.edge_count
    b = [[0] * n1 for _ in range(n1)]
    for word in boundary_edge_words(graph):
        sides = word[:-1]
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                ei, ej = sides[i], sides[j]
                if ei == ej:
                    continue
                b[ei][ej] += 1
                b[ej][ei] -= 1
    return SkewForm(tuple(tuple(row) for row in b))


def pfaffian(matrix) -> object:
    """Pfaffian of a skew matrix over int or Fraction (``linalg.pfaffian``).

    Raises on odd dimension and on a matrix that is not skew.
    """
    n = len(matrix)
    if n % 2 != 0:
        raise DimensionError("Pfaffian requires even dimension")
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError("matrix must be skew")
    return linalg.pfaffian(matrix)


def expected_kontsevich_constant(genus: int, n0: int) -> int:
    """2^(2 N0 + 5g - 5) * (3g - 3 + N0)!, the right side of the identity."""
    exponent = 2 * n0 + 5 * genus - 5
    dim = 3 * genus - 3 + n0
    if exponent < 0 or dim < 0:
        raise DimensionError(f"identity undefined for g={genus}, N0={n0}")
    return 2 ** exponent * math.factorial(dim)


def kontsevich_coefficient(graph: RibbonGraph) -> int:
    """Coefficient of dL_1 ^ ... ^ dL_N1 in prod_k d(eta_k) ^ Omega^D.

    The perimeter forms contribute det(A[:, S]) on each N0-subset S of the
    edges, and Omega^D / D! the Pfaffian of Omega on the complement; the
    shuffle-signed sum of these products over S is the Laplace expansion of
    the bordered Pfaffian Pf([[0, A], [-A^T, Omega]]) up to the sign
    (-1)^(N0(N0-1)/2).  The final D! restores the plain wedge power.
    """
    system = incidence_matrix(graph)
    form = total_form(graph)
    n0, n1 = system.n0, system.n1
    d = 3 * graph.genus() - 3 + n0
    if 2 * d + n0 != n1:
        raise DimensionError(
            f"dimension mismatch: 2D + N0 = {2 * d + n0} but N1 = {n1}"
        )
    bordered = [[0] * n0 + list(row) for row in system.a]
    bordered += [[-row[j] for row in system.a] + list(form.matrix[j]) for j in range(n1)]
    sign = -1 if n0 * (n0 - 1) // 2 % 2 else 1
    return sign * math.factorial(d) * linalg.pfaffian(bordered)


def kontsevich_check(graph: RibbonGraph) -> tuple[bool, int, int]:
    """(pass, |coefficient|, expected constant) for the wedge identity."""
    coeff = kontsevich_coefficient(graph)
    expected = expected_kontsevich_constant(graph.genus(), len(graph.boundary_cycles))
    return abs(coeff) == expected, abs(coeff), expected


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
