"""Duality pairing between triangulation catalogs and moduli-space
intersection theory.

The left side integrates the isoperimetric measure over the top cells of
the combinatorial moduli space at perimeters q: the duals of the catalog
triangulations plus the loop-bearing trivalent cells that no triangulation
produces.  Both kinds come from the one cell enumerator: the catalog duals
at q are the cells whose boundary labelled k has q_k sides.  The right side
is the intersection-number generating function F_g(q).  Both sides are
exact rationals computed through fully independent code paths, and they
agree for every admissible q; the catalog cells alone carry the whole sum
exactly when the loop cells have empty polytopes, which happens at the
classical anchor assignments.  Everything that ignores q is computed once
per process: the cells and their codes, the columns of each cell's system,
one ``class_volume`` per ``system_class`` and F_g's coefficients.  One
memo, ``cell_volume``, takes a cell and q to its volume, emptiness first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import lcm
from typing import NamedTuple

from .catalog import MAX_FACES, check_feasible, enumerate_ribbon_cells
from .intersection import generating_F
from .measure import ConstraintSystem, edge_ends
from .ribbon import RibbonGraph, canonical_code
from .volume import leray_volume


class CellContribution(NamedTuple):
    code: bytes
    sides: tuple[int, ...]       # side counts in boundary-label order
    volume: Fraction
    aut_order: int
    has_loop: bool
    from_catalog: bool           # dual of a catalog triangulation at this q

    def to_dict(self) -> dict:
        return {
            "code": self.code.hex(),
            "sides": list(self.sides),
            "volume": str(self.volume),
            "aut_boundary": self.aut_order,
            "has_loop": self.has_loop,
            "from_catalog": self.from_catalog,
        }


@dataclass(frozen=True)
class PairingReport:
    genus: int
    vertex_count: int
    q: tuple[int, ...]
    lhs: Fraction                # full cell sum, times 2^(2 N0 + 5g - 5)
    catalog_lhs: Fraction        # triangulation-dual part of the same sum
    rhs: Fraction                # F_g(q)
    equal: bool
    cardinality: int
    contributions: tuple[CellContribution, ...]

    @property
    def average_volume(self) -> Fraction | None:
        """Orbifold-weighted average cell volume, lhs / (2^(2 N0 + 5g - 5) Card).

        It satisfies Card * average = F_g(q) / 2^(2 N0 + 5g - 5) exactly when
        the pairing holds; it is None when the catalog is empty.
        """
        if self.cardinality == 0:
            return None
        return self.lhs / (pairing_constant(self.genus, self.vertex_count) * self.cardinality)

    def to_dict(self) -> dict:
        return {
            "key": {
                "genus": self.genus,
                "vertices": self.vertex_count,
                "q": list(self.q),
            },
            "lhs": str(self.lhs),
            "catalog_lhs": str(self.catalog_lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
            "cardinality": self.cardinality,
            "contributions": [c.to_dict() for c in self.contributions],
        }


def pairing_constant(genus: int, n0: int) -> int:
    return 2 ** (2 * n0 + 5 * genus - 5)


def system_class(system: ConstraintSystem) -> tuple:
    """Canonical form of (A, rhs) up to column permutations and up to every
    simultaneous permutation of rows and rhs: (sorted rhs, least sorted
    column tuple over the row orders that keep rhs sorted).

    Relabelling the edges or the boundaries of a system moves neither its
    polytope nor its Leray measure, so systems of one class have one
    volume, whichever key they come from.
    """
    groups: dict[int | Fraction, list[int]] = {}
    for i in sorted(range(system.n0), key=system.rhs.__getitem__):
        groups.setdefault(system.rhs[i], []).append(i)
    columns = min(
        tuple(sorted(zip(*(system.a[i] for rows in shuffles for i in rows))))
        for shuffles in product(*(permutations(rows) for rows in groups.values()))
    )
    return tuple(sorted(system.rhs)), columns


def has_interior_point(rhs, columns) -> bool:
    """Whether some L > 0 solves A L = rhs, where A has the given columns.

    The columns are the edges of a multigraph on the rows (``edge_ends``,
    which raises ValueError on a column that is not one).  On it
    such an L exists exactly when, for every independent set I of rows with
    neighbour set N(I), rhs(I) <= rhs(N(I)), and where the two are equal no
    edge joins N(I) to a row outside I (a loop at N(I) included).  Summing
    the rows of I and of N(I) shows that both are needed; the fractional
    perfect b-matching theorem with its tight sets (Schrijver, 2003, ch. 31)
    that they suffice.  It costs at most 2^N0 - 1 sets and no LP.
    """
    adjacent = [0] * len(rhs)
    for u, v in edge_ends(columns):
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    # neighbour set and rhs sum of every row set, each from the set less its lowest row
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


@lru_cache(maxsize=None)
def class_volume(key: tuple) -> Fraction:
    """Leray volume of the constraint systems of one ``system_class``,
    computed once per process from the class's own representative."""
    rhs, columns = key
    return leray_volume(ConstraintSystem(tuple(zip(*columns)), rhs)).value


_cell_volumes: dict[tuple, Fraction] = {}
_cell_columns: dict[tuple, tuple] = {}  # (sigma, alpha) -> one column per edge
_columns: dict[tuple, tuple] = {}  # one tuple per distinct column, shared by the cells


def cell_volume(graph: RibbonGraph, q: tuple) -> Fraction:
    """Leray volume of a cell's system at any positive perimeters q, memoized
    for the process per (sigma, alpha, perimeter of each boundary cycle in
    cycle order), which the labelled cells of one class share up to a row
    permutation.  A pattern with no L > 0 (``has_interior_point``) gets 0 and
    no class search: its polytope lies in a coordinate face of lower dimension.
    The columns are read off the boundary cycles once per (sigma, alpha)."""
    rhs = tuple([q[label - 1] for label in graph.boundary_labels])
    key = (graph.sigma, graph.alpha, rhs)
    volume = _cell_volumes.get(key)
    if volume is None:
        columns = _cell_columns.get(key[:2])
        if columns is None:  # one per edge (d, alpha d), holding 2 at the cycle of a loop
            cycle_of = {d: i for i, cycle in enumerate(graph.boundary_cycles) for d in cycle}
            columns = _cell_columns[key[:2]] = tuple(
                _columns.setdefault(column, column) for column in (
                    tuple((cycle_of[d] == i) + (cycle_of[e] == i) for i in range(len(rhs)))
                    for d, e in enumerate(graph.alpha) if d < e
                )
            )
        volume = _cell_volumes[key] = (
            class_volume(system_class(ConstraintSystem(tuple(zip(*columns)), rhs)))
            if has_interior_point(rhs, columns) else Fraction(0)
        )
    return volume


def _weighted_sum(const: int, weights: Counter) -> Fraction:
    """const * sum of count * n / (d * aut) over weights[n, d, aut] = count,
    as one integer sum over the lcm of the d * aut."""
    lcd = lcm(*(d * aut for _, d, aut in weights))
    return Fraction(const * sum(c * n * (lcd // (d * a)) for (n, d, a), c in weights.items()), lcd)


def duality_pairing(
    genus: int,
    n0: int,
    q,
    enable_higher_genus: bool = False,
    max_faces: int = MAX_FACES,
) -> PairingReport:
    """Both sides of the pairing at (genus, N0, q), with a cell breakdown.

    The key, the face cap and the genus are checked before the cells are
    read.  A cell is the dual of a catalog triangulation exactly when its
    boundary labelled k has q_k sides, and the catalog part and cardinality
    are read off those cells.  A cell visit is one lookup in the
    ``cell_volume`` memo and one ``CellContribution`` tuple: side counts,
    code and aut order ignore q and are cached on the cells, which
    ``enumerate_ribbon_cells`` keeps per (g, N0).  Each side is one integer
    sum over the distinct (volume, aut order) of the cells of volume > 0.
    """
    q = tuple(q)
    check_feasible(genus, n0, q, max_faces)
    rhs = generating_F(genus, q, enable_higher_genus)  # before any volume work
    const = pairing_constant(genus, n0)

    memo, contributions, cardinality = _cell_volumes, [], 0
    weights, catalog_weights = Counter(), Counter()  # cells of volume n/d > 0 per (n, d, aut)
    for graph in enumerate_ribbon_cells(genus, n0, max_faces):
        perimeters = tuple([q[label - 1] for label in graph.boundary_labels])
        volume = memo.get((graph.sigma, graph.alpha, perimeters))
        if volume is None:
            volume = cell_volume(graph, q)
        sides, aut = graph.sides, graph.aut_order
        from_catalog = sides == q
        cardinality += from_catalog
        # a loop bounds a one-sided boundary, and nothing else does
        contributions.append(
            CellContribution(canonical_code(graph), sides, volume, aut, 1 in sides, from_catalog)
        )
        if volume:
            weights[volume.numerator, volume.denominator, aut] += 1
            if from_catalog:
                catalog_weights[volume.numerator, volume.denominator, aut] += 1

    lhs, catalog_lhs = _weighted_sum(const, weights), _weighted_sum(const, catalog_weights)
    return PairingReport(
        genus, n0, q, lhs, catalog_lhs, rhs, lhs == rhs, cardinality, tuple(contributions)
    )


def cardinality_and_average(
    genus: int, n0: int, q, max_faces: int = MAX_FACES
) -> tuple[int, Fraction | None]:
    """Catalog cardinality and the orbifold-weighted average cell volume
    (see ``PairingReport.average_volume``)."""
    report = duality_pairing(genus, n0, q, max_faces=max_faces)
    return report.cardinality, report.average_volume
