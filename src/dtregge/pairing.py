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
per process: the cells' rows (``catalog._cells``), the columns of each
class, one ``class_volume`` per ``system_class`` and F_g's coefficients.
One memo, keyed by class index and perimeters, holds the volumes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import lcm
from typing import NamedTuple

from . import catalog
from .catalog import MAX_FACES, check_feasible, class_columns, class_index
from .intersection import generating_F
from .measure import ConstraintSystem, edge_ends
from .ribbon import RibbonGraph
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
    which raises ValueError on a column that is not one, at every call).  On
    it such an L exists exactly when, for every independent set I of rows
    with neighbour set N(I), rhs(I) <= rhs(N(I)), and where the two are equal
    no edge joins N(I) to a row outside I (a loop at N(I) included).
    Summing the rows of I and of N(I) shows that both are needed; the
    fractional perfect b-matching theorem with its tight sets (Schrijver,
    2003, ch. 31) that they suffice.  The sets and the edges leaving them
    ignore rhs and are found once per column tuple (``_independent_sets``);
    a call sums rhs over the 2^N0 row sets and scans them, with no LP.
    """
    weight = [0] * (1 << len(rhs))
    for rows in range(1, len(weight)):  # each set's sum from the set less its lowest row
        low = rows & -rows
        weight[rows] = weight[rows ^ low] + rhs[low.bit_length() - 1]
    return not any(
        weight[rows] > weight[near] or weight[rows] == weight[near] and leaves
        for rows, near, leaves in _independent_sets(len(rhs), columns)
    )


@lru_cache(maxsize=None)
def _independent_sets(n0: int, columns: tuple) -> tuple:
    """(I, N(I), whether an edge joins N(I) to a row outside I) for every
    nonempty independent set I of the n0 rows, as bitmasks, in the
    multigraph of ``columns``: the part of ``has_interior_point`` that
    ignores rhs, built once per process for each column tuple, which
    ``catalog.class_columns`` shares among the classes."""
    adjacent = [0] * n0
    for u, v in edge_ends(columns):
        adjacent[u] |= 1 << v
        adjacent[v] |= 1 << u
    neighbours = [0] * (1 << n0)
    for rows in range(1, len(neighbours)):
        low = rows & -rows
        neighbours[rows] = neighbours[rows ^ low] | adjacent[low.bit_length() - 1]
    return tuple(
        (rows, near, bool(neighbours[near] & ~rows))
        for rows, near in enumerate(neighbours) if rows and not near & rows
    )


@lru_cache(maxsize=None)
def class_volume(key: tuple) -> Fraction:
    """Leray volume of the constraint systems of one ``system_class``,
    computed once per process from the class's own representative."""
    rhs, columns = key
    return leray_volume(ConstraintSystem(tuple(zip(*columns)), rhs)).value


_cell_volumes: dict[tuple, Fraction] = {}  # (class index, perimeters in cycle order) -> volume


def cell_volume(graph: RibbonGraph, q: tuple) -> Fraction:
    """Leray volume of a cell's system at positive perimeters q, through the
    memo of ``duality_pairing`` at the ``catalog.class_index`` of the cell's
    (sigma, alpha).  Raises ValueError unless its labels are 1..N0 = len(q)."""
    labels, n0 = graph.boundary_labels, len(graph.boundary_labels)
    if len(q) != n0 or sorted(labels) != list(range(1, n0 + 1)):
        raise ValueError(f"need labels 1..{n0} and {n0} perimeters, not {labels} and {len(q)}")
    return _volume(class_index(graph.sigma, graph.alpha), tuple([q[k - 1] for k in labels]))


def _volume(index: int, perimeters: tuple) -> Fraction:
    """Volume of class ``index``'s system at the perimeters of its boundary
    cycles in cycle order, memoized; with no L > 0 (``has_interior_point``)
    it is 0, with no class search: the polytope lies in a coordinate face."""
    volume = _cell_volumes.get((index, perimeters))
    if volume is None:
        columns = class_columns(index)
        volume = _cell_volumes[index, perimeters] = (
            class_volume(system_class(ConstraintSystem(tuple(zip(*columns)), perimeters)))
            if has_interior_point(perimeters, columns) else Fraction(0)
        )
    return volume


def _weighted_sum(const: int, weights: Counter) -> Fraction:
    """const * sum of count * n / (d * aut) over weights[n, d, aut] = count,
    as one integer sum over the lcm of the d * aut."""
    lcd = lcm(*(d * aut for _, d, aut in weights))
    return Fraction(const * sum(c * n * (lcd // (d * a)) for (n, d, a), c in weights.items()), lcd)


def duality_pairing(genus: int, n0: int, q, max_faces: int = MAX_FACES) -> PairingReport:
    """Both sides of the pairing at (genus, N0, q), with a cell breakdown.

    The key and the face cap are checked before the cells are read.  A cell
    is the dual of a catalog triangulation exactly when its boundary
    labelled k has q_k sides, and the catalog part and cardinality are read
    off those cells.  A cell is a row of ``catalog._cells``, whose
    fields ignore q, and a visit is one memo lookup and one contribution
    built by ``tuple.__new__``, which skips the NamedTuple's Python-level
    ``__new__``.  Each side is one integer sum over the distinct (volume,
    aut order) of the cells of volume > 0.
    """
    q = tuple(q)
    check_feasible(genus, n0, q, max_faces)
    rhs = generating_F(genus, q)
    const = pairing_constant(genus, n0)

    memo, new, contributions, cardinality = _cell_volumes, tuple.__new__, [], 0
    weights, catalog_weights = Counter(), Counter()  # cells of volume n/d > 0 per (n, d, aut)
    perimeters = {}  # of the boundary cycles, in cycle order, per labelling
    for code, sides, aut, loop, labels, index in catalog._cells(genus, n0):
        at = perimeters.get(labels)
        if at is None:
            at = perimeters[labels] = tuple([q[k - 1] for k in labels])
        volume = memo.get((index, at))
        if volume is None:
            volume = _volume(index, at)
        from_catalog = sides == q
        cardinality += from_catalog
        contributions.append(new(CellContribution, (code, sides, volume, aut, loop, from_catalog)))
        if volume:
            weights[volume.numerator, volume.denominator, aut] += 1
            if from_catalog:
                catalog_weights[volume.numerator, volume.denominator, aut] += 1

    lhs, catalog_lhs = _weighted_sum(const, weights), _weighted_sum(const, catalog_weights)
    return PairingReport(
        genus, n0, q, lhs, catalog_lhs, rhs, lhs == rhs, cardinality, tuple(contributions)
    )

