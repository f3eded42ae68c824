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
classical anchor assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .catalog import MAX_FACES, check_feasible, enumerate_ribbon_cells
from .intersection import generating_F
from .measure import ConstraintSystem, constraint_system
from .ribbon import RibbonGraph, aut_boundary, canonical_code
from .volume import leray_volume


@dataclass(frozen=True)
class CellContribution:
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


@lru_cache(maxsize=None)
def class_volume(key: tuple) -> Fraction:
    """Leray volume of the constraint systems of one ``system_class``,
    computed once per process from the class's own representative."""
    rhs, columns = key
    return leray_volume(ConstraintSystem(tuple(zip(*columns)), rhs)).value


@lru_cache(maxsize=None)
def _incidence_rows(graph: RibbonGraph) -> tuple[tuple[int, ...], ...]:
    """The rows of a cell's constraint system, in boundary-label order.

    They do not depend on the perimeters, so each cell that
    ``enumerate_ribbon_cells`` keeps builds them once for every key.
    """
    return constraint_system(graph, dict.fromkeys(graph.boundary_labels, 0)).a


def duality_pairing(
    genus: int,
    n0: int,
    q,
    enable_higher_genus: bool = False,
    max_faces: int = MAX_FACES,
) -> PairingReport:
    """Both sides of the pairing at (genus, N0, q), with a cell breakdown.

    The key and the face cap are checked before the cells are read.  The
    catalog part is read off the cells: a cell is the dual of a catalog
    triangulation exactly when its boundary labelled k has q_k sides, and
    the catalog cardinality is the number of such cells.  Each volume is
    computed once per ``system_class`` and process, by ``class_volume``, and
    shared by every cell of that class at this and every later key; the
    keys of one (g, N0) share most classes.  Code and aut order are cached
    on the cells, which ``enumerate_ribbon_cells`` keeps per (g, N0), and
    so are their constraint rows, so no key recomputes them.
    """
    q = tuple(q)
    check_feasible(genus, n0, q, max_faces)
    rhs = generating_F(genus, q, enable_higher_genus)  # before any volume work
    const = pairing_constant(genus, n0)

    contributions = []
    total = Fraction(0)
    catalog_total = Fraction(0)
    for graph in enumerate_ribbon_cells(genus, n0, max_faces):
        # the labels are 1..N0, and int perimeters are exact
        system = ConstraintSystem(_incidence_rows(graph), q)
        volume = class_volume(system_class(system))
        aut = aut_boundary(graph)[0]
        sides = tuple(map(sum, system.a))  # rows are in label order
        from_catalog = sides == q
        # a loop bounds a one-sided boundary, and nothing else does
        contributions.append(
            CellContribution(canonical_code(graph), sides, volume, aut, 1 in sides, from_catalog)
        )
        total += volume / aut
        if from_catalog:
            catalog_total += volume / aut

    lhs = const * total
    return PairingReport(
        genus,
        n0,
        q,
        lhs,
        const * catalog_total,
        rhs,
        lhs == rhs,
        sum(c.from_catalog for c in contributions),
        tuple(contributions),
    )


def cardinality_and_average(
    genus: int, n0: int, q, max_faces: int = MAX_FACES
) -> tuple[int, Fraction | None]:
    """Catalog cardinality and the orbifold-weighted average cell volume
    (see ``PairingReport.average_volume``)."""
    report = duality_pairing(genus, n0, q, max_faces=max_faces)
    return report.cardinality, report.average_volume
