"""Exhaustive catalogs of labelled oriented triangulations.

Triangulations are enumerated up to orientation-preserving,
label-preserving isomorphism, with chirality distinguished: a map and its
mirror are separate entries unless an orientation-preserving isomorphism
relates them.

A triangulation and its dual trivalent ribbon graph are one object: the
slot gluing is the edge involution alpha of the dual, and the vertices are
the orbits of sigma o alpha.  One cached gluing search per (g, N0),
``enumerate_gluings``, finds every connected matching with N0 orbits,
loops included, sizes its orbits while it glues and groups the matchings
by their sorted orbit sizes.  It cuts the branches that close too many
orbits or build more than g handles, and stops past ``MAX_MATCHINGS``
stored matchings or ``MAX_NODES`` visited nodes.  A catalog key (g, N0, q)
labels the orbits of the group sorted(q), which holds no loop since
q >= 2, and the ribbon cells of (g, N0) label the boundaries of every
group.  ``_classes`` keeps the least rooting of each isomorphism class
and its automorphism group, and one loop, ``_labelled_cells``, labels it
once per orbit of that group.  The cells are kept as rows (``_cells``),
and ``enumerate_ribbon_cells`` builds their graphs on request.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from types import MappingProxyType

from .measure import boundary_columns
from .ribbon import RibbonGraph, canonical_code, canonical_form
from .triangulation import Triangulation, boundary_cycles, build_triangulation, corner_rotation

#: Bump when a normative counting/orientation convention changes, or when the
#: enumerator's output (entries, their order or codes) changes: the CLI reads
#: catalogs from the cache, and a stale file that still passes per-entry
#: verification is only ignored after a bump.
CONVENTION_VERSION = 1

#: Default cap on the face count N2 of a key, for the library and the CLI.
MAX_FACES = 10

#: Most matchings one gluing search stores before it raises ResourceCapError.
MAX_MATCHINGS = 500_000

#: Most nodes one gluing search visits before it raises ResourceCapError:
#: about 3.6 times the 1.24 M of (2,3), the largest search at N2 <= 10.
MAX_NODES = 4_500_000


class InfeasibleKeyError(ValueError):
    """The requested (genus, N0, q) admits no triangulation on parity grounds."""


class ResourceCapError(RuntimeError):
    """The requested key needs more faces, darts or gluings than the caps allow."""


def face_count(genus: int, n0: int) -> int:
    """N2 = 2(N0 + 2g - 2), forced by the Euler relation at fixed (g, N0)."""
    n2 = 2 * (n0 + 2 * genus - 2)
    if n2 <= 0:
        raise InfeasibleKeyError(f"no triangulations at genus {genus} with {n0} vertices")
    return n2


def check_feasible(genus: int, n0: int, q, max_faces: int | None = None) -> int:
    """Validate a catalog key; returns the face count N2.

    With ``max_faces`` a key needing more faces raises ResourceCapError, as
    does, always, a key needing more than 256 darts (3 N2 > 256), which
    ``canonical_code`` cannot number in bytes.
    """
    q = tuple(q)
    if genus < 0 or n0 < 1 or len(q) != n0:
        raise InfeasibleKeyError("need genus >= 0 and one q entry per vertex")
    n2 = face_count(genus, n0)
    if sum(q) != 3 * n2:
        raise InfeasibleKeyError(
            f"sum(q) = {sum(q)} but 3*N2 = {3 * n2} at genus {genus}, N0 = {n0}"
        )
    if any(qk < 2 for qk in q):
        raise InfeasibleKeyError("curvature assignments below 2 produce dual loops")
    _check_faces(n2, max_faces)
    return n2


def _check_faces(n2: int, max_faces: int | None) -> None:
    if max_faces is not None and n2 > max_faces:
        raise ResourceCapError(f"key needs {n2} faces, above the cap of {max_faces}")
    if 3 * n2 > 256:  # canonical codes number the darts in bytes
        raise ResourceCapError(f"key needs {3 * n2} darts; canonical codes hold at most 256")


@dataclass(frozen=True)
class CatalogEntry:
    triangulation: Triangulation
    dual: RibbonGraph
    aut_order: int
    code: bytes

    def to_dict(self) -> dict:
        return {
            "triangulation": self.triangulation.to_dict(),
            "dual": self.dual.to_dict(),
            "aut_boundary": self.aut_order,
            "code": self.code.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogEntry":
        return cls(
            Triangulation.from_dict(data["triangulation"]),
            RibbonGraph.from_dict(data["dual"]),
            data["aut_boundary"],
            bytes.fromhex(data["code"]),
        )


@dataclass(frozen=True)
class Catalog:
    genus: int
    vertex_count: int
    q: tuple[int, ...]
    entries: tuple[CatalogEntry, ...]

    @property
    def cardinality(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "version": CONVENTION_VERSION,
            "key": {
                "genus": self.genus,
                "vertices": self.vertex_count,
                "q": list(self.q),
            },
            "cardinality": self.cardinality,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Catalog":
        key = data["key"]
        return cls(
            key["genus"],
            key["vertices"],
            tuple(key["q"]),
            tuple(CatalogEntry.from_dict(e) for e in data["entries"]),
        )


# ---------------------------------------------------------------------------
# one gluing search per (genus, N0), shared by its catalogs and its cells


@lru_cache(maxsize=None)
def enumerate_gluings(genus: int, n0: int) -> MappingProxyType:
    """The connected slot matchings of genus ``genus`` with ``n0`` orbits,
    loops included, grouped by the sorted sizes of their sigma o alpha
    orbits, in search order within each group.

    Slots are numbered 3f + i of N2 = ``face_count(genus, n0)`` faces, and a
    partner array is the edge involution alpha of the dual ribbon graph; a
    slot may be glued to a slot of its own face (a loop of the dual, which
    bounds an orbit of size 1).  Face-relabelling symmetry is broken during
    the search: the lowest unmatched slot s is glued to each unmatched slot
    of the used faces [0, k) above it, then to slot 0 of face k; s past
    the used faces means they closed up.  The search keeps sigma o alpha as
    open paths: gluing s and t adds s -> sigma[t] and t -> sigma[s], each
    joining two paths or closing one into an orbit, undone on backtrack.
    At fixed N2 the orbit count fixes the genus, so a branch stops once N0
    orbits have closed while darts are still unmatched.  The faces [0, k),
    glued ``glued`` times, form a surface with boundary of Euler
    characteristic chi = closed + k - glued = 2 - 2 handles - cycles; its
    boundary runs from an unmatched d to last[sigma[d]].  Gluing s to
    another boundary cycle adds a handle; along its own cycle or to a new
    face, none.  A complete matching has g handles, so once a branch has g,
    s is glued only along its own cycle.  Cycles are counted only where one
    cycle would mean g handles, and a subtree inherits the count of g.
    Branches are cut, never reordered, so every rooting of a class (a root
    dart as slot 0) is stored, in increasing order; ``_classes`` keeps the
    least.  Storing more than ``MAX_MATCHINGS`` matchings or visiting more
    than ``MAX_NODES`` nodes raises ResourceCapError, and nothing is cached;
    the result is cached, so it is returned read-only.
    """
    n2 = face_count(genus, n0)
    n = 3 * n2
    sigma = corner_rotation(n)
    partner = [-1] * n
    first = list(range(n))  # first[e]: first dart of the path ending at e
    last = list(range(n))  # last[b]: last dart of the path starting at b
    length = [1] * n  # length[b]: darts on the path starting at b
    closed: list[int] = []  # sizes of the closed orbits
    found: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    mark = [0] * n  # mark[d] == visited: boundary dart d counted at this node
    stored = visited = 0

    def rec(s: int, k: int, glued: int, spent: bool):
        nonlocal stored, visited
        visited += 1
        if visited > MAX_NODES:
            raise ResourceCapError(
                f"genus {genus} with {n0} vertices needs a gluing search of more "
                f"than {MAX_NODES} nodes"
            )
        if s == n:
            if len(closed) == n0:
                found.setdefault(tuple(sorted(closed)), []).append(tuple(partner))
                stored += 1
                if stored > MAX_MATCHINGS:
                    raise ResourceCapError(
                        f"genus {genus} with {n0} vertices needs more than "
                        f"{MAX_MATCHINGS} gluings"
                    )
            return
        if s >= 3 * k:
            return  # the faces before s//3 closed up: disconnected
        spare = 2 + glued - len(closed) - k - 2 * genus  # 2 - chi - 2g: cycles at g handles
        if not spent and spare >= 1:
            for d in range(s, 3 * k):
                if partner[d] == -1 and mark[d] != visited:
                    spare -= 1
                    while mark[d] != visited:
                        mark[d], d = visited, last[sigma[d]]
            spent = spare == 0
        if spent:  # a handle more would pass g: glue s along its own boundary cycle
            candidates = [last[sigma[s]]]
            while candidates[-1] != s:
                candidates.append(last[sigma[candidates[-1]]])
            candidates = sorted(candidates[:-1])
        else:
            candidates = [t for t in range(s + 1, 3 * k) if partner[t] == -1]
        if k < n2:
            candidates.append(3 * k)
        for t in candidates:
            partner[s], partner[t] = t, s
            # s -> v, then t -> v2, each joins two paths or closes one
            v, v2 = sigma[t], sigma[s]
            b, e = first[s], last[v]
            if b == v:
                closed.append(length[b])
            else:
                last[b], first[e], length[b] = e, b, length[b] + length[v]
            b2, e2 = first[t], last[v2]
            if b2 == v2:
                closed.append(length[b2])
            else:
                last[b2], first[e2], length[b2] = e2, b2, length[b2] + length[v2]
            after = s + 1
            while after < n and partner[after] != -1:
                after += 1
            if len(closed) < n0 or after == n:  # unmatched darts close one more
                rec(after, k + (t == 3 * k), glued + 1, spent)
            if b2 == v2:
                closed.pop()
            else:
                last[b2], first[e2], length[b2] = t, v2, length[b2] - length[v2]
            if b == v:
                closed.pop()
            else:
                last[b], first[e], length[b] = s, v, length[b] - length[v]
            partner[s] = partner[t] = -1

    rec(0, 1, 0, genus == 0)
    return MappingProxyType({sizes: tuple(alphas) for sizes, alphas in found.items()})


@lru_cache(maxsize=None)
def _classes(genus: int, sizes: tuple[int, ...]) -> tuple:
    """Each unlabelled class of gluings of genus ``genus`` with these sorted
    orbit sizes as its least rooting, in search order, with its automorphisms:
    the roots that renumber it into itself as the search numbers faces."""
    alphas = enumerate_gluings(genus, len(sizes)).get(sizes, ())
    sigma = corner_rotation(len(alphas[0]) if alphas else 0)  # no turns for no matchings
    turn = [(d, sigma[d], sigma[sigma[d]]) for d in range(len(sigma))]  # the face from d
    classes = []
    for alpha in alphas:
        group = []
        for root in range(len(sigma)):
            order, new = list(turn[root]), [-1] * len(sigma)  # new slot -> old dart, and back
            new[order[0]], new[order[1]], new[order[2]] = 0, 1, 2
            for s, d in enumerate(order):
                t = new[alpha[d]]
                if t < 0:  # the next face starts at the partner of s
                    t = len(order)
                    order += turn[alpha[d]]
                    new[order[t]], new[order[t + 1]], new[order[t + 2]] = t, t + 1, t + 2
                if t != alpha[s]:
                    break
            if t == alpha[s]:  # every slot agrees: an automorphism
                group.append(tuple(order))
            elif t < alpha[s]:
                break  # a smaller rooting of this class comes first
        else:
            classes.append((alpha, tuple(sorted(group))))
    return tuple(classes)


def enumerate_ribbon_cells(
    genus: int, n0: int, max_faces: int | None = MAX_FACES
) -> tuple[RibbonGraph, ...]:
    """All labelled trivalent ribbon graphs with the given genus and number
    of boundaries, loops included, in canonical-code order.

    These are the top-dimensional cells of the combinatorial moduli space;
    the loop-free ones are exactly the duals of catalog triangulations.
    Each unlabelled class is labelled once, from its first matching, with
    one labelling of 1..N0 per orbit of its automorphism group.  A key
    needing more than ``max_faces`` faces, more than 256 darts, more than
    ``MAX_MATCHINGS`` gluings or a search of more than ``MAX_NODES`` nodes
    raises ResourceCapError.  The rows of the cells (``_cells``) are kept
    per (g, N0); the graphs are built afresh at each call, class by class.
    """
    _check_faces(face_count(genus, n0), max_faces)
    rows = _cells(genus, n0)
    cells = [None] * len(rows)
    for i in sorted(range(len(rows)), key=lambda i: rows[i][5]):  # one dart check per class
        cells[i] = RibbonGraph(*_class_darts[rows[i][5]], rows[i][4])
    return tuple(cells)


_class_darts: list[tuple] = []  # class index -> (sigma, alpha), for the life of the process
_class_indices: dict[tuple, int] = {}  # and back
_columns: dict[tuple, tuple] = {}  # one tuple per distinct column, shared by the classes


def class_index(sigma: tuple, alpha: tuple) -> int:
    """The number of (sigma, alpha), shared by the labelled cells on it."""
    index = _class_indices.setdefault((sigma, alpha), len(_class_darts))
    if index == len(_class_darts):
        _class_darts.append((sigma, alpha))
    return index


@lru_cache(maxsize=None)
def class_columns(index: int) -> tuple:
    """The ``boundary_columns`` of class ``index``, read once; equal columns are one tuple."""
    return tuple(_columns.setdefault(c, c) for c in boundary_columns(*_class_darts[index]))


@lru_cache(maxsize=None)
def _cells(genus: int, n0: int) -> tuple[tuple, ...]:
    """One row per cell of ``enumerate_ribbon_cells``, uncapped, in code
    order: (code, side counts in label order, automorphism order, loop flag,
    label of each boundary cycle, class index).  A loop bounds a one-sided
    boundary, and nothing else does."""
    labellings, shared, rows = list(permutations(range(1, n0 + 1))), {}, []
    for sizes in enumerate_gluings(genus, n0):
        for alpha, group in _classes(genus, sizes):
            sigma = corner_rotation(len(alpha))
            cycles = boundary_cycles(sigma, alpha)
            where = sorted((d, i) for i, cycle in enumerate(cycles) for d in cycle)
            index = class_index(sigma, alpha)
            for labels in _labelled_cells(cycles, group, labellings):
                code, automorphisms = canonical_form(sigma, alpha, [labels[i] for _, i in where])
                sides = tuple(len(cycle) for _, cycle in sorted(zip(labels, cycles)))
                sides = shared.setdefault(sides, sides)
                rows.append((code, sides, len(automorphisms), 1 in sides, labels, index))
    return tuple(sorted(rows))  # by code: no two rows share one


def _labelled_cells(cycles, group, labellings):
    """The first, in their order, of each orbit of ``group`` among the given
    labellings (label of the i-th of the boundary ``cycles``) of one class
    representative.

    This is the one labelling loop: the ribbon cells feed it every
    permutation of 1..N0, a catalog the labellings compatible with q.
    Labellings in one orbit give isomorphic labelled graphs, and labellings
    in different orbits give different codes.
    """
    where = {d: i for i, cycle in enumerate(cycles) for d in cycle}
    moves = [[where[g[cycle[0]]] for cycle in cycles] for g in group]
    seen = set()
    for labels in labellings:
        if labels not in seen:
            seen.update(tuple(labels[i] for i in move) for move in moves)
            yield labels


def _label_assignments(classes, q):
    """All label tuples for ``classes`` (label of the i-th class) that give
    each class a label of its size; the sizes must be those of q."""
    by_size: dict[int, list] = {}
    for idx, cls in enumerate(classes):
        by_size.setdefault(len(cls), []).append(idx)
    labels_by_size: dict[int, list] = {}
    for label, qk in enumerate(q, start=1):
        labels_by_size.setdefault(qk, []).append(label)
    sizes = sorted(by_size)
    for chosen in product(*(permutations(labels_by_size[s]) for s in sizes)):
        labels = [0] * len(classes)
        for size, perm in zip(sizes, chosen):
            for idx, label in zip(by_size[size], perm):
                labels[idx] = label
        yield tuple(labels)


def _entries_for_gluing(args) -> list[CatalogEntry]:
    """The labelled entries of one unlabelled class of loop-free matchings.

    Each labelling of the sigma o alpha orbits gives the dual directly; the
    triangulation is built from the dart labels and the slot pairs of alpha.
    """
    alpha, group, q = args
    sigma = corner_rotation(len(alpha))
    vertices = boundary_cycles(sigma, alpha)
    gluing = [(divmod(d, 3), divmod(a, 3)) for d, a in enumerate(alpha) if d < a]
    entries = []
    for boundary_labels in _labelled_cells(vertices, group, _label_assignments(vertices, q)):
        graph = RibbonGraph(sigma, alpha, boundary_labels)
        labels = graph.dart_labels()
        faces = [labels[d:d + 3] for d in range(0, len(alpha), 3)]
        t = build_triangulation(len(q), faces, gluing)
        entries.append(CatalogEntry(t, graph, graph.aut_order, canonical_code(graph)))
    return entries


def enumerate_triangulations(
    genus: int,
    n0: int,
    q,
    max_faces: int = MAX_FACES,
    workers: int = 1,
) -> Catalog:
    """Catalog of all labelled triangulations realizing (genus, N0, q)."""
    q = tuple(q)
    check_feasible(genus, n0, q, max_faces)
    jobs = [(alpha, group, q) for alpha, group in _classes(genus, tuple(sorted(q)))]

    if workers > 1 and jobs:
        from concurrent.futures import ProcessPoolExecutor  # kept out of import time

        # a fork pool starts all its workers at once, needed or not
        size = min(workers, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_entries_for_gluing, jobs))
    else:
        results = [_entries_for_gluing(job) for job in jobs]

    # classes and their orbits never share a code
    entries = sorted(chain.from_iterable(results), key=lambda entry: entry.code)
    return Catalog(genus, n0, q, tuple(entries))
