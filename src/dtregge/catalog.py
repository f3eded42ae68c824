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
by their sorted orbit sizes; it stops past ``MAX_MATCHINGS`` stored
matchings or ``MAX_NODES`` visited nodes.  A catalog key (g, N0, q)
labels the orbits of the group sorted(q), which holds no loop since
q >= 2, and the ribbon cells of (g, N0) label the boundaries of every
group.  One unlabelled canonical pass per matching, from its
invariant-pruned bases, keeps the first of each isomorphism class in a
group, ``_classes``, and one loop, ``_labelled_cells``, labels it once per
orbit of its automorphism group.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, permutations, product
from types import MappingProxyType

from .ribbon import RibbonGraph, aut_boundary, canonical_code, canonical_form
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
#: about twice the 2.25 M of (0,7), the largest search at N2 <= 10.
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
    orbits have closed while darts are still unmatched.  Branches are cut,
    never reordered.  Residual duplicates (isomorphic matchings the pruning
    does not catch) are removed by ``_classes`` downstream.  Storing more
    than ``MAX_MATCHINGS`` matchings or visiting more than ``MAX_NODES``
    nodes raises ResourceCapError, and nothing is cached; the result is
    cached, so it is returned read-only.
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
    stored = visited = 0

    def rec(s: int, k: int):
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
                rec(after, k + (t == 3 * k))
            if b2 == v2:
                closed.pop()
            else:
                last[b2], first[e2], length[b2] = t, v2, length[b2] - length[v2]
            if b == v:
                closed.pop()
            else:
                last[b], first[e], length[b] = s, v, length[b] - length[v]
            partner[s] = partner[t] = -1

    rec(0, 1)
    return MappingProxyType({sizes: tuple(alphas) for sizes, alphas in found.items()})


@lru_cache(maxsize=None)
def _classes(genus: int, sizes: tuple[int, ...]) -> tuple:
    """The first matching of each unlabelled class among the gluings of
    genus ``genus`` with these sorted orbit sizes, with its orientation-
    preserving automorphism group, both read off one unlabelled
    ``canonical_form`` pass per matching."""
    sigma = corner_rotation(3 * face_count(genus, len(sizes)))
    classes: dict[bytes, tuple] = {}
    for alpha in enumerate_gluings(genus, len(sizes)).get(sizes, ()):
        code, group = canonical_form(sigma, alpha)
        classes.setdefault(code, (alpha, group))
    return tuple(classes.values())


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
    raises ResourceCapError.  The cells are kept per (g, N0).
    """
    _check_faces(face_count(genus, n0), max_faces)
    return _cells(genus, n0)


@lru_cache(maxsize=None)
def _cells(genus: int, n0: int) -> tuple[RibbonGraph, ...]:
    """The cells of ``enumerate_ribbon_cells``, uncapped."""
    cells = []
    for sizes in enumerate_gluings(genus, n0):
        for alpha, group in _classes(genus, sizes):
            labellings = permutations(range(1, n0 + 1))
            cells.extend(_labelled_cells(alpha, group, labellings))
    return tuple(sorted(cells, key=canonical_code))


def _labelled_cells(alpha, group, labellings):
    """One labelled graph per orbit of ``group`` among the given boundary
    labellings of one class representative, the first in their order.

    This is the one labelling loop: the ribbon cells feed it every
    permutation of 1..N0, a catalog the labellings compatible with q.
    Labellings in one orbit give isomorphic labelled graphs, and labellings
    in different orbits give different codes.
    """
    sigma = corner_rotation(len(alpha))
    cycles = boundary_cycles(sigma, alpha)
    where = {d: i for i, cycle in enumerate(cycles) for d in cycle}
    moves = [[where[g[cycle[0]]] for cycle in cycles] for g in group]
    seen = set()
    for labels in labellings:
        if labels not in seen:
            seen.update(tuple(labels[i] for i in move) for move in moves)
            yield RibbonGraph(sigma, alpha, labels)


def _label_assignments(classes, q):
    """All label tuples for ``classes`` (label of the i-th class) that are
    bijections onto 1..N0 compatible with the class sizes."""
    by_size: dict[int, list] = {}
    for idx, cls in enumerate(classes):
        by_size.setdefault(len(cls), []).append(idx)
    labels_by_size: dict[int, list] = {}
    for label, qk in enumerate(q, start=1):
        labels_by_size.setdefault(qk, []).append(label)
    if {k: len(v) for k, v in by_size.items()} != {
        k: len(v) for k, v in labels_by_size.items()
    }:
        return
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
    vertices = boundary_cycles(corner_rotation(len(alpha)), alpha)
    gluing = [(divmod(d, 3), divmod(a, 3)) for d, a in enumerate(alpha) if d < a]
    entries = []
    for graph in _labelled_cells(alpha, group, _label_assignments(vertices, q)):
        labels = graph.dart_labels()
        faces = [labels[d:d + 3] for d in range(0, len(alpha), 3)]
        t = build_triangulation(len(q), faces, gluing)
        entries.append(CatalogEntry(t, graph, aut_boundary(graph)[0], canonical_code(graph)))
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
