"""Trivalent ribbon graphs: 1-skeletons of the dual polytopes.

A ribbon graph is a set of darts together with a vertex rotation ``sigma``
(cycles of length 3, counterclockwise dart order at each vertex) and a
fixed-point-free edge involution ``alpha``.  Boundary cycles are the orbits
of ``sigma o alpha`` (first alpha, then sigma); ``triangulation.boundary_cycles``
is the one definition of that composition order, and the single source of
truth for all side orderings downstream.

One breadth-first pass over base darts, ``canonical_form``, gives both a
canonical code and an automorphism group: the bases whose encodings tie at
the least code are exactly the images of the first such base under the
group.  Cached on the graph, it gives ``canonical_code`` and
``aut_boundary``; unlabelled classes and their groups come from the root
test of ``catalog._classes`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .triangulation import Triangulation, TriangulationError, boundary_cycles, corner_rotation, orbits


class RibbonGraphError(ValueError):
    """Raised on inconsistent dart/rotation/involution data."""


@dataclass(frozen=True)
class RibbonGraph:
    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    boundary_labels: tuple[int, ...]  # label of the i-th boundary cycle
    # side count of each boundary in label order, set once by __post_init__
    sides: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_darts(self.sigma, self.alpha)
        if len(self.boundary_labels) != len(self.boundary_cycles):
            raise RibbonGraphError("one label per boundary cycle is required")
        if len(set(self.boundary_labels)) != len(self.boundary_labels):
            raise RibbonGraphError("boundary labels must be distinct")
        labelled = sorted(zip(self.boundary_labels, self.boundary_cycles))
        object.__setattr__(self, "sides", tuple(len(cycle) for _, cycle in labelled))

    @property
    def dart_count(self) -> int:
        return len(self.sigma)

    @property
    def vertex_count(self) -> int:
        return len(self.sigma) // 3

    @property
    def edge_count(self) -> int:
        return len(self.sigma) // 2

    @cached_property
    def boundary_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of sigma o alpha, each from its least dart, sorted; one tuple
        for a run of graphs on one (sigma, alpha) (``boundary_cycles``)."""
        return boundary_cycles(self.sigma, self.alpha)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as dart pairs (d, alpha(d)), ordered by their least dart."""
        return tuple(
            (d, self.alpha[d]) for d in range(self.dart_count) if d < self.alpha[d]
        )

    @cached_property
    def dart_edge(self) -> tuple[int, ...]:
        index = [0] * self.dart_count
        for j, (d, e) in enumerate(self.edges):
            index[d] = index[e] = j
        return tuple(index)

    def dart_labels(self) -> tuple[int, ...]:
        labels = [0] * self.dart_count
        for cycle, label in zip(self.boundary_cycles, self.boundary_labels):
            for d in cycle:
                labels[d] = label
        return tuple(labels)

    @cached_property
    def _canonical_form(self) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
        """The least labelled breadth-first encoding and the
        boundary-label-preserving automorphism group (``canonical_form``)."""
        return canonical_form(self.sigma, self.alpha, self.dart_labels())

    @property
    def aut_order(self) -> int:
        """Order of the group of ``aut_boundary``, without copying it."""
        return len(self._canonical_form[1])

    def genus(self) -> int:
        # connected and trivalent (__post_init__): chi = 2 - 2g with g >= 0
        chi = self.vertex_count - self.edge_count + len(self.boundary_cycles)
        return (2 - chi) // 2

    def to_dict(self) -> dict:
        return {
            "darts": self.dart_count,
            "sigma": [list(c) for c in orbits(self.sigma)],
            "alpha": [list(e) for e in self.edges],
            "boundary_labels": {
                str(i): label for i, label in enumerate(self.boundary_labels)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RibbonGraph":
        n = sum(len(cycle) for cycle in data["sigma"])
        if data["darts"] != n or n > 256:  # canonical codes number darts in bytes
            raise RibbonGraphError(f"{data['darts']} darts declared, {n} in sigma; at most 256")
        sigma, alpha = [None] * n, [None] * n
        for cycle in data["sigma"]:
            for i, d in enumerate(cycle):
                sigma[d] = cycle[(i + 1) % len(cycle)]
        for d, e in data["alpha"]:
            alpha[d], alpha[e] = e, d
        if None in sigma or None in alpha:
            raise RibbonGraphError("sigma cycles / alpha pairs do not cover all darts")
        raw = data["boundary_labels"]
        labels = tuple(raw[str(i)] for i in range(len(raw)))
        if not all(type(x) is int and 0 <= x < 256 for x in labels):  # code bytes too
            raise RibbonGraphError(f"boundary labels {labels} are not integers in 0..255")
        return cls(tuple(sigma), tuple(alpha), labels)


def canonical_form(sigma, alpha, labels) -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """The least breadth-first encoding of (sigma, alpha) with per-dart
    ``labels``, and the automorphisms that keep the labels.

    From a base dart, each dart in breadth-first order contributes the new
    numbers of its sigma and alpha images and its label.  Only bases with
    the least (loop flag, label) are tried; isomorphisms keep both, so the
    tried bases are a union of group orbits.  Two bases tie exactly when the
    automorphism mapping the i-th dart of one order to the i-th of the other
    exists, and an automorphism is fixed by the image of one dart, so the
    ties, read against the first, are the group (ascending dart maps).
    """
    n = len(sigma)
    opening = [(alpha[d] != sigma[d], labels[d]) for d in range(n)]
    least = min(opening)
    best, tied = None, []
    for base in range(n):
        if opening[base] != least:
            continue
        new = [-1] * n  # old dart -> new index
        order = [base]  # new index -> old dart
        new[base] = 0
        for d in order:
            for e in (sigma[d], alpha[d]):
                if new[e] == -1:
                    new[e] = len(order)
                    order.append(e)
        candidate = bytes([x for d in order for x in (new[sigma[d]], new[alpha[d]], labels[d])])
        if best is None or candidate < best:
            best, first, tied = candidate, new, [order]
        elif candidate == best:
            tied.append(order)
    # dart d has index first[d] in the first order
    return best, tuple(sorted(tuple(order[i] for i in first) for order in tied))


@lru_cache(maxsize=1)
def _check_darts(sigma: tuple[int, ...], alpha: tuple[int, ...]) -> None:
    """Raise RibbonGraphError unless sigma and alpha form a connected
    trivalent ribbon graph.

    Catalogs and ``enumerate_ribbon_cells`` build one matching's graphs in
    a row, so remembering the last pair that passed validates each once.
    """
    n = len(sigma)
    if len(alpha) != n:
        raise RibbonGraphError("sigma and alpha act on different dart sets")
    if sorted(sigma) != list(range(n)) or sorted(alpha) != list(range(n)):
        raise RibbonGraphError("sigma and alpha must be permutations of 0..2E-1")
    for d in range(n):
        if alpha[d] == d:
            raise RibbonGraphError(f"alpha fixes dart {d}")
        if alpha[alpha[d]] != d:
            raise RibbonGraphError("alpha is not an involution")
    for cycle in orbits(sigma):
        if len(cycle) != 3:
            raise RibbonGraphError("all sigma cycles must have length 3 (trivalent)")
    if not _connected(sigma, alpha):
        raise RibbonGraphError("ribbon graph is not connected")


def _connected(sigma, alpha) -> bool:
    n = len(sigma)
    if n == 0:
        return False
    reached = {0}
    stack = [0]
    while stack:
        d = stack.pop()
        for e in (sigma[d], alpha[d]):
            if e not in reached:
                reached.add(e)
                stack.append(e)
    return len(reached) == n


def dualize(t: Triangulation) -> RibbonGraph:
    """Ribbon graph of the barycentric dual polytope's 1-skeleton.

    One dart per (face, slot); rotations follow the cyclic corner order of
    each face, the involution follows the slot gluing.  The boundary cycle
    whose darts issue from corner-class k is labelled k.
    """
    n = 3 * t.n2
    sigma = corner_rotation(n)
    alpha = [None] * n
    for (f, i), (g, j) in t.gluing:
        alpha[3 * f + i], alpha[3 * g + j] = 3 * g + j, 3 * f + i
    alpha = tuple(alpha)

    labels = []
    for cycle in boundary_cycles(sigma, alpha):
        # dart 3f+i issues from corner i of face f
        sources = {t.faces[d // 3][d % 3] for d in cycle}
        if len(sources) != 1:
            raise TriangulationError("boundary cycle meets more than one vertex label")
        labels.append(sources.pop())
    graph = RibbonGraph(sigma, alpha, tuple(labels))
    if graph.genus() != t.genus:
        raise TriangulationError("dual graph genus disagrees with the triangulation")
    return graph


def aut_boundary(graph: RibbonGraph) -> tuple[int, list[tuple[int, ...]]]:
    """Order and elements of the boundary-label-preserving automorphism group,
    as ascending dart permutations read off the ``canonical_code`` pass."""
    return graph.aut_order, list(graph._canonical_form[1])


def canonical_code(graph: RibbonGraph) -> bytes:
    """Canonical byte string, invariant under dart relabelling.

    Two labelled ribbon graphs have equal codes iff they are related by an
    orientation-preserving, boundary-label-preserving isomorphism.

    The code is the least labelled ``canonical_form`` encoding.  One from
    ``base`` opens with ``(1, 1 or 2, label)``: the middle byte is 1 exactly
    when ``alpha[base] == sigma[base]`` (a loop), so only bases with the
    least (loop flag, label) can give the least encoding.  Dart numbers
    are bytes, so a graph may have at most 256 darts.
    """
    return graph._canonical_form[0]
