"""Closed oriented surfaces as Delta-complexes of labelled triangles.

A triangulation is a list of faces, each carrying three cyclically ordered
vertex labels, together with a gluing that pairs every directed edge slot
with its oppositely oriented partner.  Multi-incidences are allowed (the
double triangle and the one-vertex torus are valid), a face glued to itself
along one of its own slots is not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class TriangulationError(ValueError):
    """Raised when face/gluing data does not describe a valid closed surface."""


# A slot is a pair (face, i) with i in 0..2; slot i is the directed edge
# from corner i to corner i+1 mod 3.
Slot = tuple[int, int]


@dataclass(frozen=True)
class Triangulation:
    vertex_count: int
    faces: tuple[tuple[int, int, int], ...]
    gluing: tuple[tuple[Slot, Slot], ...]
    genus: int

    @property
    def n0(self) -> int:
        return self.vertex_count

    @property
    def n2(self) -> int:
        return len(self.faces)

    @property
    def n1(self) -> int:
        return 3 * len(self.faces) // 2

    def partner(self, slot: Slot) -> Slot:
        return _partner_map(self.gluing)[slot]

    def slot_vertices(self, slot: Slot) -> tuple[int, int]:
        f, i = slot
        return self.faces[f][i], self.faces[f][(i + 1) % 3]

    def to_dict(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "faces": [list(face) for face in self.faces],
            "gluing": [[list(s), list(t)] for s, t in self.gluing],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Triangulation":
        faces = [tuple(face) for face in data["faces"]]
        gluing = [(tuple(s), tuple(t)) for s, t in data["gluing"]]
        return build_triangulation(data["vertex_count"], faces, gluing)


def _partner_map(gluing) -> dict[Slot, Slot]:
    partner = {}
    for s, t in gluing:
        partner[s] = t
        partner[t] = s
    return partner


def build_triangulation(vertex_count, face_corner_labels, slot_gluing) -> Triangulation:
    """Validate face/gluing data and return a Triangulation.

    The gluing may be given in any pair order; it is stored in a canonical
    internal ordering so that identical input data always yields an
    identical representation.
    """
    faces = tuple(tuple(face) for face in face_corner_labels)
    n2 = len(faces)
    if n2 == 0 or n2 % 2 != 0:
        raise TriangulationError("the number of faces must be a positive even integer")
    if vertex_count < 1:
        raise TriangulationError("vertex_count must be positive")
    for face in faces:
        if len(face) != 3 or any(not (1 <= v <= vertex_count) for v in face):
            raise TriangulationError(f"face {face} has labels outside 1..{vertex_count}")

    slots = [(f, i) for f in range(n2) for i in range(3)]
    slot_set = set(slots)
    pairs = []
    seen: dict[Slot, Slot] = {}
    for raw in slot_gluing:
        s, t = tuple(map(tuple, raw))
        if s not in slot_set or t not in slot_set:
            raise TriangulationError(f"gluing refers to unknown slot: {s} ~ {t}")
        if s[0] == t[0]:
            raise TriangulationError(f"face {s[0]} is glued to itself along a slot")
        for x in (s, t):
            if x in seen:
                raise TriangulationError(f"slot {x} is matched more than once")
        seen[s] = t
        seen[t] = s
        pairs.append((min(s, t), max(s, t)))
    if len(seen) != 3 * n2:
        missing = [s for s in slots if s not in seen]
        raise TriangulationError(f"unmatched slots: {missing}")
    pairs.sort()
    gluing = tuple(pairs)

    # connectivity through shared edges
    adj: dict[int, set[int]] = {f: set() for f in range(n2)}
    for s, t in gluing:
        adj[s[0]].add(t[0])
        adj[t[0]].add(s[0])
    stack, reached = [0], {0}
    while stack:
        f = stack.pop()
        for h in adj[f]:
            if h not in reached:
                reached.add(h)
                stack.append(h)
    if len(reached) != n2:
        raise TriangulationError("disconnected complex")

    # corner classes must coincide with the labels, so glued slots carry reversed pairs
    classes = corner_classes(faces, gluing)
    if len(classes) != vertex_count:
        raise TriangulationError(
            f"gluing induces {len(classes)} vertices but vertex_count is {vertex_count}"
        )
    for cls_corners in classes:
        labels = {faces[f][c] for f, c in cls_corners}
        if len(labels) != 1:
            raise TriangulationError("corners identified by the gluing carry different labels")
    labels_used = {faces[f][c] for f in range(n2) for c in range(3)}
    if labels_used != set(range(1, vertex_count + 1)):
        raise TriangulationError("every vertex label in 1..N0 must occur in a corner")

    # a closed connected oriented surface: chi = N0 - N1 + N2 = 2 - 2g, g >= 0
    return Triangulation(vertex_count, faces, gluing, (2 - vertex_count + n2 // 2) // 2)


@lru_cache(maxsize=None)
def corner_rotation(n: int) -> tuple[int, ...]:
    """The rotation sigma of n = 3 N2 darts: dart 3f+i, which stands for
    slot (f, i) and for corner (f, i), turns to 3f + (i+1) mod 3."""
    return tuple(d + 1 if d % 3 < 2 else d - 2 for d in range(n))


def orbits(perm) -> list[tuple[int, ...]]:
    """Cycles of a permutation, each starting at its least element, sorted."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = perm[d]
        cycles.append(tuple(cycle))
    return cycles


@lru_cache(maxsize=1)
def boundary_cycles(sigma, alpha) -> tuple[tuple[int, ...], ...]:
    """Orbits of sigma o alpha (first alpha, then sigma), as ``orbits`` gives
    them: the vertices of a triangulation and the boundaries of its dual.
    The one place that composes the two.  Both must be tuples.  The labelled
    cells of a class are built in a row, so remembering the last pair hands
    all of them one tuple.
    """
    return tuple(orbits([sigma[a] for a in alpha]))


def corner_classes(faces, gluing) -> list[frozenset[tuple[int, int]]]:
    """Partition of the corners (face, corner) into geometric vertices.

    With dart 3f+i for corner (f, i) and alpha the slot gluing, the classes
    are the orbits of sigma o alpha: slot (f, i) runs from corner i to
    corner i+1, its partner (g, j) runs the same edge backwards, so corner
    (f, i) meets corner (g, j+1).  ``gluing`` must match every slot.
    Classes come in the order of their least corner.
    """
    n = 3 * len(faces)
    alpha = [0] * n
    for (f, i), (g, j) in gluing:
        alpha[3 * f + i], alpha[3 * g + j] = 3 * g + j, 3 * f + i
    return [
        frozenset(divmod(d, 3) for d in orbit)
        for orbit in boundary_cycles(corner_rotation(n), tuple(alpha))
    ]


def curvature_assignments(t: Triangulation) -> tuple[int, ...]:
    """q(k) = number of face corners carrying vertex label k."""
    q = [0] * t.vertex_count
    for face in t.faces:
        for v in face:
            q[v - 1] += 1
    return tuple(q)


def deficit_angles(t: Triangulation) -> tuple[Fraction, ...]:
    """Deficit angles r(k) = 2*pi - q(k)*pi/3 as exact coefficients of pi."""
    return tuple(2 - Fraction(q, 3) for q in curvature_assignments(t))


def gauss_bonnet_check(t: Triangulation) -> tuple[Fraction, bool]:
    """Total curvature (as a coefficient of pi) and whether it equals 2*chi."""
    total = sum(deficit_angles(t), Fraction(0))
    return total, total == 2 * (2 - 2 * t.genus)
