import pytest

from dtregge.triangulation import build_triangulation


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("DTREGGE_CACHE_DIR", str(tmp_path / "cache"))


@pytest.fixture
def theta_sphere():
    """Two triangles glued along their full boundary: genus 0, q = (2,2,2)."""
    return build_triangulation(
        3,
        [(1, 2, 3), (2, 1, 3)],
        [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))],
    )


@pytest.fixture
def one_vertex_torus():
    """Two triangles forming the square torus: genus 1, q = (6,)."""
    return build_triangulation(
        1,
        [(1, 1, 1), (1, 1, 1)],
        [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
    )


def bipyramid(k: int):
    """The sphere as two cones over a k-gon: 2k faces, 3 * 2k darts.

    Equator vertices are 1..k and the apexes k+1 (faces 0..k-1) and k+2
    (faces k..2k-1); faces i and k+i share the equator edge from i+1.
    """
    top, bottom = k + 1, k + 2
    faces = [(i + 1, (i + 1) % k + 1, top) for i in range(k)]
    faces += [((i + 1) % k + 1, i + 1, bottom) for i in range(k)]
    gluing = []
    for i in range(k):
        j = (i + 1) % k
        gluing += [((i, 0), (k + i, 0)), ((i, 1), (j, 2)), ((k + i, 2), (k + j, 1))]
    return build_triangulation(k + 2, faces, gluing)


def union_find_corner_classes(faces, gluing) -> list[frozenset]:
    """Corner classes by union-find over the gluing: an oracle for the
    orbit computation of ``triangulation.corner_classes``.

    Slot (f, i) runs from corner i to corner i+1; its partner runs the same
    edge backwards, so the source corner of one meets the target corner of
    the other.  Classes come in the order of their least corner.
    """
    n2 = len(faces)
    parent = {(f, c): (f, c) for f in range(n2) for c in range(3)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for s, t in gluing:
        union((s[0], s[1]), (t[0], (t[1] + 1) % 3))
        union((s[0], (s[1] + 1) % 3), (t[0], t[1]))

    groups: dict[tuple[int, int], set] = {}
    for corner in parent:
        groups.setdefault(find(corner), set()).add(corner)
    return [frozenset(g) for g in groups.values()]


def search_matchings(n2: int) -> tuple[tuple[int, ...], ...]:
    """The connected slot matchings of n2 faces as partner arrays, in the
    order of the gluing search: an oracle for ``catalog._matchings``, which
    finds the same matchings and classifies them while it glues.

    The lowest unmatched slot is glued to each unmatched slot above it on a
    used face, then to slot 0 of the lowest unused face; the used faces are
    found by rescanning, and nothing else is tracked.
    """
    n = 3 * n2
    partner = [-1] * n
    used = [False] * n2
    used[0] = True
    found = []

    def rec(matched: int):
        if matched == n:
            found.append(tuple(partner))
            return
        s = next(i for i in range(n) if partner[i] == -1)
        if not used[s // 3]:
            return  # the faces before s//3 closed up: disconnected
        new_face = next((f for f in range(n2) if not used[f]), None)
        candidates = [
            t for t in range(s + 1, n) if partner[t] == -1 and used[t // 3]
        ]
        if new_face is not None:
            candidates.append(3 * new_face)
        for t in candidates:
            partner[s], partner[t] = t, s
            opened = not used[t // 3]
            used[t // 3] = True
            rec(matched + 2)
            if opened:
                used[t // 3] = False
            partner[s] = partner[t] = -1

    rec(0)
    return tuple(found)
