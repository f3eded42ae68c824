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
