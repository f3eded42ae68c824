from fractions import Fraction

import pytest

from conftest import divisor
from dtregge.catalog import enumerate_triangulations
from dtregge.triangulation import (
    Triangulation,
    TriangulationError,
    build_triangulation,
    corner_classes,
    curvature_assignments,
    deficit_angles,
    gauss_bonnet_check,
)


def test_theta_sphere_counts(theta_sphere):
    assert theta_sphere.n0 == 3
    assert theta_sphere.n1 == 3
    assert theta_sphere.n2 == 2
    assert theta_sphere.genus == 0
    assert curvature_assignments(theta_sphere) == (2, 2, 2)


def test_one_vertex_torus_counts(one_vertex_torus):
    assert one_vertex_torus.n0 == 1
    assert one_vertex_torus.n1 == 3
    assert one_vertex_torus.genus == 1
    assert curvature_assignments(one_vertex_torus) == (6,)


def test_corner_classes_partition_all_corners(theta_sphere):
    classes = corner_classes(theta_sphere.faces, theta_sphere.gluing)
    corners = {c for cls in classes for c in cls}
    assert corners == {(f, c) for f in range(2) for c in range(3)}
    assert sorted(len(cls) for cls in classes) == [2, 2, 2]


def test_deficit_angles_and_gauss_bonnet(theta_sphere, one_vertex_torus):
    assert deficit_angles(theta_sphere) == (Fraction(4, 3),) * 3
    total, ok = gauss_bonnet_check(theta_sphere)
    assert ok and total == 4  # 2 * chi(S^2) = 4, in units of pi
    assert deficit_angles(one_vertex_torus) == (Fraction(0),)
    total, ok = gauss_bonnet_check(one_vertex_torus)
    assert ok and total == 0


def test_divisor_degree_matches_euler(theta_sphere, one_vertex_torus):
    for t in (theta_sphere, one_vertex_torus):
        data = divisor(t)
        # degree of the curvature divisor is -chi with these weights
        assert data.degree == -(2 - 2 * t.genus)
        assert data.euler_number == 0
        assert data.divisor_coeffs == tuple(
            Fraction(qk, 6) - 1 for qk in data.q
        )


def test_partner_and_slot_vertices(theta_sphere):
    for s, t in theta_sphere.gluing:
        assert theta_sphere.partner(s) == t
        assert theta_sphere.partner(t) == s
        a = theta_sphere.slot_vertices(s)
        b = theta_sphere.slot_vertices(t)
        assert a == (b[1], b[0])


def test_rejects_self_glued_face():
    with pytest.raises(TriangulationError):
        build_triangulation(
            1, [(1, 1, 1), (1, 1, 1)],
            [((0, 0), (0, 1)), ((0, 2), (1, 0)), ((1, 1), (1, 2))],
        )


def test_rejects_odd_face_count():
    with pytest.raises(TriangulationError):
        build_triangulation(1, [(1, 1, 1)], [])


def test_rejects_unmatched_slots(theta_sphere):
    with pytest.raises(TriangulationError):
        build_triangulation(3, theta_sphere.faces, theta_sphere.gluing[:-1])


def test_rejects_label_mismatch_across_gluing():
    with pytest.raises(TriangulationError):
        build_triangulation(
            3,
            [(1, 2, 3), (1, 2, 3)],
            [((0, 0), (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))],
        )


def test_rejects_a_face_with_two_labels_swapped():
    """Swapping two corner labels of a face breaks the reversed vertex pair
    across its gluings; the corner-class label check rejects every case."""
    cases = 0
    for q in [(3, 3, 3, 3), (2, 3, 3, 4), (2, 2, 4, 4)]:
        for entry in enumerate_triangulations(0, 4, q).entries:
            t = entry.triangulation
            for f, (a, b, c) in enumerate(t.faces):
                assert a != b
                faces = [*t.faces[:f], (b, a, c), *t.faces[f + 1:]]
                with pytest.raises(TriangulationError, match="carry different labels"):
                    build_triangulation(t.vertex_count, faces, t.gluing)
                cases += 1
    assert cases == 12


def test_rejects_disconnected_complex(theta_sphere):
    faces = theta_sphere.faces * 2
    gluing = list(theta_sphere.gluing) + [
        ((f + 2, i), (g + 2, j)) for (f, i), (g, j) in theta_sphere.gluing
    ]
    with pytest.raises(TriangulationError):
        build_triangulation(3, faces, gluing)


def test_round_trip_preserves_representation(theta_sphere, one_vertex_torus):
    for t in (theta_sphere, one_vertex_torus):
        again = Triangulation.from_dict(t.to_dict())
        assert again == t
        assert again.to_dict() == t.to_dict()
