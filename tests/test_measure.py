import random
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from conftest import pullback_to_triangulation
from dtregge.catalog import enumerate_ribbon_cells, enumerate_triangulations
from dtregge.linalg import integer_det
from dtregge.measure import (
    DimensionError,
    SkewForm,
    boundary_edge_words,
    constraint_system,
    expected_kontsevich_constant,
    incidence_matrix,
    kontsevich_check,
    kontsevich_coefficient,
    pfaffian,
    total_form,
)
from dtregge.ribbon import dualize


def _pfaffian_oracle(matrix):
    """Definition as a sum over all permutations: Pf(A) =
    1/(2^m m!) sum_sigma sgn(sigma) prod A[sigma(2i), sigma(2i+1)]."""
    n = len(matrix)
    m = n // 2
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(m):
            prod *= matrix[perm[2 * i]][perm[2 * i + 1]]
            if prod == 0:
                break
        total += sign * prod
    return Fraction(total, 2 ** m * factorial(m))


def _det_oracle(matrix):
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= matrix[i][perm[i]]
        total += sign * prod
    return total


def _pfaffian_expansion(matrix):
    """Pfaffian by Laplace expansion along the first row, memoized on the
    remaining index set."""
    cache = {}

    def rec(indices):
        if not indices:
            return 1
        if indices not in cache:
            first, rest = indices[0], indices[1:]
            cache[indices] = sum(
                (-1) ** pos * matrix[first][j] * rec(rest[:pos] + rest[pos + 1:])
                for pos, j in enumerate(rest)
                if matrix[first][j]
            )
        return cache[indices]

    return rec(tuple(range(len(matrix))))


def _shuffle_sign(first, second) -> int:
    order = list(first) + list(second)
    sign = 1
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if order[i] > order[j]:
                sign = -sign
    return sign


def _subset_expansion_oracle(graph):
    """The wedge coefficient as a sum over N0-subsets S of the edges: the
    perimeter forms give det(A[:, S]) on dL_S, Omega^D / D! gives the
    Pfaffian of Omega on the complement, and the shuffle sign glues them."""
    a = incidence_matrix(graph).a
    omega = total_form(graph).matrix
    n0, n1 = len(a), len(omega)
    total = 0
    for subset in combinations(range(n1), n0):
        det = integer_det([[row[j] for j in subset] for row in a])
        if det == 0:
            continue
        complement = [j for j in range(n1) if j not in subset]
        pf = _pfaffian_expansion([[omega[i][j] for j in complement] for i in complement])
        total += _shuffle_sign(subset, complement) * det * pf
    return factorial((n1 - n0) // 2) * total


def _random_skew(rng: random.Random, n: int):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = rng.randint(-4, 4)
            m[j][i] = -m[i][j]
    return m


def test_pfaffian_against_permutation_sum_oracle():
    rng = random.Random(17)
    dims = [2, 4, 6, 8]
    for trial in range(100):
        n = dims[trial % len(dims)]
        m = _random_skew(rng, n)
        assert pfaffian(m) == _pfaffian_oracle(m)


def test_pfaffian_squares_to_determinant():
    rng = random.Random(23)
    for n in (2, 4, 6):
        for _ in range(10):
            m = _random_skew(rng, n)
            assert pfaffian(m) ** 2 == _det_oracle(m)


def test_pfaffian_rejects_odd_dimension_and_non_skew():
    with pytest.raises(DimensionError):
        pfaffian([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        pfaffian([[0, 1], [1, 0]])


def test_skew_form_validation():
    with pytest.raises(ValueError):
        SkewForm(((0, 1), (1, 0)))


@pytest.fixture
def duals(theta_sphere, one_vertex_torus):
    k4 = enumerate_triangulations(0, 4, (3, 3, 3, 3)).entries[0].dual
    return {
        "theta": dualize(theta_sphere),
        "torus": dualize(one_vertex_torus),
        "k4": k4,
    }


def test_incidence_matrix_structure(duals):
    for graph in duals.values():
        system = incidence_matrix(graph)
        # every edge carries exactly two sides in total
        for j in range(system.n1):
            assert sum(system.a[k][j] for k in range(system.n0)) == 2
        # the perimeter of each boundary is its side count
        for k in range(system.n0):
            assert sum(system.a[k]) == system.rhs[k]


def test_constraint_system_custom_perimeters(duals):
    graph = duals["theta"]
    perimeters = {1: Fraction(5), 2: Fraction(7), 3: Fraction(11)}
    system = constraint_system(graph, perimeters)
    assert system.rhs == (Fraction(5), Fraction(7), Fraction(11))


@pytest.mark.parametrize("genus,n0", [(0, 4), (1, 2), (1, 3)])
def test_constraint_rows_count_the_edges_of_each_boundary_word(genus, n0):
    """The rows, read off the boundary cycles, against the words, read one
    side at a time through ``dart_edge``, on every cell, loops included."""
    for graph in enumerate_ribbon_cells(genus, n0):
        words = boundary_edge_words(graph)
        rows = tuple(tuple(word.count(j) for j in range(graph.edge_count)) for word in words)
        assert incidence_matrix(graph).a == rows


def test_boundary_edge_words_cover_sides(duals):
    for graph in duals.values():
        words = boundary_edge_words(graph)
        assert [len(w) for w in words] == [
            len(graph.boundary_cycles[i])
            for i in sorted(
                range(len(graph.boundary_cycles)),
                key=lambda i: graph.boundary_labels[i],
            )
        ]


def test_total_form_is_skew_integer(duals):
    for graph in duals.values():
        form = total_form(graph)
        assert form.dimension == graph.edge_count


def test_expected_constants():
    assert expected_kontsevich_constant(0, 3) == 2
    assert expected_kontsevich_constant(0, 4) == 8
    assert expected_kontsevich_constant(1, 1) == 4
    with pytest.raises(DimensionError):
        expected_kontsevich_constant(0, 1)


def test_wedge_identity_on_reference_duals(duals):
    for name, graph in duals.items():
        ok, coeff, expected = kontsevich_check(graph)
        assert ok, f"{name}: |{coeff}| != {expected}"


@pytest.mark.parametrize("genus,n0", [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1)])
def test_coefficient_matches_the_subset_expansion_on_every_cell(genus, n0):
    for graph in enumerate_ribbon_cells(genus, n0):
        assert kontsevich_coefficient(graph) == _subset_expansion_oracle(graph)


def test_coefficient_matches_the_subset_expansion_at_0_6():
    for entry in enumerate_triangulations(0, 6, (4, 4, 4, 4, 4, 4)).entries:
        assert kontsevich_coefficient(entry.dual) == _subset_expansion_oracle(entry.dual)


@pytest.mark.parametrize("genus,n0,count,expected", [(2, 1, 9, 3072), (2, 2, 713, 61440)])
def test_wedge_identity_at_genus_2_on_every_cell(genus, n0, count, expected):
    cells = enumerate_ribbon_cells(genus, n0)
    assert len(cells) == count
    for graph in cells:
        assert kontsevich_check(graph) == (True, expected, expected)


def test_coefficient_rejects_wrong_dimension(theta_sphere):
    graph = dualize(theta_sphere)
    assert kontsevich_coefficient(graph) in (2, -2)


def test_pullback_is_skew_and_scaled():
    q = 4
    c = Fraction(3, 16)
    matrix = [[c if i < j else (-c if i > j else Fraction(0)) for j in range(q - 1)]
              for i in range(q - 1)]
    back = pullback_to_triangulation(matrix, q)
    assert len(back) == 2 * q
    for i in range(2 * q):
        for j in range(2 * q):
            assert back[i][j] == -back[j][i]
    assert any(any(x for x in row) for row in back)
