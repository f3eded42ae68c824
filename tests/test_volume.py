import random
from fractions import Fraction
from itertools import product

import pytest

from dtregge.catalog import enumerate_triangulations
from dtregge.measure import ConstraintSystem, incidence_matrix
from dtregge.volume import (
    RankDeficientError,
    UnboundedPolytopeError,
    det,
    kernel_basis_and_particular,
    lebesgue_volume,
    leray_volume,
    matrix_rank,
    polytope_vertices,
    rref,
    solve_square,
)


# --- independent volume oracle: Lasserre's facet recursion on A x <= b ----


def _normalize(row, b):
    lead = next((x for x in row if x != 0), None)
    if lead is None:
        return None
    scale = Fraction(1) / abs(lead)
    return tuple(Fraction(x) * scale for x in row), Fraction(b) * scale


def _dedupe(ineqs):
    best = {}
    for row, b in ineqs:
        norm = _normalize(row, b)
        if norm is None:
            if b < 0:
                return None  # infeasible 0 <= b
            continue
        key = norm[0]
        if key not in best or norm[1] < best[key]:
            best[key] = norm[1]
    return [(list(k), v) for k, v in best.items()]


def lasserre_volume(ineqs, dim) -> Fraction:
    """Exact volume of {x : A x <= b} by recursive variable elimination."""
    ineqs = _dedupe(ineqs)
    if ineqs is None:
        return Fraction(0)
    if dim == 0:
        return Fraction(1)  # the feasible point
    if dim == 1:
        lo, hi = None, None
        for (a,), b in ineqs:
            if a > 0:
                hi = b / a if hi is None else min(hi, b / a)
            else:
                lo = b / a if lo is None else max(lo, b / a)
        if lo is None or hi is None:
            raise ValueError("unbounded interval")
        return max(Fraction(0), hi - lo)
    total = Fraction(0)
    for i, (row, b) in enumerate(ineqs):
        k = next(j for j in range(dim) if row[j] != 0)
        reduced = []
        for i2, (r2, b2) in enumerate(ineqs):
            if i2 == i:
                continue
            factor = Fraction(r2[k]) / row[k]
            nr = [r2[j] - factor * row[j] for j in range(dim)]
            del nr[k]
            reduced.append((nr, b2 - factor * b))
        total += (Fraction(b) / abs(row[k])) * lasserre_volume(reduced, dim - 1)
    return total / dim


def _kernel_polytope(system):
    basis, l0, _ = kernel_basis_and_particular(system)
    d = len(basis)
    n1 = system.n1
    rows = [[basis[j][i] for j in range(d)] for i in range(n1)]
    vertices = polytope_vertices(basis, l0)
    inequalities = [(rows[i], l0[i]) for i in range(n1)]
    # convert row.y + off >= 0 into (-row).y <= off for the oracle
    oracle_ineqs = [([-x for x in row], off) for row, off in inequalities]
    return vertices, inequalities, oracle_ineqs, d


def test_linear_algebra_basics():
    m, pivots = rref([[2, 4], [1, 3]])
    assert pivots == [0, 1]
    assert m == [[1, 0], [0, 1]]
    assert det([[2, 1], [1, 2]]) == 3
    assert det([[1, 2], [2, 4]]) == 0
    assert solve_square([[2, 0], [0, 4]], [2, 8]) == [1, 2]
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None
    assert matrix_rank([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2


def test_lasserre_oracle_on_known_bodies():
    # unit square, unit simplex, a scaled box
    square = [([1, 0], Fraction(1)), ([-1, 0], Fraction(0)),
              ([0, 1], Fraction(1)), ([0, -1], Fraction(0))]
    assert lasserre_volume(square, 2) == 1
    simplex = [([-1, 0, 0], Fraction(0)), ([0, -1, 0], Fraction(0)),
               ([0, 0, -1], Fraction(0)), ([1, 1, 1], Fraction(1))]
    assert lasserre_volume(simplex, 3) == Fraction(1, 6)
    box = [([1, 0], Fraction(3)), ([-1, 0], Fraction(0)),
           ([0, 1], Fraction(2)), ([0, -1], Fraction(0)),
           ([2, 0], Fraction(6))]  # redundant duplicate facet
    assert lasserre_volume(box, 2) == 6


def test_lebesgue_volume_matches_lasserre_on_random_polytopes():
    rng = random.Random(42)
    for _ in range(20):
        dim = rng.choice((2, 3))
        # unit box plus random cutting halfplanes through it
        ineqs = []
        for j in range(dim):
            e = [Fraction(0)] * dim
            e[j] = Fraction(1)
            ineqs.append((list(e), Fraction(1)))
            ineqs.append(([-x for x in e], Fraction(0)))
        for _ in range(rng.randint(1, 3)):
            row = [Fraction(rng.randint(-2, 2)) for _ in range(dim)]
            if all(x == 0 for x in row):
                continue
            b = Fraction(rng.randint(1, 4), 2)
            ineqs.append((row, b))
        oracle = lasserre_volume(ineqs, dim)
        # vertex enumeration route: rewrite A x <= b as (-A) x + b >= 0
        geq = [([-x for x in row], b) for row, b in ineqs]
        n = len(geq)
        vertices = set()
        from itertools import combinations
        for subset in combinations(range(n), dim):
            sol = solve_square([geq[i][0] for i in subset], [-geq[i][1] for i in subset])
            if sol is None:
                continue
            if all(sum(r * x for r, x in zip(row, sol)) + b >= 0 for row, b in geq):
                vertices.add(tuple(sol))
        assert lebesgue_volume(sorted(vertices), geq) == oracle


def _box_inequalities(dim):
    """The unit cube [0,1]^dim as A x <= b."""
    ineqs = []
    for j in range(dim):
        e = [Fraction(0)] * dim
        e[j] = Fraction(1)
        ineqs += [(e, Fraction(1)), ([-x for x in e], Fraction(0))]
    return ineqs


@pytest.mark.parametrize("name, dim, vertices, ineqs, volume", [
    ("cube", 3, list(product((0, 1), repeat=3)), _box_inequalities(3), 1),
    ("4-cube", 4, list(product((0, 1), repeat=4)), _box_inequalities(4), 1),
    # triangle x, y >= 0, x + y <= 1 times 0 <= z <= 2
    ("prism", 3, [(x, y, z) for x, y in ((0, 0), (1, 0), (0, 1)) for z in (0, 2)],
     [([-1, 0, 0], 0), ([0, -1, 0], 0), ([1, 1, 0], 1), ([0, 0, 1], 2), ([0, 0, -1], 0)],
     1),
    # unit square base in x = 0; the apex sorts first, so the recursion
    # starts there and must decompose the square
    ("pyramid", 3, [(Fraction(-1), Fraction(1, 2), Fraction(1, 2))]
     + [(0, y, z) for y in (0, 1) for z in (0, 1)],
     [([1, 0, 0], 0), ([-1, -2, 0], 0), ([-1, 2, 0], 2), ([-1, 0, -2], 0), ([-1, 0, 2], 2)],
     Fraction(1, 3)),
])
def test_lebesgue_volume_on_bodies_whose_facets_are_not_simplices(name, dim, vertices, ineqs, volume):
    """Square and cube facets make the facet recursion work below its top
    level; the volumes are exact and agree with the Lasserre oracle."""
    points = [tuple(Fraction(x) for x in p) for p in vertices]
    geq = [([-Fraction(x) for x in row], Fraction(b)) for row, b in ineqs]
    assert lasserre_volume(ineqs, dim) == volume
    assert lebesgue_volume(points, geq) == volume


def test_leray_volumes_match_lasserre_on_dual_polytopes():
    keys = [(0, 3, (2, 2, 2)), (1, 1, (6,)), (0, 4, (3, 3, 3, 3)), (0, 4, (2, 2, 4, 4))]
    for genus, n0, q in keys:
        for entry in enumerate_triangulations(genus, n0, q).entries:
            system = incidence_matrix(entry.dual)
            vertices, inequalities, oracle_ineqs, d = _kernel_polytope(system)
            assert lebesgue_volume(vertices, inequalities) == lasserre_volume(
                oracle_ineqs, d
            )


def test_reference_leray_volumes(theta_sphere, one_vertex_torus):
    from dtregge.ribbon import dualize

    theta = leray_volume(incidence_matrix(dualize(theta_sphere)))
    assert (theta.value, theta.dimension) == (Fraction(1, 2), 0)
    torus = leray_volume(incidence_matrix(dualize(one_vertex_torus)))
    assert (torus.value, torus.dimension) == (Fraction(9, 4), 2)
    k4 = enumerate_triangulations(0, 4, (3, 3, 3, 3)).entries[0]
    vol = leray_volume(incidence_matrix(k4.dual))
    assert (vol.value, vol.dimension) == (Fraction(9, 4), 2)


def test_leray_volume_invariant_under_randomized_choices(one_vertex_torus):
    from dtregge.ribbon import dualize

    system = incidence_matrix(dualize(one_vertex_torus))
    reference = leray_volume(system).value
    for seed in range(20):
        assert leray_volume(system, random.Random(seed)).value == reference


def test_unbounded_and_rank_deficient_systems():
    with pytest.raises(UnboundedPolytopeError):
        leray_volume(ConstraintSystem(((1, 0),), (Fraction(1),)))
    with pytest.raises(RankDeficientError):
        kernel_basis_and_particular(
            ConstraintSystem(((1, 1), (1, 1)), (Fraction(1), Fraction(1)))
        )
