import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, prod

import pytest
from conftest import compositions, term_by_term_F

from dtregge import intersection
from dtregge.intersection import (
    GenusError,
    TauQuery,
    generating_F,
    intersection_number,
    tau,
)


def _string_reduction_genus0(ds):
    """Independent oracle: genus-0 numbers by pure string-equation descent.

    Any on-shell genus-0 set with n > 3 points contains a zero exponent
    (sum d = n - 3 < n), so descent always terminates at <tau_0^3> = 1.
    """
    ds = sorted(ds)
    n = len(ds)
    if n < 3 or sum(ds) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)  # forced to be (0, 0, 0)
    rest = ds[1:]  # ds[0] == 0
    total = Fraction(0)
    for j in range(len(rest)):
        if rest[j] >= 1:
            total += _string_reduction_genus0(
                rest[:j] + [rest[j] - 1] + rest[j + 1:]
            )
    return total


def _on_shell_sets(genus, n):
    target = n + 3 * genus - 3

    def rec(remaining, parts):
        if parts == 1:
            yield (remaining,)
            return
        for first in range(remaining + 1):
            for rest in rec(remaining - first, parts - 1):
                yield (first,) + rest

    if target >= 0:
        yield from rec(target, n)


def test_genus0_matches_string_reduction_oracle():
    for n in range(3, 9):
        for ds in _on_shell_sets(0, n):
            assert tau(0, ds) == _string_reduction_genus0(list(ds))
            # closed form, independent of any descent
            assert tau(0, ds) == Fraction(factorial(n - 3), prod(map(factorial, ds)))


def test_base_values():
    assert tau(0, (0, 0, 0)) == 1
    assert tau(0, (1, 0, 0, 0)) == 1
    assert tau(0, (2, 0, 0, 0, 0)) == 1
    assert tau(0, (1, 1, 0, 0, 0)) == 2
    assert tau(1, (1,)) == Fraction(1, 24)
    assert tau(1, (0, 2)) == Fraction(1, 24)


def test_dimension_filter_on_random_queries():
    rng = random.Random(1234)
    for _ in range(1000):
        g = rng.randint(0, 1)
        n = rng.randint(1, 6)
        ds = tuple(rng.randint(0, 5) for _ in range(n))
        query = TauQuery(g, ds)
        if not query.on_shell:
            assert intersection_number(query) == 0
        else:
            assert intersection_number(query) == tau(g, ds)


def test_string_equation_identity():
    rng = random.Random(77)
    for _ in range(50):
        g = rng.randint(0, 1)
        n = rng.randint(max(1, 3 - 0), 6)
        target = n + 3 * g - 2  # so that (0, ds) is on shell with n+1 points
        if target < 0:
            continue
        ds = []
        remaining = target
        for i in range(n):
            top = remaining if i == n - 1 else rng.randint(0, remaining)
            ds.append(top if i == n - 1 else top)
            remaining -= ds[-1]
        ds = tuple(ds)
        lhs = tau(g, (0,) + ds)
        rhs = sum(
            tau(g, ds[:j] + (ds[j] - 1,) + ds[j + 1:])
            for j in range(n)
            if ds[j] >= 1
        )
        assert lhs == rhs
    for g in (2, 3):
        for n in range(2, 5):
            for ds in _on_shell_sets(g, n):
                if ds[0] == 0:
                    rhs = sum(
                        tau(g, ds[1:j] + (ds[j] - 1,) + ds[j + 1:])
                        for j in range(1, n)
                        if ds[j] >= 1
                    )
                    assert tau(g, ds) == rhs


def test_dilaton_equation_identity():
    for g, ds in [(0, (0, 0, 0)), (0, (1, 0, 0, 0)), (1, (1,)), (1, (0, 2))]:
        n = len(ds)
        assert tau(g, (1,) + ds) == (2 * g - 2 + n) * tau(g, ds)
    for g, top in ((2, 3), (3, 2)):
        for n in range(1, top + 1):
            for ds in _on_shell_sets(g, n):
                assert tau(g, (1,) + ds) == (2 * g - 2 + n) * tau(g, ds)


def test_higher_genus_values():
    """The library computes every genus: only the command line gates genus >= 2."""
    assert tau(2, (4,)) == Fraction(1, 1152)
    assert tau(2, (2, 3)) == Fraction(29, 5760)
    assert tau(3, (7,)) == Fraction(1, 82944)
    # one-point formula <tau_{3g-2}>_g = 1/(24^g g!)
    for g in range(1, 9):
        assert tau(g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g))


def test_negative_inputs_rejected():
    with pytest.raises(GenusError):
        TauQuery(-1, (0,))
    with pytest.raises(ValueError):
        TauQuery(0, (-1, 0, 0))


def test_generating_function_values():
    assert generating_F(0, (2, 2, 2)) == 1
    assert generating_F(0, (3, 3, 3, 3)) == 36
    assert generating_F(1, (6,)) == Fraction(3, 2)
    assert generating_F(1, (6, 6)) == 108
    assert generating_F(0, (2, 2, 4, 4)) == 40


def test_generating_function_rejects_unstable_keys():
    for genus, q in ((0, (2, 2)), (0, ()), (1, ())):
        with pytest.raises(ValueError, match="^no stable moduli space"):
            generating_F(genus, q)


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_generating_function_without_boundaries_is_zero(genus):
    """At N0 = 0 the one delta, (), is off shell at genus >= 2, so F_g is 0."""
    assert list(intersection._compositions(3 * genus - 3, 0)) == []
    assert list(intersection._compositions(0, 0)) == [()]
    assert generating_F(genus, ()) == term_by_term_F(genus, ()) == 0


#: Every (g, N0) with N0 >= 1 and 0 <= N0 + 3g - 3 <= 6.
SMALL_KEYS = [(g, n0) for g in range(3) for n0 in range(1, 10) if 0 <= n0 + 3 * g - 3 <= 6]


@pytest.mark.parametrize("genus, n0", SMALL_KEYS)
def test_generating_function_equals_the_term_by_term_sum(genus, n0):
    rng = random.Random(100 * genus + n0)
    for _ in range(3):
        integers = [rng.randint(1, 12) for _ in range(n0)]
        rationals = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(n0)]
        for q in (integers, rationals):
            assert generating_F(genus, q) == term_by_term_F(genus, q)


@pytest.mark.parametrize("genus, q, error, message", [
    (0, (2, 2), ValueError, "no stable moduli space for g=0, N0=2"),
    (1, (), ValueError, "no stable moduli space for g=1, N0=0"),
    (-1, (2, 2, 2), ValueError, "no stable moduli space for g=-1, N0=3"),
    (-1, (2,) * 6, GenusError, "genus must be nonnegative"),
], ids=["g0-n2", "g1-n0", "g-1-n3", "g-1-n6"])
def test_generating_function_raises_what_the_term_by_term_sum_raises(genus, q, error, message):
    for evaluate in (generating_F, term_by_term_F):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            evaluate(genus, q)
        assert type(caught.value) is error


def test_generating_function_reads_each_intersection_number_once(monkeypatch):
    """However many q it is evaluated at, F_g calls ``intersection_number``
    once per on-shell delta per (g, N0) in a process."""
    monkeypatch.setattr(
        intersection, "_F_terms", lru_cache(maxsize=None)(intersection._F_terms.__wrapped__)
    )
    calls, read = Counter(), intersection.intersection_number

    def counting(query):
        calls[query.genus, query.exponents] += 1
        return read(query)

    monkeypatch.setattr(intersection, "intersection_number", counting)
    keys = [(0, 4), (0, 5), (1, 2), (1, 3), (2, 2)]
    for genus, n0 in keys:
        for q in product((1, 2, Fraction(3, 2)), repeat=n0):
            generating_F(genus, q)
    assert set(calls.values()) == {1}
    assert set(calls) == {
        (genus, delta) for genus, n0 in keys for delta in compositions(n0 + 3 * genus - 3, n0)
    }
