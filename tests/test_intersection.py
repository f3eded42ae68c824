import random
from fractions import Fraction
from math import factorial, prod

import pytest

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
                        tau(g, ds[1:j] + (ds[j] - 1,) + ds[j + 1:], True)
                        for j in range(1, n)
                        if ds[j] >= 1
                    )
                    assert tau(g, ds, True) == rhs


def test_dilaton_equation_identity():
    for g, ds in [(0, (0, 0, 0)), (0, (1, 0, 0, 0)), (1, (1,)), (1, (0, 2))]:
        n = len(ds)
        assert tau(g, (1,) + ds) == (2 * g - 2 + n) * tau(g, ds)
    for g, top in ((2, 3), (3, 2)):
        for n in range(1, top + 1):
            for ds in _on_shell_sets(g, n):
                assert tau(g, (1,) + ds, True) == (2 * g - 2 + n) * tau(g, ds, True)


def test_higher_genus_gated_behind_flag():
    with pytest.raises(GenusError):
        tau(2, (4,))
    assert tau(2, (4,), enable_higher_genus=True) == Fraction(1, 1152)
    assert tau(2, (2, 3), enable_higher_genus=True) == Fraction(29, 5760)
    assert tau(3, (7,), enable_higher_genus=True) == Fraction(1, 82944)
    # one-point formula <tau_{3g-2}>_g = 1/(24^g g!)
    for g in range(1, 9):
        assert tau(g, (3 * g - 2,), enable_higher_genus=True) == Fraction(
            1, 24**g * factorial(g)
        )


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
    with pytest.raises(ValueError):
        generating_F(0, (2, 2))
