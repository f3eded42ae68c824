"""Intersection numbers <tau_{d_1} ... tau_{d_n}>_g and their generating
function F_g(q), all as exact rationals.

Nonzero only on shell, i.e. when sum d_i = n + 3g - 3.  Every genus uses
one recursion, the Virasoro (DVV) step on the smallest insertion, which is
the string equation at tau_0 and the dilaton equation at tau_1 and ends at
<tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  The library computes every genus;
only the command line gates genus >= 2 behind ``--enable-dvv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, lcm, prod


class GenusError(ValueError):
    """Requested genus is outside the supported range."""


class ExponentError(ValueError):
    """A requested psi-class exponent is negative."""


@dataclass(frozen=True)
class TauQuery:
    genus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        if self.genus < 0:
            raise GenusError("genus must be nonnegative")
        if any(d < 0 for d in self.exponents):
            raise ExponentError("exponents must be nonnegative")

    @property
    def on_shell(self) -> bool:
        return sum(self.exponents) == len(self.exponents) + 3 * self.genus - 3


def intersection_number(query: TauQuery) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g, zero off shell."""
    if not query.on_shell:
        return Fraction(0)
    return _tau(query.genus, tuple(sorted(query.exponents)))


def tau(genus: int, exponents) -> Fraction:
    return intersection_number(TauQuery(genus, tuple(exponents)))


def _dfact(k: int) -> int:
    """(2k+1)!! for k >= -1."""
    return prod(range(1, 2 * k + 2, 2))


@lru_cache(maxsize=None)
def _tau(g: int, ds: tuple[int, ...]) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g for ds sorted ascending; zero off shell,
    at negative genus and when 2g - 2 + n <= 0.

    Past <tau_0^3>_0 = 1 and <tau_1>_1 = 1/24, the DVV step on the
    smallest insertion k:

    (2k+1)!! <tau_k prod tau_{d_i}>_g
      = sum_j (2k+2d_j-1)!!/(2d_j-1)!! <tau_{k+d_j-1} prod_{i!=j}>_g
      + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b prod>_{g-1}
      + sum over splittings <tau_a ...>_{g'} <tau_b ...>_{g-g'} ]

    At k = 0 it is the string equation and at k = 1 the dilaton equation,
    so genus 0 and genus 1 never reach the splitting sum.
    """
    n = len(ds)
    if g < 0 or sum(ds) != n + 3 * g - 3 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if g == 0 and n == 3:  # on shell, ds is (0, 0, 0)
        return Fraction(1)
    if g == 1 and n == 1:  # on shell, ds is (1,)
        return Fraction(1, 24)
    k, rest = ds[0], ds[1:]
    total = Fraction(0)
    for j, d in enumerate(rest):
        if k + d:  # a tau_{-1} term is zero
            lowered = tuple(sorted(rest[:j] + (k + d - 1,) + rest[j + 1:]))
            total += Fraction(_dfact(k + d - 1), _dfact(d - 1)) * _tau(g, lowered)
    for a in range(k - 1):
        b = k - 2 - a
        weight = Fraction(_dfact(a) * _dfact(b), 2)
        total += weight * _tau(g - 1, tuple(sorted(rest + (a, b))))
        for g1 in range(g + 1):
            for size in range(n):
                for subset in combinations(range(n - 1), size):
                    left = tuple(sorted((a,) + tuple(rest[i] for i in subset)))
                    right = tuple(sorted(
                        (b,) + tuple(rest[i] for i in range(n - 1) if i not in subset)
                    ))
                    total += weight * _tau(g1, left) * _tau(g - g1, right)
    return total / _dfact(k)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts < 2:  # one part takes the total, and no parts only a total of 0
        if parts or total == 0:
            yield (total,) * parts
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def generating_F(genus: int, q) -> Fraction:
    """F_g(q) = sum over delta with sum delta_i = N0 + 3g - 3 of
    prod q_i^(2 delta_i) / delta_i! * <tau_delta>_g, for any rational q and
    every genus; 0 at N0 = 0, where the one delta, (), is off shell.

    ValueError when there is no stable moduli space (2g - 2 + N0 <= 0) and
    GenusError at a negative genus, before any term.  A q then costs one
    integer sum over the terms of ``_F_terms`` and one Fraction.
    """
    q = tuple(q)
    if 2 * genus - 2 + len(q) <= 0:
        raise ValueError(f"no stable moduli space for g={genus}, N0={len(q)}")
    TauQuery(genus, ())  # GenusError at a negative genus
    denominator, terms = _F_terms(genus, len(q))
    squares = [x * x for x in q]
    return Fraction(sum(c * prod(map(pow, squares, delta)) for delta, c in terms), denominator)


@lru_cache(maxsize=None)
def _F_terms(genus: int, n0: int) -> tuple[int, tuple]:
    """The nonzero terms of F_g at N0 boundaries over one denominator D: D and
    the pairs (delta, D <tau_delta>_g / prod delta_i!), all integers, each
    <tau_delta>_g read once per process through ``intersection_number``."""
    weights = [
        (delta, intersection_number(TauQuery(genus, delta)) / prod(map(factorial, delta)))
        for delta in _compositions(n0 + 3 * genus - 3, n0)
    ]
    denominator = lcm(*(weight.denominator for _, weight in weights))
    return denominator, tuple((delta, int(w * denominator)) for delta, w in weights if w)
