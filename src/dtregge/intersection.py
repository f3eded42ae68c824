"""Intersection numbers <tau_{d_1} ... tau_{d_n}>_g and their generating
function F_g(q), all as exact rationals.

Nonzero only on shell, i.e. when sum d_i = n + 3g - 3.  Every genus uses
one recursion, the Virasoro (DVV) step on the smallest insertion, which is
the string equation at tau_0 and the dilaton equation at tau_1 and ends at
<tau_0^3>_0 = 1 and <tau_1>_1 = 1/24.  Genus >= 2 is behind an opt-in flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, prod


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


def intersection_number(query: TauQuery, enable_higher_genus: bool = False) -> Fraction:
    """<tau_{d_1} ... tau_{d_n}>_g, zero off shell."""
    if not query.on_shell:
        return Fraction(0)
    if query.genus >= 2 and not enable_higher_genus:
        raise GenusError(
            "genus >= 2 requires the higher-genus recursion flag (--enable-dvv)"
        )
    return _tau(query.genus, tuple(sorted(query.exponents)))


def tau(genus: int, exponents, enable_higher_genus: bool = False) -> Fraction:
    return intersection_number(
        TauQuery(genus, tuple(exponents)), enable_higher_genus
    )


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
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def generating_F(genus: int, q, enable_higher_genus: bool = False) -> Fraction:
    """F_g(q) = sum over delta with sum delta_i = N0 + 3g - 3 of
    prod q_i^(2 delta_i) / delta_i! * <tau_delta>_g."""
    q = tuple(q)
    n0 = len(q)
    dim = n0 + 3 * genus - 3
    if dim < 0:
        raise ValueError(f"no stable moduli space for g={genus}, N0={n0}")
    total = Fraction(0)
    for delta in _compositions(dim, n0):
        value = intersection_number(TauQuery(genus, delta), enable_higher_genus)
        if value == 0:
            continue
        weight = Fraction(1)
        for qi, di in zip(q, delta):
            weight *= Fraction(qi ** (2 * di), factorial(di))
        total += weight * value
    return total
