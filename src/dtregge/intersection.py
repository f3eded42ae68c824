"""Intersection numbers <tau_{d_1} ... tau_{d_n}>_g and their generating
function F_g(q), all as exact rationals.

Nonzero only on shell, i.e. when sum d_i = n + 3g - 3.  Genus 0 uses the
closed form (n-3)!/prod d_i!; genus 1 reduces by the string and dilaton
equations to <tau_1>_1 = 1/24.  Genus >= 2 is available behind an opt-in
flag via the KdV-type recursion on the first insertion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial


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
    g, ds = query.genus, query.exponents
    n = len(ds)
    if sum(ds) != n + 3 * g - 3:
        return Fraction(0)
    if g >= 2 and not enable_higher_genus:
        raise GenusError(
            "genus >= 2 requires the higher-genus recursion flag (--enable-dvv)"
        )
    return _tau(g, tuple(sorted(ds)))


def tau(genus: int, exponents, enable_higher_genus: bool = False) -> Fraction:
    return intersection_number(
        TauQuery(genus, tuple(exponents)), enable_higher_genus
    )


@lru_cache(maxsize=None)
def _tau(g: int, ds: tuple[int, ...]) -> Fraction:
    """On-shell evaluation; ds sorted ascending, sum ds = n + 3g - 3."""
    n = len(ds)
    if g == 0:
        # moduli space is empty below 3 marked points
        if n < 3:
            return Fraction(0)
        result = Fraction(factorial(n - 3))
        for d in ds:
            result /= factorial(d)
        return result
    if g == 1:
        if n == 0:
            return Fraction(0)
        if ds == (1,):
            return Fraction(1, 24)
        if ds[0] == 0:
            # string equation: lower each remaining index in turn
            rest = ds[1:]
            total = Fraction(0)
            for j in range(len(rest)):
                if rest[j] >= 1:
                    lowered = tuple(sorted(rest[:j] + (rest[j] - 1,) + rest[j + 1:]))
                    total += _tau(1, lowered)
            return total
        # on shell with all d_i >= 1 and sum = n forces all ones; dilaton
        return _tau(1, ds[:-1]) * (2 * 1 - 2 + (n - 1))
    return _higher_genus(g, ds)


def _dfact(k: int) -> int:
    """(2k+1)!! for k >= -1."""
    result = 1
    for m in range(1, 2 * k + 2, 2):
        result *= m
    return result


def _higher_genus(g: int, ds: tuple[int, ...]) -> Fraction:
    """Recursion on the largest insertion, reducing n at fixed g or g itself.

    (2k+1)!! <tau_k prod tau_{d_i}>_g
      = sum_j (2k+2d_j-1)!!/(2d_j-1)!! <tau_{k+d_j-1} prod_{i!=j}>_g
      + 1/2 sum_{a+b=k-2} (2a+1)!!(2b+1)!! [ <tau_a tau_b prod>_{g-1}
      + sum over splittings <tau_a ...>_{g'} <tau_b ...>_{g-g'} ]
    """
    k, rest = ds[-1], ds[:-1]
    n = len(rest)
    total = Fraction(0)
    for j in range(n):
        lowered = tuple(sorted(rest[:j] + (k + rest[j] - 1,) + rest[j + 1:]))
        total += Fraction(_dfact(k + rest[j] - 1), _dfact(rest[j] - 1)) * _tau_any(
            g, lowered
        )
    for a in range(k - 1):
        b = k - 2 - a
        weight = Fraction(_dfact(a) * _dfact(b), 2)
        total += weight * _tau_any(g - 1, tuple(sorted(rest + (a, b))))
        for g1 in range(g + 1):
            g2 = g - g1
            for size in range(n + 1):
                for subset in combinations(range(n), size):
                    left = tuple(sorted((a,) + tuple(rest[i] for i in subset)))
                    right = tuple(
                        sorted((b,) + tuple(rest[i] for i in range(n) if i not in subset))
                    )
                    total += weight * _tau_any(g1, left) * _tau_any(g2, right)
    return total / _dfact(k)


def _tau_any(g: int, ds: tuple[int, ...]) -> Fraction:
    """On-shell filter plus stability filter, then the main evaluation."""
    if g < 0:
        return Fraction(0)
    n = len(ds)
    if sum(ds) != n + 3 * g - 3:
        return Fraction(0)
    if g == 0 and n < 3:
        return Fraction(0)
    if g == 1 and n < 1:
        return Fraction(0)
    return _tau(g, tuple(sorted(ds)))


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
