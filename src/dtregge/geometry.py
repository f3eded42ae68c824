"""Metric dictionary between a Regge star and its dual polygon.

Squared lengths are the primitive quantities: every half-edge relation is
rational in squared edge lengths, so identity checks stay exact.  Square
roots are taken only at presentation boundaries.  ``check median`` reads
this module; the deficit angle and the exact linearization at the
equilateral point are test cross-checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


class DegenerateTriangleError(ValueError):
    """A triangle in the fan violates the strict triangle inequality."""


@dataclass(frozen=True)
class CornerFan:
    """Split-open star of a vertex: q spokes and q link edges, cyclic.

    ``spokes_sq[a]`` is the squared length of the edge from the vertex to
    link vertex a; ``links_sq[a]`` is the squared length of the link edge
    opposite the vertex in triangle a (between link vertices a and a+1).
    """

    spokes_sq: tuple[Fraction, ...]
    links_sq: tuple[Fraction, ...]

    def __post_init__(self):
        q = len(self.spokes_sq)
        if q < 2 or len(self.links_sq) != q:
            raise ValueError("a fan needs q >= 2 spokes and q link edges")
        if any(s <= 0 for s in self.spokes_sq) or any(s <= 0 for s in self.links_sq):
            raise DegenerateTriangleError("all squared lengths must be positive")
        for a in range(q):
            sides = (self.spokes_sq[a], self.spokes_sq[(a + 1) % q], self.links_sq[a])
            if not _strict_triangle_sq(*sides):
                raise DegenerateTriangleError(
                    f"triangle {a} with squared sides {sides} is degenerate"
                )

    @property
    def q(self) -> int:
        return len(self.spokes_sq)

    @classmethod
    def from_lengths(cls, spokes, links) -> "CornerFan":
        return cls(
            tuple(Fraction(x) ** 2 for x in spokes),
            tuple(Fraction(x) ** 2 for x in links),
        )

    @classmethod
    def equilateral(cls, q: int, a=1) -> "CornerFan":
        s = Fraction(a) ** 2
        return cls((s,) * q, (s,) * q)


def _strict_triangle_sq(a2, b2, c2) -> bool:
    # a + b > c with squared inputs, for every assignment of the long side
    for x2, y2, z2 in ((a2, b2, c2), (b2, c2, a2), (c2, a2, b2)):
        rhs = z2 - x2 - y2
        if rhs >= 0 and 4 * x2 * y2 <= rhs * rhs:
            return False
    return True


@dataclass(frozen=True)
class DualLengths:
    """Squared half-edge lengths of the dual polygon around one vertex.

    ``plus_sq[a]`` is (L+_a)^2, ``minus_sq[a]`` is (L-_a)^2 and
    ``link_sq[a]`` is (L-_{a,a+1})^2, all exact rationals.
    """

    plus_sq: tuple[Fraction, ...]
    minus_sq: tuple[Fraction, ...]
    link_sq: tuple[Fraction, ...]

    @property
    def q(self) -> int:
        return len(self.plus_sq)

    def lengths(self) -> tuple[float, ...]:
        """Dual edge lengths L_a = L-_a + L+_a (presentation values)."""
        return tuple(
            math.sqrt(m) + math.sqrt(p) for m, p in zip(self.minus_sq, self.plus_sq)
        )


def half_edge_lengths(fan: CornerFan) -> DualLengths:
    """Half-edge lengths of the dual cell from the fan's squared lengths.

    36 (L+_a)^2 = 2 l_a^2 + 2 l_{a,a+1}^2 - l_{a+1}^2 and its two cyclic
    companions; every radicand must be strictly positive.
    """
    q = fan.q
    s, k = fan.spokes_sq, fan.links_sq
    plus, minus, link = [], [], []
    for a in range(q):
        a1, a2 = (a + 1) % q, (a + 2) % q
        p = Fraction(2 * s[a] + 2 * k[a] - s[a1], 36)
        m = Fraction(2 * s[a2] + 2 * k[a1] - s[a1], 36)
        w = Fraction(2 * s[a] + 2 * s[a1] - k[a], 36)
        if p <= 0 or m <= 0 or w <= 0:
            raise DegenerateTriangleError(
                f"nonpositive radicand at corner {a}: the fan is degenerate"
            )
        plus.append(p)
        minus.append(m)
        link.append(w)
    return DualLengths(tuple(plus), tuple(minus), tuple(link))


def random_fan(rng: random.Random) -> CornerFan:
    """A random nondegenerate corner fan with rational edge lengths."""
    while True:
        q = rng.randint(2, 6)
        spokes = [Fraction(rng.randint(20, 60), 10) for _ in range(q)]
        links = []
        for a in range(q):
            low = abs(spokes[a] - spokes[(a + 1) % q])
            high = spokes[a] + spokes[(a + 1) % q]
            links.append(low + Fraction(rng.randint(1, 9), 10) * (high - low))
        try:
            fan = CornerFan.from_lengths(spokes, links)
            half_edge_lengths(fan)
            return fan
        except ValueError:
            continue


def median_identity_check(dual: DualLengths) -> bool:
    """Sum over a of (L-_{a-1})^2 - (L+_a)^2 vanishes exactly."""
    q = dual.q
    total = sum(
        (dual.minus_sq[(a - 1) % q] - dual.plus_sq[a] for a in range(q)),
        Fraction(0),
    )
    return total == 0
