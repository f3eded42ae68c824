"""Kontsevich's Laplace-side identity at keys too slow for the test suite.

    PYTHONPATH=src python3 tests/laplace_identity.py G N0

checks, at two seeded rational lambda, the identity that
``test_pairing.test_kontsevich_laplace_identity_on_the_cells`` checks at
N2 <= 6, with the same helper: the cell sum over
``enumerate_ribbon_cells(G, N0)`` against the intersection numbers of
genus G.  It prints one line per seed and exits 1 when the two sides
differ.  (1, 4) and (3, 1) take under a minute each on one core, and
(3, 1) ties the 1726 genus-3 cells to <tau_7>_3 = 1/82944; (0, 6) takes
a few minutes.  pytest does not collect this file, as its name does not
start with ``test_``.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction

from test_pairing import _kontsevich_sides


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    genus, n0 = map(int, argv)
    failed = False
    for seed in (1, 2):
        rng = random.Random(100 * genus + 10 * n0 + seed)
        lam = {
            k: Fraction(rng.randint(1, 40), rng.randint(1, 40)) for k in range(1, n0 + 1)
        }
        start = time.perf_counter()
        left, right = _kontsevich_sides(genus, n0, lam)
        holds = left == right != 0
        failed |= not holds
        print(
            f"g={genus} N0={n0} seed {seed}: {'holds' if holds else 'FAILS'} "
            f"in {time.perf_counter() - start:.1f} s"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
