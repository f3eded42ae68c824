"""Kontsevich's Laplace-side identity at keys too slow for the test suite.

    PYTHONPATH=src python3 tests/laplace_identity.py G N0

checks, at two seeded rational lambda, the identity that
``test_pairing.test_kontsevich_laplace_identity_on_the_cells`` checks at
N2 <= 6 and at (3, 1), with the same helper: the cell sum over
``enumerate_ribbon_cells(G, N0)`` against the intersection numbers of
genus G.  It prints one line per seed and exits 1 when the two sides
differ.  On one core (1, 4) takes about 3 s, (0, 6) about 20 s and
(3, 1) about 1.5 s.  (3, 1) ties the 1726 genus-3 cells to
<tau_7>_3 = 1/82944.  pytest does not collect this file, as its name
does not start with ``test_``.
"""

from __future__ import annotations

import sys
import time

from test_pairing import _draw_lambda, _kontsevich_sides


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    genus, n0 = map(int, argv)
    failed = False
    for seed in (1, 2):
        start = time.perf_counter()
        left, right = _kontsevich_sides(genus, n0, _draw_lambda(genus, n0, seed))
        holds = left == right != 0
        failed |= not holds
        print(
            f"g={genus} N0={n0} seed {seed}: {'holds' if holds else 'FAILS'} "
            f"in {time.perf_counter() - start:.1f} s"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
