"""The duality pairing at two N2 = 8 keys too slow for the test suite.

    PYTHONPATH=src python3 tests/pairing_n2_8.py

runs ``duality_pairing`` at (1, 4, (5, 5, 7, 7)) and (0, 6, (3, 3, 4, 4,
5, 5)) and prints, per key, both sides, the seconds (cells included; the
gluing index at N2 = 8 is built once, for the first key), the distinct
system classes and the nonempty ones, which alone need a volume.  It exits
1 when the two sides differ.  Most of the time goes to the vertex
enumeration of the nonempty classes.  pytest does not collect this file,
as its name does not start with ``test_``.
"""

from __future__ import annotations

import sys
import time

from dtregge.catalog import enumerate_ribbon_cells
from dtregge.pairing import cell_class, duality_pairing, has_interior_point

KEYS = [(1, 4, (5, 5, 7, 7)), (0, 6, (3, 3, 4, 4, 5, 5))]


def main() -> int:
    failed = False
    for genus, n0, q in KEYS:
        start = time.perf_counter()
        report = duality_pairing(genus, n0, q)
        seconds = time.perf_counter() - start
        classes = {cell_class(graph, q) for graph in enumerate_ribbon_cells(genus, n0)}
        nonempty = sum(has_interior_point(*key) for key in classes)
        failed |= not report.equal
        print(
            f"g={genus} N0={n0} q={q}: lhs={report.lhs} rhs={report.rhs} "
            f"in {seconds:.1f} s, {len(classes)} classes, {nonempty} nonempty"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
