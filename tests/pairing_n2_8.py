"""The duality pairing at two N2 = 8 keys, timed.

    PYTHONPATH=src python3 tests/pairing_n2_8.py

runs ``duality_pairing`` at (1, 4, (5, 5, 7, 7)) and (0, 6, (3, 3, 4, 4,
5, 5)) and prints, per key, both sides, the seconds (cells and their
gluing search included), the seconds of a second call to the same key
(cells, classes and volumes cached: the per-key pass over the cells
alone), the distinct system classes and the nonempty ones, which alone
need a volume, the seconds ``leray_volume`` takes over the nonempty
classes, each computed afresh, and the seconds of ``polytope_vertices``
alone over the same classes.  It exits 1 when the two sides differ or
the second call's report differs from the first.  (1, 4, (5, 5, 7, 7))
is also in the test suite; (0, 6, (3, 3, 4, 4, 5, 5)) is too slow for it.
pytest does not collect this file, as its name does not start with
``test_``.
"""

from __future__ import annotations

import sys
import time

from dtregge.catalog import enumerate_ribbon_cells
from dtregge.measure import ConstraintSystem, constraint_system
from dtregge.pairing import duality_pairing, has_interior_point, system_class
from dtregge.volume import leray_volume, polytope_vertices

KEYS = [(1, 4, (5, 5, 7, 7)), (0, 6, (3, 3, 4, 4, 5, 5))]


def main() -> int:
    failed = False
    for genus, n0, q in KEYS:
        start = time.perf_counter()
        report = duality_pairing(genus, n0, q)
        seconds = time.perf_counter() - start
        start = time.perf_counter()
        again = duality_pairing(genus, n0, q)
        warm_seconds = time.perf_counter() - start
        perimeters = dict(enumerate(q, start=1))
        classes = {
            system_class(constraint_system(graph, perimeters))
            for graph in enumerate_ribbon_cells(genus, n0)
        }
        nonempty = [key for key in classes if has_interior_point(*key)]
        systems = [ConstraintSystem(tuple(zip(*columns)), rhs) for rhs, columns in nonempty]
        start = time.perf_counter()
        for system in systems:
            leray_volume(system)
        volume_seconds = time.perf_counter() - start
        start = time.perf_counter()
        for system in systems:
            polytope_vertices(system)
        vertex_seconds = time.perf_counter() - start
        failed |= not report.equal or again != report
        print(
            f"g={genus} N0={n0} q={q}: lhs={report.lhs} rhs={report.rhs} "
            f"in {seconds:.1f} s, again in {warm_seconds:.2f} s, "
            f"{len(classes)} classes, {len(nonempty)} nonempty, "
            f"volumes in {volume_seconds:.1f} s, of which vertices in {vertex_seconds:.1f} s"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
