"""The genus-2 duality pairing at two N2 = 10 keys, timed.

    PYTHONPATH=src python3 tests/pairing_n2_10.py

runs ``duality_pairing(2, 3, q)`` at q = (10, 10, 10) and (8, 10, 12) and
prints, per key, the seconds and both sides, the nonempty system classes
whose volumes the key computed, and the seconds the vertex search of
``leray_volume`` (``_integer_vertices``) takes again over those classes.
``polytope_vertices`` would add a ``Fraction`` per vertex entry, which
``leray_volume`` never builds.  The first key builds the rows of the
labelled cells of (2, 3), which the second reuses, and the second computes
only the classes the first did not reach.  Then it checks the (2, 3) search
and rows against t, the rooted triangulations with 10 faces
(``conftest.rooted_triangulations``): the search stores t matchings, and
the rows' sum of 1/aut is 3! t / 30.  Last it prints the process's peak
resident memory (``ru_maxrss``).  It exits 1 when the two sides differ at
either key or a count differs.  It takes about 17 s on one core of a 2-CPU
machine and 200 MiB, too much for the test suite; pytest does not collect
this file, as its name does not start with ``test_``.
"""

from __future__ import annotations

import resource
import sys
import time
from collections import Counter
from fractions import Fraction

from conftest import rooted_triangulations
from dtregge import catalog, pairing
from dtregge.measure import edge_ends
from dtregge.volume import _integer_vertices, leray_volume

KEYS = [(2, 3, (10, 10, 10)), (2, 3, (8, 10, 12))]


def main() -> int:
    systems = []  # one per class volume the pairing computes
    pairing.leray_volume = lambda system: systems.append(system) or leray_volume(system)
    failed = False
    for genus, n0, q in KEYS:
        systems.clear()
        start = time.perf_counter()
        report = pairing.duality_pairing(genus, n0, q)
        seconds = time.perf_counter() - start
        start = time.perf_counter()
        for system in systems:
            _integer_vertices(edge_ends(zip(*system.a)), system.rhs, system.n0)
        vertex_seconds = time.perf_counter() - start
        failed |= not report.equal
        print(
            f"g={genus} N0={n0} q={q}: lhs={report.lhs} rhs={report.rhs} in {seconds:.1f} s, "
            f"{len(systems)} nonempty classes, vertices in {vertex_seconds:.1f} s"
        )
    t = rooted_triangulations(10, 2)
    stored = sum(map(len, catalog.enumerate_gluings(2, 3).values()))
    auts = Counter(aut for _, _, aut, *_ in catalog._cells(2, 3))
    weight = sum(Fraction(count, aut) for aut, count in auts.items())
    failed |= (stored, weight) != (t, Fraction(6 * t, 30))
    print(f"(2,3): {stored} matchings and sum 1/aut {weight}, against t = {t} and 3! t / 30")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(f"peak RSS {peak_kib / 1024:.0f} MiB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
