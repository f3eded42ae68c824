"""The genus-2 duality pairing at two N2 = 10 keys, timed.

    PYTHONPATH=src python3 tests/pairing_n2_10.py

runs ``duality_pairing(2, 3, q, enable_higher_genus=True)`` at q = (10,
10, 10) and (8, 10, 12) and prints, per key, the seconds and both sides.
The first key builds the labelled cells of (2, 3), which the second
reuses.  It exits 1 when the two sides differ at either key.  It takes
about 25 s on one core and half a GiB, too much for the test suite;
pytest does not collect this file, as its name does not start with
``test_``.
"""

from __future__ import annotations

import sys
import time

from dtregge.pairing import duality_pairing

KEYS = [(2, 3, (10, 10, 10)), (2, 3, (8, 10, 12))]


def main() -> int:
    failed = False
    for genus, n0, q in KEYS:
        start = time.perf_counter()
        report = duality_pairing(genus, n0, q, enable_higher_genus=True)
        seconds = time.perf_counter() - start
        failed |= not report.equal
        print(f"g={genus} N0={n0} q={q}: lhs={report.lhs} rhs={report.rhs} in {seconds:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
