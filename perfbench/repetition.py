"""How often the pairing workload repeats a constraint system.

For each pairing key, counts the cells of ``enumerate_ribbon_cells`` and
the distinct systems (A, rhs) among them, up to column permutations and up
to row permutations that keep rhs.  A memo keyed on that canonical form
would compute one volume per distinct system.  Run from the repository
root:

    PYTHONPATH=src python3 perfbench/repetition.py
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import workloads
from dtregge.catalog import enumerate_ribbon_cells
from dtregge.measure import constraint_system


def canonical_system(a, rhs) -> tuple:
    best = None
    for order in permutations(range(len(a))):
        if tuple(rhs[i] for i in order) != tuple(rhs):
            continue
        columns = tuple(sorted(zip(*(a[i] for i in order))))
        if best is None or columns < best:
            best = columns
    return tuple(rhs), best


def repetition(genus: int, n0: int, q) -> tuple[int, int]:
    """(cells, distinct constraint systems) at one key."""
    perimeters = {k: Fraction(qk) for k, qk in enumerate(q, start=1)}
    cells = enumerate_ribbon_cells(genus, n0)
    distinct = set()
    for graph in cells:
        system = constraint_system(graph, perimeters)
        distinct.add(canonical_system(system.a, system.rhs))
    return len(cells), len(distinct)


def main() -> None:
    print("key                     cells  distinct  repeated")
    for genus, n0, q in workloads.pairing_keys():
        cells, distinct = repetition(genus, n0, q)
        key = f"({genus},{n0},{','.join(map(str, q))})"
        print(f"{key:22s} {cells:6d} {distinct:9d}  {1 - distinct / cells:7.1%}")


if __name__ == "__main__":
    main()
