"""What each workload runs.

The key lists are generated here from the Euler relation rather than taken
from dtregge, so that the benchmark's inputs do not move when the program
changes.  ``--seed`` shuffles the order of the library keys and seeds the
CLI's ``check median``; it never changes which operations run, so every
round attempts the same operations.
"""

from __future__ import annotations

import random

WORKLOADS = ("survey", "pairing", "cli")


def face_count(genus: int, n0: int) -> int:
    return 2 * (n0 + 2 * genus - 2)


def compositions(total: int, parts: int):
    """Ordered tuples of ``parts`` integers >= 2 summing to ``total``."""
    if parts == 1:
        if total >= 2:
            yield (total,)
        return
    for first in range(2, total - 2 * (parts - 1) + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def labelled_keys(genus: int, n0: int) -> list[tuple]:
    """Every (genus, N0, q) with q labelled, each q(k) >= 2, sum 3*N2."""
    n2 = face_count(genus, n0)
    if n2 <= 0:
        return []
    return [(genus, n0, q) for q in compositions(3 * n2, n0)]


def survey_keys() -> list[tuple]:
    """Every sorted-q key at g=0, N0<=6 and g=1, N0<=3: 107 keys."""
    keys = []
    for genus, max_n0 in ((0, 6), (1, 3)):
        for n0 in range(1, max_n0 + 1):
            sorted_qs = {tuple(sorted(q)) for _, _, q in labelled_keys(genus, n0)}
            keys.extend((genus, n0, q) for q in sorted(sorted_qs))
    return keys


#: Keys whose pairing sum has a classical closed value.
PAIRING_ANCHORS = {
    (0, 3, (2, 2, 2)): "1",
    (0, 4, (3, 3, 3, 3)): "36",
    (1, 1, (6,)): "3/2",
}


def pairing_keys() -> list[tuple]:
    """Every labelled q at (0,4) and (1,2), the anchors, and (1,3,(6,6,6)):
    47 keys."""
    keys = labelled_keys(0, 4) + labelled_keys(1, 2)
    keys += [key for key in PAIRING_ANCHORS if key not in keys]
    keys.append((1, 3, (6, 6, 6)))
    return keys


def shuffled(keys: list, seed: int) -> list:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


# ---------------------------------------------------------------------------
# the CLI session

KEY_0_6 = ["-g", "0", "-n", "6", "--q", "4,4,4,4,4,4"]

#: A catalog file whose second face carries vertex label 4 at a key with
#: three vertices.  It is valid JSON with every field present, so the only
#: fault is in the data, which the CLI must report as bad input (exit 2).
MALFORMED_CATALOG = {
    "version": 1,
    "key": {"genus": 0, "vertices": 3, "q": [2, 2, 2]},
    "cardinality": 1,
    "entries": [
        {
            "triangulation": {
                "vertex_count": 3,
                "faces": [[1, 2, 3], [2, 1, 4]],
                "gluing": [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]],
            },
            "dual": {
                "darts": 6,
                "sigma": [[0, 1, 2], [3, 4, 5]],
                "alpha": [[0, 3], [1, 5], [2, 4]],
                "boundary_labels": {"0": 1, "1": 2, "2": 3},
            },
            "aut_boundary": 1,
            "code": "00",
        }
    ],
}


def cli_session(seed: int, malformed_path: str) -> list[tuple[str, list[str]]]:
    """The scripted session, as (name, dtregge arguments), run in order on a
    fresh cache directory."""
    return [
        ("enumerate_cold", ["enumerate", *KEY_0_6]),
        ("enumerate_warm", ["enumerate", *KEY_0_6]),
        ("check_gauss_bonnet", ["check", "gauss-bonnet", *KEY_0_6]),
        ("check_kontsevich", ["check", "kontsevich", *KEY_0_6]),
        ("volume_1_3", ["volume", "-g", "1", "-n", "3", "--q", "6,6,6"]),
        ("pairing_0_4", ["pairing", "-g", "0", "-n", "4", "--q", "2,3,3,4"]),
        ("pairing_1_2", ["pairing", "-g", "1", "-n", "2", "--q", "5,7"]),
        ("tau_4", ["tau", "-g", "4", "--d", "10", "--enable-dvv"]),
        ("check_rank", ["check", "rank"]),
        ("check_median", ["check", "median", "--seed", str(seed)]),
        ("cache_verify", ["cache", "verify"]),
        # ROADMAP item 4(i): exits 2 with "requires --enable-dvv".
        ("pairing_genus2", ["pairing", "-g", "2", "-n", "1", "--q", "18", "--enable-dvv"]),
        # ROADMAP item 4(ii): TriangulationError traceback and exit 1.
        ("malformed_in", ["check", "gauss-bonnet", "--in", malformed_path]),
    ]
