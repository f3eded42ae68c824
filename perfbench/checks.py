"""Checks of the program's outputs.

Each checker takes plain JSON-like data (``Catalog.to_dict()``,
``PairingReport.to_dict()``, or a CLI command's exit code and output) and
returns a list of problems; an empty list means the output passed.  Every
check is either recomputed here, independently of dtregge, or is a
property the method must have.  The one exception is the cardinality of
the N2=8 catalogs, compared with ``reference/survey_n2_8.json``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "survey_n2_8.json"

# ---------------------------------------------------------------------------
# permutation helpers on darts: dart 3f+i is slot i of face f, the edge from
# corner i to corner i+1; sigma turns it to slot i+1 of the same face.


def _sigma(d: int) -> int:
    return 3 * (d // 3) + (d % 3 + 1) % 3


def _orbits(perm) -> list[tuple[int, ...]]:
    """Cycles of a permutation, in order of their least element."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if not seen[start]:
            cycle = []
            d = start
            while not seen[d]:
                seen[d] = True
                cycle.append(d)
                d = perm[d]
            cycles.append(tuple(cycle))
    return cycles


def _alpha_from_gluing(n2: int, gluing) -> list[int]:
    alpha = [-1] * (3 * n2)
    for (f, i), (g, j) in gluing:
        alpha[3 * f + i], alpha[3 * g + j] = 3 * g + j, 3 * f + i
    return alpha


def canonical_form(labels, alpha) -> tuple:
    """Canonical form of a connected labelled dart structure (sigma fixed as
    above) under relabelling of darts: the least breadth-first encoding over
    all start darts.  ``labels[d]`` is the vertex label at the source corner
    of dart d."""
    n = len(alpha)
    best = None
    for base in range(n):
        new = [-1] * n
        new[base] = 0
        order = [base]
        head = 0
        while head < len(order):
            d = order[head]
            head += 1
            for e in (_sigma(d), alpha[d]):
                if new[e] < 0:
                    new[e] = len(order)
                    order.append(e)
        code = tuple(
            x for d in order for x in (new[_sigma(d)], new[alpha[d]], labels[d])
        )
        if best is None or code < best:
            best = code
    return best


def triangulation_form(faces, gluing, mirrored: bool = False) -> tuple:
    """Canonical form of a labelled triangulation; with ``mirrored``, of its
    orientation reversal, in which face (a, b, c) becomes (a, c, b) and slot
    i becomes slot 2 - i."""
    n2 = len(faces)
    if mirrored:
        faces = [(a, c, b) for a, b, c in faces]
        gluing = [((f, 2 - i), (g, 2 - j)) for (f, i), (g, j) in gluing]
    alpha = _alpha_from_gluing(n2, gluing)
    labels = [faces[d // 3][d % 3] for d in range(3 * n2)]
    return canonical_form(labels, alpha)


# ---------------------------------------------------------------------------
# exhaustive catalogs, for keys with few faces


def _matchings(slots: list[int]):
    """Every perfect matching of ``slots`` with no face glued to itself."""
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for k, other in enumerate(rest):
        if other // 3 == first // 3:
            continue
        for tail in _matchings(rest[:k] + rest[k + 1:]):
            yield [(first, other)] + tail


def _connected(alpha) -> bool:
    n2 = len(alpha) // 3
    reached = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for i in range(3):
            g = alpha[3 * f + i] // 3
            if g not in reached:
                reached.add(g)
                stack.append(g)
    return len(reached) == n2


def exhaustive_forms(genus: int, n0: int, q) -> set:
    """Canonical forms of every labelled triangulation at the key, from all
    slot matchings of N2 = 2(N0 + 2g - 2) faces and all labellings.

    The vertices of a gluing are the orbits of sigma o alpha on darts: dart
    d leaves the corner at which alpha(d) arrives, which is the source corner
    of sigma(alpha(d)).  Gluings are reduced to one per isomorphism class
    before labelling, which loses nothing: a labelled triangulation is
    isomorphic to a labelling of the representative of its gluing.
    """
    n2 = 2 * (n0 + 2 * genus - 2)
    n = 3 * n2
    representatives = {}
    for pairs in _matchings(list(range(n))):
        alpha = [0] * n
        for s, t in pairs:
            alpha[s], alpha[t] = t, s
        if not _connected(alpha):
            continue
        vertices = _orbits([_sigma(alpha[d]) for d in range(n)])
        if len(vertices) - n // 2 + n2 != 2 - 2 * genus:
            continue
        if sorted(len(v) for v in vertices) != sorted(q):
            continue
        representatives.setdefault(canonical_form([0] * n, alpha), (alpha, vertices))
    forms = set()
    for alpha, vertices in representatives.values():
        for perm in permutations(range(1, n0 + 1)):
            if any(len(v) != q[k - 1] for v, k in zip(vertices, perm)):
                continue
            labels = [0] * n
            for v, k in zip(vertices, perm):
                for d in v:
                    labels[d] = k
            forms.add(canonical_form(labels, alpha))
    return forms


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# survey


def check_catalog(catalog: dict, reference: dict | None = None) -> list[str]:
    """Invariants of one catalog, given as ``Catalog.to_dict()``."""
    key = catalog["key"]
    genus, n0, q = key["genus"], key["vertices"], tuple(key["q"])
    n2 = 2 * (n0 + 2 * genus - 2)
    where = f"({genus},{n0},{','.join(map(str, q))})"
    if n2 <= 0 or sum(q) != 3 * n2 or len(q) != n0:
        return [f"{where}: not a feasible key"]
    problems = []
    entries = catalog["entries"]
    if catalog["cardinality"] != len(entries):
        problems.append(f"{where}: cardinality {catalog['cardinality']} != {len(entries)} entries")
    q_gcd = 0
    for qk in q:
        q_gcd = gcd(q_gcd, qk)
    forms = set()
    codes = set()
    for i, entry in enumerate(entries):
        tri = entry["triangulation"]
        faces = [tuple(face) for face in tri["faces"]]
        gluing = [(tuple(s), tuple(t)) for s, t in tri["gluing"]]
        corners = [0] * n0
        for face in faces:
            for label in face:
                if 1 <= label <= n0:
                    corners[label - 1] += 1
        if tuple(corners) != q:
            problems.append(f"{where} entry {i}: corner counts {tuple(corners)} != q")
        curvature = sum((2 - Fraction(c, 3) for c in corners), Fraction(0))
        if curvature != 2 * (2 - 2 * genus):
            problems.append(f"{where} entry {i}: total curvature {curvature} fails Gauss-Bonnet")
        problems += [f"{where} entry {i}: {p}" for p in _check_dual(entry["dual"], genus, n0, n2, q)]
        if q_gcd % entry["aut_boundary"] != 0:
            problems.append(f"{where} entry {i}: aut order {entry['aut_boundary']} does not divide gcd(q)")
        if entry["code"] in codes:
            problems.append(f"{where} entry {i}: duplicate code")
        codes.add(entry["code"])
        forms.add(triangulation_form(faces, gluing))
    if len(forms) != len(entries):
        problems.append(f"{where}: {len(entries) - len(forms)} entries are isomorphic to others")
    for i, entry in enumerate(entries):
        tri = entry["triangulation"]
        mirror = triangulation_form(tri["faces"], tri["gluing"], mirrored=True)
        if mirror not in forms:
            problems.append(f"{where} entry {i}: mirror image missing from the catalog")
    if n2 <= 4 and forms != exhaustive_forms(genus, n0, q):
        problems.append(f"{where}: catalog differs from the exhaustive enumeration")
    if n2 == 8 and reference is not None:
        expected = reference.get(",".join(map(str, q)))
        if expected != len(entries):
            problems.append(f"{where}: cardinality {len(entries)}, reference {expected}")
    return problems


def _check_dual(dual: dict, genus: int, n0: int, n2: int, q) -> list[str]:
    """V, E, boundary count, genus and side counts from sigma and alpha."""
    n = dual["darts"]
    sigma = [0] * n
    for cycle in dual["sigma"]:
        for k, d in enumerate(cycle):
            sigma[d] = cycle[(k + 1) % len(cycle)]
    alpha = [0] * n
    for d, e in dual["alpha"]:
        alpha[d], alpha[e] = e, d
    v = len(_orbits(sigma))
    e = len(dual["alpha"])
    boundaries = _orbits([sigma[alpha[d]] for d in range(n)])
    b = len(boundaries)
    problems = []
    if (v, e, b) != (n2, 3 * n2 // 2, n0):
        problems.append(f"dual has V,E,B = {v},{e},{b}, expected {n2},{3 * n2 // 2},{n0}")
    if v - e + b != 2 - 2 * genus:
        problems.append(f"dual Euler characteristic {v - e + b} != {2 - 2 * genus}")
    labels = dual["boundary_labels"]
    sides = {labels[str(i)]: len(cycle) for i, cycle in enumerate(boundaries) if str(i) in labels}
    if tuple(sides.get(k) for k in range(1, n0 + 1)) != tuple(q):
        problems.append("dual boundary side counts do not match q")
    return problems


# ---------------------------------------------------------------------------
# pairing


def check_pairing(report: dict, anchors: dict) -> list[str]:
    """Both sides equal, the cell sum adds up, and anchor values hold."""
    key = report["key"]
    genus, n0, q = key["genus"], key["vertices"], tuple(key["q"])
    where = f"({genus},{n0},{','.join(map(str, q))})"
    lhs, rhs = Fraction(report["lhs"]), Fraction(report["rhs"])
    problems = []
    if lhs != rhs or not report["equal"]:
        problems.append(f"{where}: lhs {lhs} != rhs {rhs} (equal={report['equal']})")
    constant = Fraction(2) ** (2 * n0 + 5 * genus - 5)
    cell_sum = sum(
        (Fraction(c["volume"]) / c["aut_boundary"] for c in report["contributions"]),
        Fraction(0),
    )
    if constant * cell_sum != lhs:
        problems.append(f"{where}: the cell contributions sum to {constant * cell_sum}, not lhs {lhs}")
    expected = anchors.get((genus, n0, q))
    if expected is not None and lhs != Fraction(expected):
        problems.append(f"{where}: anchor value {lhs} != {expected}")
    return problems


# ---------------------------------------------------------------------------
# CLI session

#: The two known faults, as (command name, exit code, text in stderr).
KNOWN_FAULTS = {
    "pairing_genus2": (2, "requires the higher-genus recursion flag"),
    "malformed_in": (1, "TriangulationError"),
}


def tau_top(genus: int) -> Fraction:
    """<tau_{3g-2}>_g = 1 / (24^g g!)."""
    return Fraction(1, 24 ** genus * factorial(genus))


def check_cli(results: dict) -> tuple[list[str], list[str]]:
    """Check a whole session; returns (problems, names of failed commands).

    ``results`` maps a command name of ``workloads.cli_session`` to
    ``(exit code, stdout, stderr)``.  A command fails when its exit code is
    not the one a correct program gives.  A failure that matches a known
    fault is counted and not a problem; any other failure is both.
    """
    problems: list[str] = []
    failed: list[str] = []
    parsed = {}
    for name, (code, out, err) in results.items():
        expected = 2 if name == "malformed_in" else 0
        if code != expected:
            failed.append(name)
            fault = KNOWN_FAULTS.get(name)
            if fault is None or fault[0] != code or fault[1] not in err:
                problems.append(f"{name}: exit {code}, expected {expected}: {err.strip()[-300:]}")
            continue
        if name == "malformed_in":
            if "Traceback" in err or "error:" not in err:
                problems.append(f"{name}: bad input not reported as an error message")
            continue
        if name == "cache_verify":
            lines = out.strip().splitlines()
            if not lines or any(not line.endswith(": ok") for line in lines):
                problems.append(f"{name}: cache not verified: {out.strip()[-300:]}")
            continue
        try:
            parsed[name] = json.loads(out)["results"]
        except (ValueError, KeyError) as exc:
            problems.append(f"{name}: unreadable report: {exc}")
    for name, body in parsed.items():
        problems += [f"{name}: {p}" for p in _check_cli_report(name, body, parsed)]
    return problems, failed


def _check_cli_report(name: str, body: dict, parsed: dict) -> list[str]:
    problems = []
    catalog = parsed.get("enumerate_cold")
    if name.startswith("enumerate"):
        if body["cardinality"] != len(body["codes"]) or len(set(body["codes"])) != len(body["codes"]):
            problems.append("cardinality and distinct codes disagree")
        if catalog is not None and body["codes"] != catalog["codes"]:
            problems.append("codes differ from the cold enumeration")
        if any(4 % a for a in body["aut_orders"]):
            problems.append("an aut order does not divide gcd(q) = 4")
    elif name.startswith("check_"):
        if body["pass"] is not True:
            problems.append("check did not pass")
        entries = body["entries"]
        if name in ("check_gauss_bonnet", "check_kontsevich") and catalog is not None:
            if [e["code"] for e in entries] != catalog["codes"]:
                problems.append("entries differ from the enumerated catalog")
        for e in entries:
            if name == "check_gauss_bonnet" and Fraction(e["total_curvature_over_pi"]) != 4:
                problems.append(f"total curvature {e['total_curvature_over_pi']} != 4")
            if name == "check_kontsevich" and e["coefficient"] != 2 ** 7 * factorial(3):
                problems.append(f"wedge coefficient {e['coefficient']} != 768")
            if name == "check_rank" and e["rank"] != e["q"] - 1:
                problems.append(f"rank {e['rank']} at q={e['q']}")
            if e["pass"] is not True:
                problems.append(f"entry {e} did not pass")
        if name == "check_median" and len(entries) != 100:
            problems.append(f"{len(entries)} median trials, expected 100")
        if name == "check_rank" and [e["q"] for e in entries] != list(range(3, 9)):
            problems.append("rank checked at the wrong q")
    elif name == "volume_1_3":
        if not body["entries"]:
            problems.append("no volumes")
        for e in body["entries"]:
            if e["dim"] != 6 or Fraction(e["volume"]) <= 0 or 6 % e["aut_boundary"]:
                problems.append(f"bad volume entry {e}")
    elif name.startswith("pairing"):
        if Fraction(body["lhs"]) != Fraction(body["rhs"]) or body["equal"] is not True:
            problems.append(f"lhs {body['lhs']} != rhs {body['rhs']}")
    elif name == "tau_4":
        if Fraction(body["value"]) != tau_top(4):
            problems.append(f"tau value {body['value']} != {tau_top(4)}")
    return problems
