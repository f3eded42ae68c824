"""Self-tests of the benchmark's output checks: each checker passes a good
output and fails a corrupted one.  Not part of the repository's test suite:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json

import pytest

import checks
import workloads
from dtregge.catalog import enumerate_triangulations
from dtregge.pairing import duality_pairing


@pytest.fixture(scope="module")
def catalogs():
    return {
        key: enumerate_triangulations(*key).to_dict()
        for key in [(0, 4, (3, 3, 3, 3)), (0, 4, (2, 2, 4, 4)), (1, 1, (6,))]
    }


def test_good_catalogs_pass(catalogs):
    for catalog in catalogs.values():
        assert checks.check_catalog(catalog) == []


def test_entry_q_off_by_one_fails(catalogs):
    bad = copy.deepcopy(catalogs[(0, 4, (2, 2, 4, 4))])
    face = bad["entries"][0]["triangulation"]["faces"][0]
    face[face.index(3) if 3 in face else face.index(4)] = 1
    assert any("corner counts" in p for p in checks.check_catalog(bad))


def test_missing_entry_fails(catalogs):
    bad = copy.deepcopy(catalogs[(0, 4, (3, 3, 3, 3))])
    bad["entries"].pop()
    bad["cardinality"] -= 1
    problems = checks.check_catalog(bad)
    assert any("mirror" in p for p in problems)
    assert any("exhaustive" in p for p in problems)


def test_duplicate_entry_fails(catalogs):
    bad = copy.deepcopy(catalogs[(1, 1, (6,))])
    bad["entries"].append(bad["entries"][0])
    bad["cardinality"] += 1
    problems = checks.check_catalog(bad)
    assert any("duplicate code" in p for p in problems)
    assert any("isomorphic" in p for p in problems)


def test_wrong_aut_order_fails(catalogs):
    bad = copy.deepcopy(catalogs[(1, 1, (6,))])
    bad["entries"][0]["aut_boundary"] = 4
    assert any("divide" in p for p in checks.check_catalog(bad))


def test_wrong_dual_labels_fail(catalogs):
    bad = copy.deepcopy(catalogs[(0, 4, (2, 2, 4, 4))])
    labels = bad["entries"][0]["dual"]["boundary_labels"]
    sizes = {}
    for i, label in labels.items():
        sizes.setdefault(label in (1, 2), []).append(i)
    a, b = sizes[True][0], sizes[False][0]
    labels[a], labels[b] = labels[b], labels[a]
    assert any("side counts" in p for p in checks.check_catalog(bad))


def test_wrong_genus_fails(catalogs):
    bad = copy.deepcopy(catalogs[(0, 4, (3, 3, 3, 3))])
    bad["key"] = {"genus": 1, "vertices": 4, "q": [6, 6, 6, 6]}
    problems = checks.check_catalog(bad)
    assert any("Gauss-Bonnet" in p for p in problems)
    assert any("Euler" in p for p in problems)


def test_infeasible_key_fails(catalogs):
    bad = copy.deepcopy(catalogs[(1, 1, (6,))])
    bad["key"]["genus"] = 0
    assert checks.check_catalog(bad) == ["(0,1,6): not a feasible key"]


def test_reference_cardinality_mismatch_fails():
    empty = {"key": {"genus": 0, "vertices": 6, "q": [2, 2, 2, 2, 2, 14]},
             "cardinality": 0, "entries": []}
    assert checks.check_catalog(empty, {"2,2,2,2,2,14": 0}) == []
    assert checks.check_catalog(empty, {"2,2,2,2,2,14": 1}) != []


def test_reference_file_covers_every_n2_8_key():
    keys = {",".join(map(str, q)) for g, n0, q in workloads.survey_keys()
            if workloads.face_count(g, n0) == 8}
    assert set(checks.load_reference()) == keys


def test_pairing_checks():
    report = duality_pairing(0, 3, (2, 2, 2)).to_dict()
    assert checks.check_pairing(report, workloads.PAIRING_ANCHORS) == []
    unequal = dict(report, rhs="2")
    assert checks.check_pairing(unequal, workloads.PAIRING_ANCHORS) != []
    assert checks.check_pairing(report, {(0, 3, (2, 2, 2)): "2"}) != []
    tampered = copy.deepcopy(report)
    tampered["contributions"][0]["volume"] = "7"
    assert any("sum" in p for p in checks.check_pairing(tampered, {}))


# ---------------------------------------------------------------------------
# CLI session


def _report(results):
    return json.dumps({"results": results})


CODES = ["aa", "bb"]


def _good_session():
    catalog = {"cardinality": 2, "codes": CODES, "aut_orders": [1, 2]}
    pairing = {"lhs": "38", "rhs": "38", "equal": True}
    return {
        "enumerate_cold": (0, _report(catalog), ""),
        "enumerate_warm": (0, _report(catalog), ""),
        "check_gauss_bonnet": (0, _report({"pass": True, "entries": [
            {"code": c, "total_curvature_over_pi": "4", "pass": True} for c in CODES]}), ""),
        "check_kontsevich": (0, _report({"pass": True, "entries": [
            {"code": c, "coefficient": 768, "expected": 768, "pass": True} for c in CODES]}), ""),
        "volume_1_3": (0, _report({"entries": [
            {"volume": "1/2", "dim": 6, "aut_boundary": 3}]}), ""),
        "pairing_0_4": (0, _report(pairing), ""),
        "pairing_1_2": (0, _report(pairing), ""),
        "tau_4": (0, _report({"value": "1/7962624"}), ""),
        "check_rank": (0, _report({"pass": True, "entries": [
            {"q": q, "rank": q - 1, "pass": True} for q in range(3, 9)]}), ""),
        "check_median": (0, _report({"pass": True, "entries": [
            {"q": 3, "pass": True}] * 100}), ""),
        "cache_verify": (0, "/c/catalog-g0-n6.json: ok\n", ""),
        "pairing_genus2": (0, _report({"lhs": "1594323/4", "rhs": "1594323/4",
                                       "equal": True}), ""),
        "malformed_in": (2, "", "error: cannot read input: face (2, 1, 4)\n"),
    }


def test_good_session_passes():
    assert checks.check_cli(_good_session()) == ([], [])


def test_known_faults_are_counted_not_problems():
    session = _good_session()
    session["pairing_genus2"] = (2, "", "error: genus >= 2 requires the "
                                 "higher-genus recursion flag (--enable-dvv)\n")
    session["malformed_in"] = (1, "", "Traceback ...\ndtregge.triangulation."
                               "TriangulationError: face (2, 1, 4)\n")
    assert checks.check_cli(session) == ([], ["pairing_genus2", "malformed_in"])


@pytest.mark.parametrize("name, value", [
    ("tau_4", (0, _report({"value": "1/7962625"}), "")),
    ("pairing_0_4", (0, _report({"lhs": "38", "rhs": "39", "equal": False}), "")),
    ("enumerate_warm", (0, _report({"cardinality": 2, "codes": ["aa", "cc"],
                                    "aut_orders": [1, 2]}), "")),
    ("check_kontsevich", (0, _report({"pass": True, "entries": [
        {"code": c, "coefficient": 384, "expected": 768, "pass": True} for c in CODES]}), "")),
    ("check_rank", (0, _report({"pass": True, "entries": [
        {"q": q, "rank": q, "pass": True} for q in range(3, 9)]}), "")),
    ("cache_verify", (0, "/c/catalog-g0-n6.json: FAIL: stale code\n", "")),
    ("malformed_in", (2, "", "Traceback ...\nerror: bad\n")),
])
def test_wrong_output_is_a_problem(name, value):
    session = _good_session()
    session[name] = value
    problems, failed = checks.check_cli(session)
    assert problems and failed == []


def test_unknown_failure_is_counted_and_a_problem():
    session = _good_session()
    session["volume_1_3"] = (3, "", "error: cap\n")
    problems, failed = checks.check_cli(session)
    assert failed == ["volume_1_3"] and problems
