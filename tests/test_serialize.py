import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest
from conftest import PAIRING_KEYS, bipyramid, feasible_q_vectors

from dtregge.catalog import (
    CatalogEntry,
    enumerate_ribbon_cells,
    enumerate_triangulations,
)
from dtregge.pairing import duality_pairing
from dtregge.report import SCHEMA, RunReport, rational
from dtregge.ribbon import RibbonGraph, RibbonGraphError, canonical_code, dualize
from dtregge.triangulation import Triangulation


def test_triangulation_json_round_trip(theta_sphere, one_vertex_torus):
    for t in (theta_sphere, one_vertex_torus):
        text = json.dumps(t.to_dict(), sort_keys=True)
        again = Triangulation.from_dict(json.loads(text))
        assert json.dumps(again.to_dict(), sort_keys=True) == text


def test_ribbon_graph_json_round_trip(theta_sphere):
    graph = dualize(theta_sphere)
    text = json.dumps(graph.to_dict(), sort_keys=True)
    again = RibbonGraph.from_dict(json.loads(text))
    assert again == graph
    assert json.dumps(again.to_dict(), sort_keys=True) == text


@pytest.mark.parametrize("darts", [pytest.param(10**12, id="darts-1e12"), 5])
def test_ribbon_graph_darts_must_count_the_sigma_cycles(theta_sphere, darts):
    data = dualize(theta_sphere).to_dict()
    data["darts"] = darts  # 10**12 is rejected before any list is built
    with pytest.raises(RibbonGraphError, match="darts declared"):
        RibbonGraph.from_dict(data)


def test_ribbon_graph_past_256_darts_is_not_read():
    data = dualize(bipyramid(43)).to_dict()
    assert data["darts"] == 258
    with pytest.raises(RibbonGraphError, match="at most 256"):
        RibbonGraph.from_dict(data)


@pytest.mark.parametrize("label", [300, -1, 2.5, None])
def test_ribbon_graph_boundary_labels_must_be_bytes(theta_sphere, label):
    data = dualize(theta_sphere).to_dict()
    data["boundary_labels"]["0"] = label  # canonical codes hold labels in bytes
    with pytest.raises(RibbonGraphError, match="not integers in 0..255"):
        RibbonGraph.from_dict(data)


def test_catalog_entry_round_trip():
    entry = enumerate_triangulations(1, 1, (6,)).entries[0]
    again = CatalogEntry.from_dict(json.loads(json.dumps(entry.to_dict())))
    assert again == entry


def test_run_report_round_trip():
    report = RunReport(
        "volume",
        {"genus": 0, "vertices": 3, "q": [2, 2, 2]},
        {"volume": rational(Fraction(1, 2))},
        {"seconds": 0.1},
    )
    data = json.loads(report.to_json())
    assert data == {"schema": SCHEMA, **dataclasses.asdict(report)}


def test_rational_serialization():
    assert rational(Fraction(3, 2)) == "3/2"
    assert rational(Fraction(4, 2)) == "2"
    assert rational(5) == "5"
    assert Fraction(rational(Fraction(-9, 4))) == Fraction(-9, 4)


def _digest(results) -> str:
    """SHA-256 over the sorted-key JSON of each result, concatenated."""
    h = hashlib.sha256()
    for result in results:
        h.update(json.dumps(result.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_survey_catalogs_are_bit_identical():
    """The 107 catalogs at g=0 with N0 <= 6 and at g=1 with N0 <= 3, one per
    sorted q, in ascending key order, as first written at convention 1."""
    keys = sorted(
        {
            (genus, n0, tuple(sorted(q)))
            for genus, n0s in ((0, range(3, 7)), (1, range(1, 4)))
            for n0 in n0s
            for q in feasible_q_vectors(genus, n0)
        }
    )
    assert len(keys) == 107
    assert _digest(enumerate_triangulations(*key) for key in keys) == (
        "d2d622a59d507859464d2cf80dfa2342716bfc79b2800997753cc9984a85dd7c"
    )


def test_pairing_reports_are_bit_identical():
    """The 47 pairing reports: every labelled q at (0,4) and (1,2), plus
    (0,3,(2,2,2)), (1,1,(6,)) and (1,3,(6,6,6)), in ascending key order."""
    keys = sorted(
        {(genus, n0, q) for genus, n0 in ((0, 4), (1, 2)) for q in feasible_q_vectors(genus, n0)}
        | {(0, 3, (2, 2, 2)), (1, 1, (6,)), (1, 3, (6, 6, 6))}
    )
    assert len(keys) == 47
    assert _digest(duality_pairing(*key) for key in keys) == (
        "45f70303a38b77b3473d2d08aa4c52f5c4152b4320c16fabd346fb80fc7a2afc"
    )


def test_pairing_reports_in_workload_order_are_bit_identical():
    """The same 47 reports in the order of ``PAIRING_KEYS``, which is the
    order of the benchmark's ``pairing_keys()``."""
    assert _digest(duality_pairing(*key) for key in PAIRING_KEYS) == (
        "cad311d5753f49fb98ef03d9e2409a9fe58a395b8f04e39af5200bf4ba9548cb"
    )


def test_ribbon_cells_are_bit_identical():
    """Every cell of ``enumerate_ribbon_cells`` at eight (g, N0), in code
    order: its darts, boundary labels, canonical code and automorphism order."""
    h = hashlib.sha256()
    for genus, n0 in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (0, 5), (1, 3), (2, 2)]:
        for cell in enumerate_ribbon_cells(genus, n0):
            fields = (cell.sigma, cell.alpha, cell.boundary_labels, canonical_code(cell).hex(),
                      cell.aut_order)
            h.update(repr(fields).encode())
    assert h.hexdigest() == "35acc832d336ac6240d660d4ff737831e45143c83700dd18ba151e046c89f4bd"
