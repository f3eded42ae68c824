import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dtregge.cache
from dtregge.cli import main
from dtregge.measure import DimensionError
from dtregge.volume import UnboundedPolytopeError


@pytest.fixture
def runner():
    return CliRunner()


def test_enumerate_reports_cardinality(runner, tmp_path):
    result = runner.invoke(
        main, ["enumerate", "-g", "0", "-n", "3", "--q", "2,2,2",
               "--out", str(tmp_path / "cat.json")],
    )
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["results"]["cardinality"] == 1
    assert (tmp_path / "cat.json").is_file()


def test_enumerate_infeasible_key_is_input_error(runner):
    result = runner.invoke(main, ["enumerate", "-g", "0", "-n", "3", "--q", "2,2,3"])
    assert result.exit_code == 2


def test_enumerate_resource_cap(runner):
    result = runner.invoke(
        main, ["enumerate", "-g", "0", "-n", "6", "--q", "3,3,3,3,6,6",
               "--max-faces", "4"],
    )
    assert result.exit_code == 3


@pytest.mark.parametrize("command", ["enumerate", "volume", "pairing"])
def test_key_past_256_darts_is_a_resource_cap(runner, command):
    q = ",".join(["6"] * 33 + ["5"] * 12)  # 86 faces, 258 darts
    result = runner.invoke(
        main, [command, "-g", "0", "-n", "45", "--q", q, "--max-faces", "100"]
    )
    assert result.exit_code == 3, result.output
    assert "258 darts" in result.output


def test_dual_round_trip(runner, tmp_path):
    cat_path = tmp_path / "cat.json"
    result = runner.invoke(
        main, ["enumerate", "-g", "1", "-n", "1", "--q", "6", "--out", str(cat_path)],
    )
    assert result.exit_code == 0
    catalog = json.loads(cat_path.read_text())
    tri_path = tmp_path / "tri.json"
    tri_path.write_text(json.dumps(catalog["entries"][0]["triangulation"]))
    result = runner.invoke(main, ["dual", "--in", str(tri_path)])
    assert result.exit_code == 0
    dual = json.loads(result.output)
    assert dual == catalog["entries"][0]["dual"]


def test_dual_bad_input_is_input_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    result = runner.invoke(main, ["dual", "--in", str(bad)])
    assert result.exit_code == 2


def test_check_gauss_bonnet(runner):
    result = runner.invoke(
        main, ["check", "gauss-bonnet", "-g", "0", "-n", "3", "--q", "2,2,2"],
    )
    assert result.exit_code == 0, result.output
    data = json.loads(result.output)
    assert data["results"]["pass"] is True


def test_check_kontsevich(runner):
    result = runner.invoke(
        main, ["check", "kontsevich", "-g", "1", "-n", "1", "--q", "6"],
    )
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["results"]["entries"]
    assert entries[0]["expected"] == 4 and entries[0]["pass"]


def test_check_median_and_rank(runner):
    result = runner.invoke(main, ["check", "median", "--seed", "1", "--trials", "10"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["check", "rank", "--q-max", "5"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("command", [
    ["check", "rank", "--q-max", "2"],
    ["check", "median", "--trials", "0"],
])
def test_check_that_would_check_nothing_is_a_usage_error(runner, command):
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert '"pass"' not in result.output


@pytest.mark.parametrize("command", [
    ["tau", "-g", "1", "--d", "x"],
    ["pairing", "-g", "0", "-n", "3", "--q", "2,x,2"],
])
def test_unparsable_integer_list_names_no_wrong_option(runner, command):
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert "expected comma-separated integers" in result.output
    assert "q-list" not in result.output


def _loaded_by_cli_import(module: str) -> bool:
    """Whether ``import dtregge.cli`` in a fresh interpreter loads ``module``."""
    source = str(Path(dtregge.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {source!r}); "
        f"import dtregge.cli; print({module!r} in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.strip() == "True"


def test_cli_import_does_not_load_sympy():
    assert not _loaded_by_cli_import("sympy")


def test_cli_import_does_not_load_the_process_pool():
    assert not _loaded_by_cli_import("concurrent.futures.process")


def test_check_rank_reports_q_minus_1(runner):
    result = runner.invoke(main, ["check", "rank"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["results"]["entries"]
    assert [(e["q"], e["rank"]) for e in entries] == [(q, q - 1) for q in range(3, 9)]


def test_volume_values(runner):
    result = runner.invoke(main, ["volume", "-g", "1", "-n", "1", "--q", "6"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["results"]["entries"]
    assert [e["volume"] for e in entries] == ["9/4"]


def test_tau_values_and_genus_gate(runner):
    result = runner.invoke(main, ["tau", "-g", "1", "--d", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["results"]["value"] == "1/24"
    result = runner.invoke(main, ["tau", "-g", "2", "--d", "4"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["tau", "-g", "2", "--d", "4", "--enable-dvv"])
    assert result.exit_code == 0
    assert json.loads(result.output)["results"]["value"] == "1/1152"


def test_pairing_passes_at_anchor(runner):
    result = runner.invoke(main, ["pairing", "-g", "0", "-n", "3", "--q", "2,2,2"])
    assert result.exit_code == 0, result.output
    body = json.loads(result.output)["results"]
    assert body["equal"] is True and body["lhs"] == "1"


def test_cache_ls_and_verify(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("DTREGGE_CACHE_DIR", str(tmp_path))
    result = runner.invoke(main, ["enumerate", "-g", "0", "-n", "3", "--q", "2,2,2"])
    assert result.exit_code == 0
    result = runner.invoke(main, ["cache", "ls"])
    assert result.exit_code == 0 and "catalog-g0-n3" in result.output
    result = runner.invoke(main, ["cache", "verify"])
    assert result.exit_code == 0 and "ok" in result.output


def test_pairing_genus2_with_dvv_flag(runner):
    result = runner.invoke(
        main, ["pairing", "-g", "2", "-n", "1", "--q", "18", "--enable-dvv"]
    )
    assert result.exit_code == 0, result.output
    body = json.loads(result.output)["results"]
    assert body["equal"] is True
    assert body["lhs"] == body["rhs"] == "1594323/4"


def _malformed_catalog(face, alpha):
    return {
        "version": 1,
        "key": {"genus": 0, "vertices": 3, "q": [2, 2, 2]},
        "cardinality": 1,
        "entries": [{
            "triangulation": {
                "vertex_count": 3,
                "faces": [[1, 2, 3], face],
                "gluing": [[[0, 0], [1, 0]], [[0, 1], [1, 2]], [[0, 2], [1, 1]]],
            },
            "dual": {
                "darts": 6,
                "sigma": [[0, 1, 2], [3, 4, 5]],
                "alpha": alpha,
                "boundary_labels": {"0": 1, "1": 2, "2": 3},
            },
            "aut_boundary": 1,
            "code": "00",
        }],
    }


@pytest.mark.parametrize("face,alpha", [
    ([2, 1, 4], [[0, 3], [1, 5], [2, 4]]),  # label 4 at a 3-vertex key
    ([2, 1, 3], [[0, 3], [1, 4], [2, 5]]),  # dual boundary count is wrong
])
def test_check_malformed_catalog_is_input_error(runner, tmp_path, face, alpha):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_malformed_catalog(face, alpha)))
    result = runner.invoke(main, ["check", "gauss-bonnet", "--in", str(bad)])
    assert result.exit_code == 2
    assert "error:" in result.output and result.exc_info[0] is SystemExit


KEY_0_4 = ["-g", "0", "-n", "4", "--q", "2,3,3,4"]


@pytest.mark.parametrize("command", [
    ["check", "gauss-bonnet", *KEY_0_4],
    ["check", "kontsevich", *KEY_0_4],
    ["volume", *KEY_0_4],
    ["pairing", *KEY_0_4],
])
def test_warm_cache_gives_the_cold_output_without_enumerating(runner, monkeypatch, command):
    cold = runner.invoke(main, command)
    assert cold.exit_code == 0, cold.output
    calls = []

    def enumerate_spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("enumerated on a warm cache")

    monkeypatch.setattr(dtregge.cache, "enumerate_triangulations", enumerate_spy)
    warm = runner.invoke(main, command)
    assert warm.exit_code == 0, warm.output
    assert calls == []
    assert json.loads(warm.output)["results"] == json.loads(cold.output)["results"]


def test_pairing_leaves_the_cache_empty(runner, tmp_path, monkeypatch):
    cache_dir = tmp_path / "empty-cache"
    cache_dir.mkdir()
    monkeypatch.setenv("DTREGGE_CACHE_DIR", str(cache_dir))
    result = runner.invoke(main, ["pairing", *KEY_0_4])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["equal"] is True
    assert list(cache_dir.iterdir()) == []


def test_face_cap_holds_on_a_warm_cache(runner):
    key = ["-g", "0", "-n", "4", "--q", "3,3,3,3"]
    assert runner.invoke(main, ["enumerate", *key]).exit_code == 0
    for command in (["check", "gauss-bonnet"], ["volume"], ["pairing"], ["enumerate"]):
        result = runner.invoke(main, [*command, *key, "--max-faces", "2"])
        assert result.exit_code == 3, (command, result.output)


def test_cache_file_of_another_key_is_not_used(runner, tmp_path):
    path = tmp_path / "cat.json"
    for qlist, cardinality in (("3,3,3,3", 2), ("2,2,4,4", 1)):
        result = runner.invoke(
            main, ["enumerate", "-g", "0", "-n", "4", "--q", qlist, "--out", str(path)]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["results"]["cardinality"] == cardinality
    assert json.loads(path.read_text())["key"]["q"] == [2, 2, 4, 4]


@pytest.mark.parametrize("command", [
    ["enumerate", *KEY_0_4],
    ["check", "gauss-bonnet", *KEY_0_4],
    ["volume", *KEY_0_4],
    ["pairing", *KEY_0_4],
])
def test_unwritable_cache_directory_is_not_an_error(runner, tmp_path, monkeypatch, command):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("DTREGGE_CACHE_DIR", str(blocker / "cache"))
    result = runner.invoke(main, command)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]
    assert blocker.read_text() == ""


KEY_OVER_CAP = ["-g", "0", "-n", "4", "--q", "3,3,3,3", "--max-faces", "2"]
KEY_INFEASIBLE = ["-g", "0", "-n", "3", "--q", "2,2,3"]


@pytest.mark.parametrize("command,code", [
    (["check", "kontsevich", *KEY_INFEASIBLE], 2),
    (["check", "kontsevich", *KEY_OVER_CAP], 3),
    (["volume", *KEY_INFEASIBLE], 2),
    (["volume", *KEY_OVER_CAP], 3),
    (["pairing", *KEY_INFEASIBLE], 2),
    (["pairing", "-g", "2", "-n", "1", "--q", "18"], 2),
    (["tau", "-g", "1", "--d", "-1"], 2),
    (["tau", "-g", "-1", "--d", "1"], 2),
])
def test_errors_exit_with_their_code(runner, command, code):
    result = runner.invoke(main, command)
    assert result.exit_code == code, result.output
    assert result.output.startswith("error: ") and result.exc_info[0] is SystemExit


def test_dimension_error_exits_2(runner, monkeypatch):
    def fail(graph):
        raise DimensionError("dimension mismatch")

    monkeypatch.setattr("dtregge.cli.kontsevich_check", fail)
    result = runner.invoke(main, ["check", "kontsevich", "-g", "1", "-n", "1", "--q", "6"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.exc_info[0] is SystemExit


def test_volume_error_exits_2(runner, monkeypatch):
    def fail(system):
        raise UnboundedPolytopeError("a zero column makes the polytope unbounded")

    monkeypatch.setattr("dtregge.cli.leray_volume", fail)
    result = runner.invoke(main, ["volume", "-g", "1", "-n", "1", "--q", "6"])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ") and result.exc_info[0] is SystemExit


def test_failed_check_exits_1(runner, monkeypatch):
    monkeypatch.setattr("dtregge.cli.median_identity_check", lambda lengths: False)
    result = runner.invoke(main, ["check", "median", "--trials", "3"])
    assert result.exit_code == 1
    assert json.loads(result.output)["results"]["pass"] is False


def test_failed_pairing_exits_1(runner, monkeypatch):
    monkeypatch.setattr("dtregge.pairing.generating_F", lambda *args: 0)
    result = runner.invoke(main, ["pairing", "-g", "0", "-n", "3", "--q", "2,2,2"])
    assert result.exit_code == 1
    assert json.loads(result.output)["results"]["equal"] is False


def test_cache_verify_exits_1_on_a_stale_entry(runner):
    assert runner.invoke(main, ["enumerate", "-g", "1", "-n", "1", "--q", "6"]).exit_code == 0
    [path] = dtregge.cache.list_cache()
    data = json.loads(path.read_text())
    data["entries"][0]["aut_boundary"] += 1
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["cache", "verify"])
    assert result.exit_code == 1
    assert "stale" in result.output
