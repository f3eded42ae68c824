import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import bipyramid
from hypothesis import given, settings
from hypothesis import strategies as st

import dtregge.cache
from dtregge.catalog import enumerate_triangulations
from dtregge.cli import MAX_RANK_Q, main
from dtregge.measure import DimensionError
from dtregge.pairing import class_volume
from dtregge.ribbon import dualize
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


def test_key_of_twelve_faces_is_a_resource_cap_at_the_default_cap(runner):
    result = runner.invoke(main, ["enumerate", "-g", "2", "-n", "4", "--q", "9,9,9,9"])
    assert result.exit_code == 3, result.output
    assert result.output == "error: key needs 12 faces, above the cap of 10\n"


@pytest.mark.parametrize("command", ["enumerate", "pairing"])
def test_gluing_budget_is_a_resource_cap(runner, monkeypatch, fresh_gluing_caches, command):
    monkeypatch.setattr("dtregge.catalog.MAX_MATCHINGS", 1000)
    result = runner.invoke(main, [command, "-g", "1", "-n", "4", "--q", "6,6,6,6"])
    assert result.exit_code == 3, result.output
    assert result.output == "error: genus 1 with 4 vertices needs more than 1000 gluings\n"
    assert result.exc_info[0] is SystemExit


@pytest.mark.parametrize("command", [
    ["enumerate"], ["check", "gauss-bonnet"], ["volume"], ["pairing"],
])
@pytest.mark.parametrize("cap", ["-1", "0"])
def test_face_cap_below_two_is_a_usage_error(runner, command, cap):
    key = ["-g", "0", "-n", "3", "--q", "2,2,2"]
    result = runner.invoke(main, [*command, *key, "--max-faces", cap])
    assert result.exit_code == 2, result.output
    assert "--max-faces" in result.output and '"results"' not in result.output


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


#: The options each ``check`` reads, set to valid values.
CHECK_OPTIONS = {
    "gauss-bonnet": ["-g", "0", "-n", "3", "--q", "2,2,2"],
    "kontsevich": ["-g", "0", "-n", "3", "--q", "2,2,2"],
    "median": ["--seed", "1", "--trials", "1"],
    "rank": ["--q-max", "3"],
}
STRAY_OPTIONS = [
    *((kind, name, extra) for kind in ("median", "rank") for name, extra in [
        ("in", ["--in", "{catalog}"]),
        ("genus", ["-g", "5"]),
        ("vertices", ["-n", "4"]),
        ("q", ["--q", "2,2,2"]),
        ("max-faces", ["--max-faces", "8"]),
    ]),
    ("median", "q-max", ["--q-max", "4"]),
    ("rank", "seed", ["--seed", "9"]),
    ("rank", "trials", ["--trials", "5"]),
    *((kind, name, extra) for kind in ("gauss-bonnet", "kontsevich") for name, extra in [
        ("seed", ["--seed", "9"]),
        ("trials", ["--trials", "5"]),
        ("q-max", ["--q-max", "4"]),
        ("in", ["--in", "{catalog}"]),
    ]),
]


@pytest.mark.parametrize("kind, extra", [(kind, extra) for kind, _, extra in STRAY_OPTIONS],
                         ids=[f"{name}-{kind}" for kind, name, _ in STRAY_OPTIONS])
def test_check_that_reads_no_key_rejects_a_key_option(runner, tmp_path, kind, extra):
    """Each ``check`` accepts only the options it reads: an option it would
    ignore, or ``--in`` together with a key, is a usage error, not an
    echoed input.  ``--in`` names a valid catalog file."""
    catalog = tmp_path / "cat.json"
    _write(catalog, CATALOG)
    extra = [arg.format(catalog=catalog) for arg in extra]
    assert runner.invoke(main, ["check", kind, *CHECK_OPTIONS[kind]]).exit_code == 0
    result = runner.invoke(main, ["check", kind, *CHECK_OPTIONS[kind], *extra])
    assert result.exit_code == 2, result.output
    assert '"pass"' not in result.output


@pytest.mark.parametrize("kind", ["gauss-bonnet", "kontsevich"])
def test_catalog_check_echoes_the_key_it_read(runner, tmp_path, kind):
    path = tmp_path / "cat.json"
    _write(path, FOUR)
    key = {"genus": 0, "vertices": 4, "q": [3, 3, 3, 3]}
    for source, echoed in ((["-g", "0", "-n", "4", "--q", "3,3,3,3"], None),
                           (["--in", str(path)], str(path))):
        result = runner.invoke(main, ["check", kind, *source])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["inputs"] == {"in": echoed, **key}


@pytest.mark.parametrize("kind", ["gauss-bonnet", "kontsevich"])
def test_catalog_check_of_a_file_rejects_a_face_cap(runner, tmp_path, kind):
    """``--max-faces`` caps the enumeration of a key, which ``--in`` never runs."""
    path = tmp_path / "cat.json"
    _write(path, CATALOG)
    result = runner.invoke(main, ["check", kind, "--in", str(path), "--max-faces", "8"])
    assert result.exit_code == 2, result.output
    assert '"pass"' not in result.output


@pytest.mark.parametrize("command, inputs", [
    (["median", "--seed", "3", "--trials", "2"], {"seed": 3, "trials": 2}),
    (["median"], {"seed": 0, "trials": 100}),
    (["rank", "--q-max", "4"], {"q_max": 4}),
], ids=["median", "median-defaults", "rank"])
def test_check_echoes_the_options_it_read(runner, command, inputs):
    result = runner.invoke(main, ["check", *command])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["inputs"] == inputs


def test_enumerate_reports_the_file_it_wrote_or_read(runner, tmp_path):
    key = ["-g", "0", "-n", "3", "--q", "2,2,2"]
    paths = {}
    for name, options in (("cache", []), ("no-cache", ["--no-cache"]),
                          ("out", ["--out", str(tmp_path / "cat.json")]),
                          ("out-no-cache", ["--no-cache", "--out", str(tmp_path / "c.json")])):
        result = runner.invoke(main, ["enumerate", *key, *options])
        assert result.exit_code == 0, result.output
        paths[name] = json.loads(result.output)["results"]["path"]
    assert paths == {
        "cache": str(dtregge.cache.catalog_path(0, 3, (2, 2, 2))),
        "no-cache": None,
        "out": str(tmp_path / "cat.json"),
        "out-no-cache": str(tmp_path / "c.json"),
    }
    assert json.loads((tmp_path / "c.json").read_text()) == CATALOG


def test_no_cache_neither_reads_nor_writes_the_cache(runner, monkeypatch):
    def no_cache(*args, **kwargs):
        raise AssertionError("the cache was used")

    monkeypatch.setattr("dtregge.cache.cached_catalog", no_cache)
    result = runner.invoke(main, ["enumerate", "-g", "0", "-n", "3", "--q", "2,2,2", "--no-cache"])
    assert result.exit_code == 0, result.output
    assert dtregge.cache.list_cache() == []


@pytest.mark.parametrize("workers", ["-3", "0"])
def test_enumerate_without_a_worker_is_a_usage_error(runner, workers):
    command = ["enumerate", "-g", "0", "-n", "3", "--q", "2,2,2", "--workers", workers]
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert '"results"' not in result.output


@pytest.mark.parametrize("command", [
    ["tau", "-g", "1", "--d", "x"],
    ["pairing", "-g", "0", "-n", "3", "--q", "2,x,2"],
])
def test_unparsable_integer_list_names_no_wrong_option(runner, command):
    result = runner.invoke(main, command)
    assert result.exit_code == 2, result.output
    assert "expected comma-separated integers" in result.output
    assert "q-list" not in result.output


def _loaded_by_cli_import(module: str, command: tuple[str, ...] = ()) -> bool:
    """Whether ``import dtregge.cli`` in a fresh interpreter, followed by
    ``command`` if one is given, loads ``module``."""
    source = str(Path(dtregge.__file__).parents[1])
    run = f"dtregge.cli.main({list(command)!r}, standalone_mode=False); " if command else ""
    code = (
        f"import sys; sys.path.insert(0, {source!r}); "
        f"import dtregge.cli; {run}print({module!r} in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1] == "True"


def test_cli_import_does_not_load_sympy():
    assert not _loaded_by_cli_import("sympy")


def test_cli_import_does_not_load_the_process_pool():
    assert not _loaded_by_cli_import("concurrent.futures.process")


def test_cli_import_does_not_load_mpmath():
    assert not _loaded_by_cli_import("mpmath")


def test_check_rank_reports_q_minus_1(runner):
    result = runner.invoke(main, ["check", "rank"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["results"]["entries"]
    assert [(e["q"], e["rank"]) for e in entries] == [(q, q - 1) for q in range(3, 9)]


def test_check_rank_does_not_load_sympy():
    command = ("check", "rank")
    assert _loaded_by_cli_import("dtregge.polygon", command)
    assert not _loaded_by_cli_import("sympy", command)


def test_check_rank_above_the_q_cap_is_a_resource_cap(runner, monkeypatch):
    def no_rank(q):
        raise AssertionError(f"rank computed at q={q}")

    monkeypatch.setattr("dtregge.polygon.equilateral_rank", no_rank)
    q_max = MAX_RANK_Q + 1
    result = runner.invoke(main, ["check", "rank", "--q-max", str(q_max)])
    assert result.exit_code == 3, result.output
    assert result.output == f"error: --q-max {q_max} is above the cap of {MAX_RANK_Q}\n"


def test_volume_values(runner):
    result = runner.invoke(main, ["volume", "-g", "1", "-n", "1", "--q", "6"])
    assert result.exit_code == 0, result.output
    entries = json.loads(result.output)["results"]["entries"]
    assert [e["volume"] for e in entries] == ["9/4"]


def test_tau_values_and_genus_gate(runner):
    result = runner.invoke(main, ["tau", "-g", "1", "--d", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["results"]["value"] == "1/24"
    assert json.loads(result.output)["timings"]["seconds"] >= 0
    result = runner.invoke(main, ["tau", "-g", "2", "--d", "4"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["tau", "-g", "2", "--d", "4", "--enable-dvv"])
    assert result.exit_code == 0
    assert json.loads(result.output)["results"]["value"] == "1/1152"
    result = runner.invoke(main, ["tau", "-g", "2", "--d", "1"])  # off shell: 0 at any genus
    assert result.exit_code == 0
    assert json.loads(result.output)["results"]["value"] == "0"


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


def test_pairing_genus_gate_exits_2_before_any_cell_or_volume(runner, monkeypatch):
    def no_work(*args):
        raise AssertionError("cells or volumes computed before the genus gate")

    monkeypatch.setattr("dtregge.catalog._cells", no_work)
    monkeypatch.setattr("dtregge.pairing.leray_volume", no_work)
    result = runner.invoke(main, ["pairing", "-g", "2", "-n", "1", "--q", "18"])
    assert result.exit_code == 2, result.output
    assert result.output == (
        "error: genus >= 2 requires the higher-genus recursion flag (--enable-dvv)\n"
    )


def test_pairing_genus2_with_dvv_flag(runner):
    result = runner.invoke(
        main, ["pairing", "-g", "2", "-n", "1", "--q", "18", "--enable-dvv"]
    )
    assert result.exit_code == 0, result.output
    body = json.loads(result.output)["results"]
    assert body["equal"] is True
    assert body["lhs"] == body["rhs"] == "1594323/4"


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


def test_cache_file_of_another_key_is_not_used(runner):
    """A (0,4,(2,2,4,4)) catalog at the (0,4,(3,3,3,3)) cache path is a miss:
    the key is enumerated and its file rewritten."""
    path = dtregge.cache.catalog_path(0, 4, (3, 3, 3, 3))
    path.parent.mkdir(parents=True)
    _write(path, enumerate_triangulations(0, 4, (2, 2, 4, 4)).to_dict())
    result = runner.invoke(main, ["enumerate", "-g", "0", "-n", "4", "--q", "3,3,3,3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["results"]["cardinality"] == 2
    assert json.loads(path.read_text()) == FOUR


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

    class_volume.cache_clear()  # else a volume an earlier test found skips the fake
    monkeypatch.setattr("dtregge.pairing._cell_volumes", {})
    monkeypatch.setattr("dtregge.pairing.leray_volume", fail)
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
    for line in result.output.splitlines():
        assert line.count(str(path)) == 1, line


@pytest.mark.parametrize("field, value, reason", [
    ("version", 99, "written under convention version 99"),
    ("cardinality", 2, "stored cardinality 2 does not match its 1 entries"),
])
def test_cache_verify_names_the_path_once(runner, field, value, reason):
    assert runner.invoke(main, ["enumerate", "-g", "1", "-n", "1", "--q", "6"]).exit_code == 0
    [path] = dtregge.cache.list_cache()
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["cache", "verify"])
    assert result.exit_code == 1
    assert result.output.startswith(f"{path}: FAIL: {reason}")
    assert result.output.count(str(path)) == 1, result.output


# ---------------------------------------------------------------------------
# malformed files: every one is bad input (exit 2) or a cache miss, never a
# traceback

THETA_KEY = ["-g", "0", "-n", "3", "--q", "2,2,2"]
CATALOG = enumerate_triangulations(0, 3, (2, 2, 2)).to_dict()
TRIANGULATION = CATALOG["entries"][0]["triangulation"]
BIPYRAMID = bipyramid(43)
#: A catalog of the same key whose one entry has 258 darts, more than
#: canonical codes can number.
BIG_CATALOG = {**CATALOG, "entries": [{
    "triangulation": BIPYRAMID.to_dict(),
    "dual": dualize(BIPYRAMID).to_dict(),
    "aut_boundary": 1,
    "code": "00",
}]}


def _with(doc, path: tuple, value):
    """A copy of ``doc`` with the subtree at ``path``, a tuple of keys and
    indices, replaced by ``value``."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


def _write(path: Path, content) -> None:
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))


def _exited(result) -> bool:
    """The command ended by returning or exiting, not by an exception."""
    return result.exception is None or isinstance(result.exception, SystemExit)


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


#: The two-entry catalog of (0,4,(3,3,3,3)) with its entries' triangulations
#: swapped: each dual alone still has the genus, boundaries and side counts
#: of its triangulation, but is not its dual.
FOUR = enumerate_triangulations(0, 4, (3, 3, 3, 3)).to_dict()
SWAPPED = json.loads(json.dumps(FOUR))
_first, _second = SWAPPED["entries"]
_first["triangulation"], _second["triangulation"] = _second["triangulation"], _first["triangulation"]


@pytest.mark.parametrize("doc", [
    _malformed_catalog([2, 1, 4], [[0, 3], [1, 5], [2, 4]]),
    _malformed_catalog([2, 1, 3], [[0, 3], [1, 4], [2, 5]]),
    _with(CATALOG, ("key", "genus"), 7),
    _with(CATALOG, ("key", "q"), "abc"),
    _with(CATALOG, ("version",), 99),
    SWAPPED,
], ids=["label-4-at-3-vertices", "dual-boundary-count", "key-genus-7", "key-q-abc",
        "version-99", "swapped-triangulations"])
def test_check_malformed_catalog_is_input_error(runner, tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["check", "gauss-bonnet", "--in", str(bad)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ") and "Traceback" not in result.output
    assert result.exc_info[0] is SystemExit


HUGE_DARTS = _with(CATALOG, ("entries", 0, "dual", "darts"), 10**12)
LABEL_300 = _with(CATALOG, ("entries", 0, "dual", "boundary_labels", "2"), 300)
LABEL_MINUS_1 = _with(CATALOG, ("entries", 0, "dual", "boundary_labels", "0"), -1)


@pytest.mark.parametrize("command,content", [
    (["check", "gauss-bonnet"], _with(CATALOG, ("entries",), 5)),
    (["check", "gauss-bonnet"], _with(CATALOG, ("key",), [])),
    (["check", "gauss-bonnet"], [1, 2]),
    (["check", "gauss-bonnet"], b"\xff\xfe"),
    (["dual"], [1, 2]),
    (["dual"], b"\xff\xfe"),
    (["dual"], _with(TRIANGULATION, ("faces",), 5)),
    (["dual"], _with(TRIANGULATION, ("vertex_count",), "x")),
    (["dual"], _with(TRIANGULATION, ("gluing", 0), [[0, 0]])),
    (["dual"], b"[" * 100000 + b"]" * 100000),  # nested past the recursion limit
    (["check", "gauss-bonnet"], HUGE_DARTS),
], ids=["check-entries-5", "check-key-list", "check-list", "check-bytes", "dual-list",
        "dual-bytes", "dual-faces-5", "dual-vertex-count-x", "dual-one-slot-pair",
        "dual-deep", "check-darts-1e12"])
def test_malformed_input_file_exits_2(runner, tmp_path, command, content):
    path = tmp_path / "in.json"
    _write(path, content)
    result = runner.invoke(main, [*command, "--in", str(path)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: cannot read ") and _exited(result)


@pytest.mark.parametrize("command,content,fresh", [
    (["enumerate"], [1, 2], CATALOG),
    (["check", "gauss-bonnet"], [1, 2], CATALOG),
    (["volume"], [1, 2], CATALOG),
    (["enumerate"], HUGE_DARTS, CATALOG),
    (["enumerate"], BIG_CATALOG, CATALOG),
    (["enumerate"], LABEL_300, CATALOG),
    (["enumerate"], LABEL_MINUS_1, CATALOG),
    (["enumerate"], SWAPPED, FOUR),
], ids=["enumerate-list", "check-list", "volume-list", "enumerate-darts-1e12",
        "enumerate-258-darts", "enumerate-label-300", "enumerate-label-minus-1",
        "enumerate-swapped-triangulations"])
def test_unreadable_cache_file_is_a_cache_miss(runner, command, content, fresh):
    """The cache file of ``fresh``'s key holds ``content``; ``command`` at
    that key replaces it with ``fresh``, the enumerated catalog."""
    genus, vertices, q = fresh["key"]["genus"], fresh["key"]["vertices"], fresh["key"]["q"]
    path = dtregge.cache.catalog_path(genus, vertices, q)
    path.parent.mkdir(parents=True)
    _write(path, content)
    key = ["-g", str(genus), "-n", str(vertices), "--q", ",".join(map(str, q))]
    result = runner.invoke(main, [*command, *key])
    assert result.exit_code == 0, result.output
    assert _exited(result)
    assert json.loads(path.read_text()) == fresh


@pytest.mark.parametrize("content", [[1, 2], _with(CATALOG, ("entries",), 5), None, BIG_CATALOG,
                                     LABEL_300, LABEL_MINUS_1, SWAPPED],
                         ids=["list", "entries-5", "directory", "258-darts", "label-300",
                              "label-minus-1", "swapped-triangulations"])
def test_cache_verify_fails_each_unreadable_file(runner, content):
    assert runner.invoke(main, ["enumerate", *THETA_KEY]).exit_code == 0
    bad = dtregge.cache.cache_dir() / "catalog-x.json"
    if content is None:
        bad.mkdir()
    else:
        _write(bad, content)
    result = runner.invoke(main, ["cache", "verify"])
    assert result.exit_code == 1, result.output
    assert _exited(result)
    ok, fail = sorted(result.output.splitlines())
    assert ok.endswith("-v1.json: ok") and fail.startswith(f"{bad}: FAIL: ")
    assert fail.count(str(bad)) == 1, fail


@pytest.mark.parametrize("command", ["enumerate", "dual"])
def test_unwritable_out_path_exits_2(runner, tmp_path, command):
    source = tmp_path / "tri.json"
    _write(source, TRIANGULATION)
    args = [command, *THETA_KEY] if command == "enumerate" else [command, "--in", str(source)]
    out = source / "x.json"  # under a regular file
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert result.output.startswith(f"error: cannot write {out}: ") and _exited(result)


def _subtrees(node, path=()):
    """The path of every subtree of ``node``, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _subtrees(child, path + (key,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-3, 300) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=10,
)
FUZZ_CASES = [(["check", "gauss-bonnet"], CATALOG, path) for path in _subtrees(CATALOG)]
FUZZ_CASES += [(["dual"], TRIANGULATION, path) for path in _subtrees(TRIANGULATION)]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=st.sampled_from(FUZZ_CASES), value=JSON_VALUES)
def test_any_subtree_replaced_by_any_value_exits_0_or_2(tmp_path_factory, case, value):
    command, doc, path = case
    in_path = tmp_path_factory.mktemp("fuzz") / "in.json"
    _write(in_path, _with(doc, path, value))
    result = CliRunner().invoke(main, [*command, "--in", str(in_path)])
    assert result.exit_code in (0, 2), (path, value, result.output)
    assert _exited(result), (path, value, result.exception)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(path=st.sampled_from(list(_subtrees(CATALOG))), value=JSON_VALUES)
def test_any_cache_file_subtree_replaced_by_any_value_fails_verify_or_is_used(
        tmp_path_factory, path, value):
    """`cache verify` reports the file, and a file it fails is a cache miss."""
    directory = tmp_path_factory.mktemp("cache")
    cache_file = directory / dtregge.cache.catalog_path(0, 3, (2, 2, 2)).name
    _write(cache_file, _with(CATALOG, path, value))
    runner = CliRunner(env={"DTREGGE_CACHE_DIR": str(directory)})
    verify = runner.invoke(main, ["cache", "verify"])
    assert verify.exit_code in (0, 1) and _exited(verify), (path, value, verify.output)
    result = runner.invoke(main, ["enumerate", *THETA_KEY])
    assert result.exit_code == 0 and _exited(result), (path, value, result.output)
    if verify.exit_code == 1:
        assert json.loads(cache_file.read_text()) == CATALOG, (path, value)
