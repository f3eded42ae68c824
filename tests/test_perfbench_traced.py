"""The benchmark's traced rounds run to the end: ``perfbench/worker.py``
under the tracer, as ``perfbench/run.py --trace 1`` starts it, exits 0 with
correct outputs and records the calls of the layer each workload times."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, traced", [
    ("survey", "catalog.enumerate_triangulations"),
    ("pairing", "volume.leray_volume"),
])
def test_traced_round_ends_correct(tmp_path, workload, traced):
    # no bytecode, so that nothing is written under perfbench/
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "perfbench/worker.py", workload, "--seed", "0",
               "--trace-out", str(tmp_path / "trace")]
    result = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    round_ = json.loads(result.stdout)
    assert round_["problems"] == [] and round_["failed"] == []
    assert round_["trace"]["functions"][traced]["calls"] > 0


@pytest.mark.parametrize("command, traced", [
    (["check", "gauss-bonnet", "-g", "0", "-n", "4", "--q", "3,3,3,3"],
     "catalog.enumerate_triangulations"),
    (["check", "median", "--trials", "3"], None),
    (["check", "rank", "--q-max", "4"], "polygon.equilateral_rank"),
], ids=["gauss-bonnet", "median", "rank"])
def test_traced_cli_command_exits_0(tmp_path, command, traced):
    """A ``cli`` session command under the tracer, on an empty cache."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1",
           "DTREGGE_CACHE_DIR": str(tmp_path / "cache")}
    out = tmp_path / "trace.json"
    worker = [sys.executable, "perfbench/worker.py", "cli-command", "--out", str(out), "--trace"]
    result = subprocess.run([*worker, "--", *command], cwd=ROOT, env=env, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["results"]["pass"] is True
    trace = json.loads(out.read_text())["trace"]
    if traced is not None:
        assert trace["functions"][traced]["calls"] > 0
