"""dtregge benchmark: one run of one workload.

    python3 perfbench/run.py --workload survey|pairing|cli --seed N \
        --seconds S --trace 0|1

Run it from the repository root; it needs ``src/dtregge`` and nothing
installed.  Each round of the workload runs in a fresh child process (one
child at a time, all on one CPU), and rounds repeat until ``--seconds`` of
measured time have passed.  ``--trace 0`` reports the end-to-end metrics,
in seconds scaled to a reference CPU speed by ``speed.py``; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of standard output is the result; the line before it is a
full record of the run, raw times included.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from spans import COUNTED, SPANNED
from speed import Sampler, timings

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER = str(BENCH / "worker.py")
PYTHON = sys.executable
SETUP_SAMPLES = 9
#: Every child must end before this many seconds from the start of the run.
RUN_LIMIT_S = 170


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.monotonic()
        self.work = OUT / f"work-{os.getpid()}"
        self.trace_dir = OUT / f"trace-{workload}-seed{seed}"
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""),
            DTREGGE_CACHE_DIR=str(self.work / "cache"),
        )

    def child(self, argv, env=None) -> tuple[int, str, str, float]:
        """Run one child to its end; returns (exit code, stdout, stderr, seconds)."""
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env or self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"child did not finish in time: {argv}")
        return proc.returncode, out, err, time.perf_counter() - start

    # -- set-up ---------------------------------------------------------

    def setup_samples(self) -> dict:
        """Seconds from starting an interpreter to the package being
        imported.  The child reads ``perf_counter``, which on Linux is the
        system-wide CLOCK_MONOTONIC, when the import is done.  The first
        import also writes bytecode caches, so it is not kept."""
        module = "dtregge.cli" if self.workload == "cli" else "dtregge"
        code = f"import time; import {module}; print(repr(time.perf_counter()))"
        intervals = []
        with Sampler(timer=False) as sampler:
            for k in range(SETUP_SAMPLES + 1):
                sampler.sample()
                sampler.sample()
                start = time.perf_counter()
                status, out, err, _ = self.child([PYTHON, "-c", code])
                if status != 0:
                    raise BenchError(f"cannot import {module}: {err.strip()}")
                intervals.append((k, start, float(out)))
        return timings(sampler, intervals[1:])

    def import_times(self) -> dict:
        """Cumulative import times from ``-X importtime``, medians of three."""
        found: dict[str, list[float]] = {"dtregge": [], "dtregge.cli": [], "sympy": []}
        for _ in range(3):
            status, _, err, _ = self.child([PYTHON, "-X", "importtime", "-c", "import dtregge.cli"])
            if status != 0:
                raise BenchError(f"cannot import dtregge.cli: {err.strip()[-300:]}")
            for line in err.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() in found:
                    found[fields[2].strip()].append(int(fields[1]) / 1e6)
        return {name: statistics.median(values) for name, values in found.items() if values}

    # -- rounds ---------------------------------------------------------

    def library_round(self, traced: bool) -> dict:
        argv = [PYTHON, WORKER, self.workload, "--seed", str(self.seed)]
        if traced:
            argv += ["--trace-out", str(self.trace_dir / "round")]
        status, out, err, _ = self.child(argv)
        if status != 0 or not out.strip():
            raise BenchError(f"worker failed ({status}): {err.strip()[-500:]}")
        return json.loads(out.splitlines()[-1])

    def cli_round(self, traced: bool) -> dict:
        round_dir = self.work / f"round-{time.monotonic_ns()}"
        round_dir.mkdir(parents=True)
        malformed = round_dir / "malformed.json"
        malformed.write_text(json.dumps(workloads.MALFORMED_CATALOG))
        env = dict(self.env, DTREGGE_CACHE_DIR=str(round_dir / "cache"))
        results, intervals, summaries = {}, [], []
        sampler = None if traced else Sampler(timer=False)
        with sampler or contextlib.nullcontext():
            for name, args in workloads.cli_session(self.seed, str(malformed)):
                out_file = (self.trace_dir if traced else round_dir) / name
                argv = [PYTHON, WORKER, "cli-command", "--out", str(out_file)]
                argv += ["--trace", "--", *args] if traced else ["--", *args]
                if sampler is not None:
                    sampler.sample()
                start = time.perf_counter()
                status, out, err, _ = self.child(argv, env)
                intervals.append((name, start, time.perf_counter()))
                results[name] = (status, out, err)
                if not out_file.is_file():
                    raise BenchError(f"{name}: the command wrote no {out_file.name}")
                written = json.loads(out_file.read_text())
                if traced:
                    summaries.append(written["trace"])
                else:
                    sampler.merge(written["samples"])
        problems, failed = checks.check_cli(results)
        return {
            **timings(sampler, intervals),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "problems": problems,
            "failed": failed,
            "trace": _merge(summaries) if traced else None,
        }

    def round(self, traced: bool) -> dict:
        if traced:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
        if self.workload == "cli":
            return self.cli_round(traced)
        return self.library_round(traced)

    def run(self) -> tuple[dict, dict]:
        """Returns (result line, full record)."""
        setup = self.setup_samples()
        plain, traced = [], []
        while True:
            plain.append(self.round(False))
            if self.trace:
                traced.append(self.round(True))
                measured = sum(r["wall_s"] for r in traced)
            else:
                measured = sum(r["wall_s"] for r in plain)
            if measured >= self.seconds:
                break
        rounds = plain + traced
        problems = [p for r in rounds for p in r["problems"]]
        result = {
            "correct": not problems,
            "attempted": sum(len(r["ops"]) for r in rounds),
            "failed": sum(len(r["failed"]) for r in rounds),
        }
        if self.trace:
            result["metrics"] = self.layer_metrics(plain, traced)
        else:
            result["metrics"] = end_to_end_metrics(setup, plain)
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            **environment(),
            "setup": setup,
            "rounds": [
                {key: r[key] for key in
                 ("wall_s", "wall_raw_s", "probe_median_s", "peak_rss_mib", "failed", "ops", "ops_raw")}
                for r in plain
            ],
            "traced_walls_s": [r["wall_s"] for r in traced],
            "problems": problems[:50],
        }
        if self.workload == "cli":
            for name in ("enumerate_cold", "enumerate_warm"):
                record[f"{name}_s"] = statistics.median(dict(r["ops"])[name] for r in plain)
                record[f"{name}_raw_s"] = statistics.median(dict(r["ops_raw"])[name] for r in plain)
        return result, record

    def layer_metrics(self, plain: list[dict], traced: list[dict]) -> dict:
        summary = _merge([r["trace"] for r in traced])
        traced_wall = sum(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_raw_s"] for r in plain)
        per_round = len(traced)
        metrics = {}
        for name in SPANNED:
            row = summary["functions"].get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            metrics[f"{name}.calls"] = _metric(row["calls"] / per_round, "count")
            metrics[f"{name}.self_pct"] = _metric(100 * row["self_s"] / traced_wall, "%")
            metrics[f"{name}.incl_pct"] = _metric(100 * row["incl_s"] / traced_wall, "%")
        for name in COUNTED:
            metrics[f"{name}.calls"] = _metric(summary["calls"].get(name, 0) / per_round, "count")
        sizes = summary["result_sizes"]
        metrics["catalog.code_yield"] = _metric(
            _ratio(sizes.get("catalog.enumerate_triangulations", 0),
                   summary["catalog_canonical_code_calls"]), "codes/call")
        metrics["volume.vertex_yield"] = _metric(
            _ratio(sizes.get("volume.polytope_vertices", 0),
                   summary["calls"].get("volume.solve_square", 0)), "vertices/call")
        imports = self.import_times()
        module = "dtregge.cli" if self.workload == "cli" else "dtregge"
        metrics["setup.import_s"] = _metric(imports[module], "s")
        metrics["setup.sympy_s"] = _metric(imports.get("sympy", 0.0), "s")
        mean_traced = traced_wall / per_round
        metrics["trace.wall_s"] = _metric(mean_traced, "s")
        metrics["trace.untraced_wall_s"] = _metric(plain_wall, "s")
        metrics["trace.overhead_pct"] = _metric(100 * (mean_traced / plain_wall - 1), "%")
        metrics["trace.spans"] = _metric(summary["spans"] / per_round, "count")
        return metrics


def end_to_end_metrics(setup: dict, rounds: list[dict]) -> dict:
    times = [seconds for r in rounds for _, seconds in r["ops"]]
    return {
        "setup_s": _metric(statistics.median(t for _, t in setup["ops"]), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_s": _metric(statistics.median(times), "s"),
        "op_p90_s": _metric(statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "peak_rss_mib": _metric(max(r["peak_rss_mib"] for r in rounds), "MiB"),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def _merge(summaries: list[dict]) -> dict:
    """Sum of several tracer summaries."""
    merged = {"functions": {}, "calls": {}, "result_sizes": {},
              "catalog_canonical_code_calls": 0, "spans": 0}
    for summary in summaries:
        for name, row in summary["functions"].items():
            into = merged["functions"].setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for field, value in row.items():
                into[field] += value
        for group in ("calls", "result_sizes"):
            for name, value in summary[group].items():
                merged[group][name] = merged[group].get(name, 0) + value
        merged["catalog_canonical_code_calls"] += summary["catalog_canonical_code_calls"]
        merged["spans"] += summary["spans"]
    return merged


def environment() -> dict:
    """What identifies the code and the machine a record was made on."""
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dtregge").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (SRC / "dtregge" / "__init__.py").is_file():
        print(f"error: no dtregge source tree at {SRC}", file=sys.stderr)
        return 1
    # One CPU for the run and its children, so that the speed probe samples
    # the CPU that the measured process runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(opts.workload, opts.seed, opts.seconds, bool(opts.trace))
    try:
        result, record = runner.run()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
