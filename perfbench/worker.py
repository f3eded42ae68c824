"""One round of a workload, in a fresh process started by run.py.

    python3 perfbench/worker.py survey|pairing --seed N [--trace-out FILE]
    python3 perfbench/worker.py cli-command --out FILE [--trace] -- ARGS...
    python3 perfbench/worker.py write-reference

``survey`` and ``pairing`` time each operation, check the outputs after the
timed loop, and print one JSON line.  ``cli-command`` runs one dtregge
command as ``python -m dtregge.cli ARGS`` would, but with the speed probe
sampling inside the process, or with ``--trace`` under the tracer, and
writes the samples or the trace summary to FILE.  ``write-reference``
regenerates ``reference/survey_n2_8.json``.  All need ``src`` on
``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time

import checks
import workloads
from spans import Tracer
from speed import Sampler, timings


def _start_tracer(trace_out):
    if trace_out is None:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_tracer(tracer, trace_out):
    if tracer is None:
        return None
    tracer.write(trace_out + ".spans.gz")
    return tracer.summary()


def library_round(workload: str, seed: int, trace_out: str | None) -> dict:
    import dtregge

    tracer = _start_tracer(trace_out)
    # looked up after the tracer is installed, so that the calls are traced
    if workload == "survey":
        keys, operation = workloads.survey_keys(), dtregge.catalog.enumerate_triangulations
    else:
        keys, operation = workloads.pairing_keys(), dtregge.pairing.duality_pairing
    keys = workloads.shuffled(keys, seed)
    intervals, outputs, problems, failed = [], [], [], []
    sampler = Sampler() if tracer is None else None
    with sampler or contextlib.nullcontext():
        for key in keys:
            start = time.perf_counter()
            try:
                outputs.append(operation(*key))
            except Exception as exc:  # one failed operation must not end the round
                outputs.append(None)
                failed.append(str(key))
                problems.append(f"{key}: {type(exc).__name__}: {exc}")
            intervals.append((str(key), start, time.perf_counter()))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = _finish_tracer(tracer, trace_out)

    reference = checks.load_reference() if workload == "survey" else None
    for output in outputs:
        if output is None:
            continue
        if workload == "survey":
            problems += checks.check_catalog(output.to_dict(), reference)
        else:
            problems += checks.check_pairing(output.to_dict(), workloads.PAIRING_ANCHORS)
    return {
        **timings(sampler, intervals),
        "peak_rss_mib": peak,
        "problems": problems,
        "failed": failed,
        "trace": summary,
    }


def cli_command(args: list[str], out: str, traced: bool) -> int:
    sampler = None if traced else Sampler()
    tracer = None
    try:
        with sampler or contextlib.nullcontext():
            import dtregge.cli

            tracer = _start_tracer(out if traced else None)
            dtregge.cli.main.main(args=args, prog_name="dtregge", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        with open(out, "w") as handle:
            json.dump({
                "trace": _finish_tracer(tracer, out),
                "samples": list(zip(sampler.starts, sampler.durations)) if sampler else [],
            }, handle)
    return 0


def write_reference() -> None:
    from dtregge.catalog import enumerate_triangulations

    counts = {
        ",".join(map(str, q)): enumerate_triangulations(genus, n0, q).cardinality
        for genus, n0, q in workloads.survey_keys()
        if workloads.face_count(genus, n0) == 8
    }
    with open(checks.REFERENCE, "w") as handle:
        json.dump(counts, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str]) -> int:
    command = []
    if "--" in argv:
        at = argv.index("--")
        argv, command = argv[:at], argv[at + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("survey", "pairing", "cli-command", "write-reference"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--trace", action="store_true")
    opts = parser.parse_args(argv)
    if opts.mode == "cli-command":
        return cli_command(command, opts.out, opts.trace)
    if opts.mode == "write-reference":
        write_reference()
        return 0
    print(json.dumps(library_round(opts.mode, opts.seed, opts.trace_out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
