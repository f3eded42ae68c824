"""Command-line interface.

Exit codes, from ``EXIT_CODES``: 0 success / all checks pass, 1 check
failure, 2 input error (a bad key, an ``--in`` file that cannot be read or
fails catalog verification, or an ``--out`` path that cannot be written),
3 resource cap exceeded.  Machine output is JSON with exact rationals as
"p/q" strings.  Each command, each of the four ``check`` commands
included, takes only the options it reads, and a report's ``inputs`` echo
what it read.  ``enumerate --out`` writes a copy that nothing reads back;
``--no-cache`` neither reads nor writes the cache.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import click

from . import cache as cache_mod
from . import polygon
from .catalog import (MAX_FACES, InfeasibleKeyError, ResourceCapError, check_feasible,
                      enumerate_triangulations)
from .geometry import half_edge_lengths, median_identity_check, random_fan
from .intersection import ExponentError, GenusError, TauQuery, intersection_number
from .measure import DimensionError, kontsevich_check
from .pairing import cell_volume, duality_pairing
from .report import RunReport, rational
from .ribbon import dualize
from .triangulation import Triangulation, gauss_bonnet_check
from .volume import VolumeError

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3

#: The largest ``check rank --q-max``: q up to 16 take about 1 s on 2 CPUs, q = 31 alone 36 s.
MAX_RANK_Q = 16


#: Exit code of each error that a command reports as ``error: <message>``
#: instead of a traceback.
EXIT_CODES = {
    InfeasibleKeyError: EXIT_INPUT_ERROR,
    GenusError: EXIT_INPUT_ERROR,
    ExponentError: EXIT_INPUT_ERROR,
    cache_mod.InputError: EXIT_INPUT_ERROR,
    DimensionError: EXIT_INPUT_ERROR,
    VolumeError: EXIT_INPUT_ERROR,
    ResourceCapError: EXIT_RESOURCE_CAP,
}


def _parse_q(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(f"cannot parse {text!r}: expected comma-separated integers")


class CommandGroup(click.Group):
    """Starts the clock of every command, and exits with the ``EXIT_CODES``
    code of an error that a command, ``cache`` ones included, raises."""

    def invoke(self, ctx):
        ctx.meta["start"] = time.perf_counter()
        try:
            return super().invoke(ctx)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)))


def _report(command: str, inputs: dict, results: dict, passed: bool = True) -> None:
    """Print the command's ``RunReport`` with its seconds; exit 1 unless passed."""
    seconds = time.perf_counter() - click.get_current_context().meta["start"]
    click.echo(RunReport(command, inputs, results, {"seconds": round(seconds, 3)}).to_json())
    if not passed:
        sys.exit(EXIT_CHECK_FAILED)


@click.group(cls=CommandGroup)
def main():
    """Exact tools for triangulations, dual ribbon graphs and moduli volumes."""


#: Every key needs at least 2 faces, so a lower cap is a usage error.
max_faces_option = click.option(
    "--max-faces", type=click.IntRange(min=2), default=MAX_FACES, show_default=True
)


def with_key(func, required: bool = True):
    """``func`` with the options -g, -n and --q of a key."""
    func = click.option("--q", "qlist", required=required, help="comma-separated q(k)")(func)
    func = click.option("--vertices", "-n", type=int, required=required)(func)
    return click.option("--genus", "-g", type=int, required=required)(func)


@main.command("enumerate")
@with_key
@click.option("--out", type=click.Path(path_type=Path), default=None)
@max_faces_option
@click.option("--workers", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--no-cache", is_flag=True, help="enumerate; neither read nor write the cache")
def cmd_enumerate(genus, vertices, qlist, out, max_faces, workers, no_cache):
    """Enumerate all labelled triangulations realizing a curvature key."""
    q = _parse_q(qlist)
    if no_cache:
        catalog, path = enumerate_triangulations(genus, vertices, q, max_faces, workers), None
    else:
        catalog = cache_mod.cached_catalog(genus, vertices, q, max_faces, workers)
        path = cache_mod.catalog_path(genus, vertices, q)
    if out is not None:
        cache_mod.atomic_write_json(out, catalog.to_dict())
        path = out
    _report(
        "enumerate",
        {"genus": genus, "vertices": vertices, "q": list(q)},
        {
            "cardinality": catalog.cardinality,
            "codes": [entry.code.hex() for entry in catalog.entries],
            "aut_orders": [entry.aut_order for entry in catalog.entries],
            "path": str(path) if path else None,
        },
    )


@main.command("dual")
@click.option("--in", "in_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
def cmd_dual(in_path, out):
    """Dualize a triangulation JSON file into a ribbon graph JSON file."""
    t = cache_mod.read_json(in_path, Triangulation.from_dict, "triangulation")
    data = dualize(t).to_dict()
    if out is not None:
        cache_mod.atomic_write_json(out, data)
    else:
        click.echo(json.dumps(data, indent=2, sort_keys=True))


@main.group("check")
def cmd_check():
    """Run an exact identity check and report per-entry results."""


def _check_report(kind: str, inputs: dict, entries: list[dict]) -> None:
    passed = all(entry["pass"] for entry in entries)
    _report(f"check {kind}", inputs, {"entries": entries, "pass": passed}, passed=passed)


def catalog_check(kind: str):
    """Register ``check <kind>``, which runs the decorated function on each
    entry of one catalog, read from ``--in`` or by its key, and echoes the
    key it read."""

    def register(check_entry):
        @click.option("--in", "in_path", type=click.Path(path_type=Path), default=None)
        @click.option("--max-faces", type=click.IntRange(min=2), default=None,
                      help=f"face cap of the key's enumeration  [default: {MAX_FACES}]")
        def command(in_path, genus, vertices, qlist, max_faces):
            key = (genus, vertices, qlist)
            if in_path is not None and (*key, max_faces) == (None,) * 4:
                catalog = cache_mod.load_catalog(in_path)
            elif in_path is None and None not in key:
                q = _parse_q(qlist)
                catalog = cache_mod.cached_catalog(genus, vertices, q, max_faces or MAX_FACES)
            else:
                raise click.UsageError("give either --in or the key: -g, -n, --q, --max-faces")
            inputs = {"in": str(in_path) if in_path else None, "genus": catalog.genus,
                      "vertices": catalog.vertex_count, "q": list(catalog.q)}
            entries = [{"code": e.code.hex(), **check_entry(e)} for e in catalog.entries]
            _check_report(kind, inputs, entries)

        return cmd_check.command(kind, help=check_entry.__doc__)(with_key(command, False))

    return register


@catalog_check("gauss-bonnet")
def check_gauss_bonnet(entry) -> dict:
    """Gauss-Bonnet: each triangulation's total curvature is 2 pi chi."""
    total, ok = gauss_bonnet_check(entry.triangulation)
    expected = 2 * (2 - 2 * entry.triangulation.genus)
    return {"total_curvature_over_pi": rational(total), "expected_over_pi": rational(expected),
            "pass": ok}


@catalog_check("kontsevich")
def check_kontsevich(entry) -> dict:
    """Kontsevich's wedge identity on each entry's dual ribbon graph."""
    ok, coeff, expected = kontsevich_check(entry.dual)
    return {"coefficient": int(coeff), "expected": int(expected), "pass": ok}


@cmd_check.command("median")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
def check_median(seed, trials):
    """The exact median identity on random fans."""
    rng = random.Random(seed)
    fans = [random_fan(rng) for _ in range(trials)]
    entries = [{"q": fan.q, "pass": median_identity_check(half_edge_lengths(fan))} for fan in fans]
    _check_report("median", {"seed": seed, "trials": trials}, entries)


@cmd_check.command("rank")
@click.option("--q-max", type=click.IntRange(min=3), default=8, show_default=True)
def check_rank(q_max):
    """The rank q-1 of the tangent map at the regular q-gons, q = 3..q_max."""
    if q_max > MAX_RANK_Q:
        raise ResourceCapError(f"--q-max {q_max} is above the cap of {MAX_RANK_Q}")
    ranks = ((q, polygon.equilateral_rank(q)) for q in range(3, q_max + 1))
    entries = [{"q": q, "rank": r, "expected": q - 1, "pass": r == q - 1} for q, r in ranks]
    _check_report("rank", {"q_max": q_max}, entries)


@main.command("volume")
@with_key
@max_faces_option
def cmd_volume(genus, vertices, qlist, max_faces):
    """Exact Leray volumes at a key, read through the pairing's ``cell_volume``."""
    q = _parse_q(qlist)
    catalog = cache_mod.cached_catalog(genus, vertices, q, max_faces)
    entries = [
        {
            "code": entry.code.hex(),
            "volume": rational(cell_volume(entry.dual, q)),
            "dim": entry.dual.edge_count - vertices,
            "aut_boundary": entry.aut_order,
        }
        for entry in catalog.entries
    ]
    _report("volume", {"genus": genus, "vertices": vertices, "q": list(q)}, {"entries": entries})


dvv_option = click.option("--enable-dvv", is_flag=True, help="allow genus >= 2")


def _genus_gate(genus: int, enable_dvv: bool) -> None:
    """GenusError at genus >= 2 unless ``--enable-dvv`` was given."""
    if genus >= 2 and not enable_dvv:
        raise GenusError("genus >= 2 requires the higher-genus recursion flag (--enable-dvv)")


@main.command("tau")
@click.option("--genus", "-g", type=int, required=True)
@click.option("--d", "dlist", type=str, required=True, help="comma-separated exponents")
@dvv_option
def cmd_tau(genus, dlist, enable_dvv):
    """One intersection number <tau_{d_1} ... tau_{d_n}>_g."""
    query = TauQuery(genus, _parse_q(dlist))
    if query.on_shell:  # an off-shell number is 0 at every genus
        _genus_gate(genus, enable_dvv)
    value = intersection_number(query)
    _report("tau", {"genus": genus, "d": list(query.exponents)}, {"value": rational(value)})


@main.command("pairing")
@with_key
@max_faces_option
@dvv_option
def cmd_pairing(genus, vertices, qlist, max_faces, enable_dvv):
    """Verify the duality pairing at a key; exit status reflects equality."""
    q = _parse_q(qlist)
    check_feasible(genus, vertices, q, max_faces)  # a bad key or cap first, then the genus
    _genus_gate(genus, enable_dvv)
    report = duality_pairing(genus, vertices, q, max_faces)
    body = report.to_dict()
    average = report.average_volume
    body["average_volume"] = rational(average) if average is not None else None
    _report(
        "pairing", {"genus": genus, "vertices": vertices, "q": list(q)}, body, passed=report.equal
    )


@main.group("cache")
def cmd_cache():
    """Inspect or verify the catalog cache."""


@cmd_cache.command("ls")
def cache_ls():
    for path in cache_mod.list_cache():
        click.echo(str(path))


@cmd_cache.command("verify")
def cache_verify():
    ok = True
    for path in cache_mod.list_cache():
        try:
            cache_mod.load_catalog(path)
            status = "ok"
        except cache_mod.InputError as exc:
            status, ok = f"FAIL: {exc}", False
        click.echo(f"{path}: {status}")
    if not ok:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
