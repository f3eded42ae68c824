"""Command-line interface.

Exit codes, from ``EXIT_CODES``: 0 success / all checks pass, 1 check
failure, 2 input error (a bad key, an ``--in`` file that cannot be read or
fails catalog verification, or an ``--out`` path that cannot be written),
3 resource cap exceeded.  Machine output is JSON with exact rationals as
"p/q" strings.  Only ``check rank`` loads sympy and mpmath.
"""

from __future__ import annotations

import functools
import json
import random
import sys
import time
from pathlib import Path

import click

from . import cache as cache_mod
from .catalog import MAX_FACES, Catalog, InfeasibleKeyError, ResourceCapError
from .geometry import half_edge_lengths, median_identity_check, random_fan
from .intersection import ExponentError, GenusError, tau
from .measure import DimensionError, incidence_matrix, kontsevich_check
from .pairing import duality_pairing
from .report import RunReport, rational
from .ribbon import dualize
from .triangulation import Triangulation, gauss_bonnet_check
from .volume import VolumeError, leray_volume

EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3


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


def _emit(report: RunReport) -> None:
    click.echo(report.to_json())


def reports_errors(command):
    """Exit with the ``EXIT_CODES`` code of an error the command raises."""

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)))

    return run


@click.group()
def main():
    """Exact tools for triangulations, dual ribbon graphs and moduli volumes."""


key_options = [
    click.option("--genus", "-g", type=int, required=True),
    click.option("--vertices", "-n", "vertices", type=int, required=True),
    click.option("--q", "qlist", type=str, required=True, help="comma-separated q(k)"),
]


def with_key(func):
    for option in reversed(key_options):
        func = option(func)
    return func


@main.command("enumerate")
@with_key
@click.option("--out", type=click.Path(path_type=Path), default=None)
@click.option("--max-faces", type=int, default=MAX_FACES, show_default=True)
@click.option("--workers", type=int, default=1, show_default=True)
@click.option("--no-cache", is_flag=True, help="do not read or write the catalog cache")
@reports_errors
def cmd_enumerate(genus, vertices, qlist, out, max_faces, workers, no_cache):
    """Enumerate all labelled triangulations realizing a curvature key."""
    q = _parse_q(qlist)
    t0 = time.perf_counter()
    catalog, path = cache_mod.cached_catalog(
        genus,
        vertices,
        q,
        max_faces=max_faces,
        workers=workers,
        path=out,
        read=not no_cache,
        write=not no_cache or out is not None,
    )
    _emit(
        RunReport(
            "enumerate",
            {"genus": genus, "vertices": vertices, "q": list(q)},
            {
                "cardinality": catalog.cardinality,
                "codes": [entry.code.hex() for entry in catalog.entries],
                "aut_orders": [entry.aut_order for entry in catalog.entries],
                "path": str(path),
            },
            {"seconds": round(time.perf_counter() - t0, 3)},
        )
    )


@main.command("dual")
@click.option("--in", "in_path", type=click.Path(path_type=Path), required=True)
@click.option("--out", type=click.Path(path_type=Path), default=None)
@reports_errors
def cmd_dual(in_path, out):
    """Dualize a triangulation JSON file into a ribbon graph JSON file."""
    t = cache_mod.read_json(in_path, Triangulation.from_dict, "triangulation")
    data = dualize(t).to_dict()
    if out is not None:
        cache_mod.atomic_write_json(out, data)
    else:
        click.echo(json.dumps(data, indent=2, sort_keys=True))


def _load_catalog_or_key(in_path, genus, vertices, qlist, max_faces) -> Catalog:
    if in_path is not None:
        return cache_mod.load_catalog(in_path)
    if genus is None or vertices is None or qlist is None:
        raise click.UsageError("provide either --in or the key (--genus/--vertices/--q)")
    return cache_mod.cached_catalog(genus, vertices, _parse_q(qlist), max_faces=max_faces)[0]


@main.command("check")
@click.argument("kind", type=click.Choice(["gauss-bonnet", "kontsevich", "median", "rank"]))
@click.option("--in", "in_path", type=click.Path(path_type=Path), default=None)
@click.option("--genus", "-g", type=int, default=None)
@click.option("--vertices", "-n", type=int, default=None)
@click.option("--q", "qlist", type=str, default=None)
@click.option("--max-faces", type=int, default=MAX_FACES, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--q-max", type=click.IntRange(min=3), default=8, show_default=True)
@reports_errors
def cmd_check(kind, in_path, genus, vertices, qlist, max_faces, seed, trials, q_max):
    """Run an exact identity check and report per-entry results."""
    t0 = time.perf_counter()
    results: dict = {"entries": [], "pass": True}
    if kind in ("gauss-bonnet", "kontsevich"):
        catalog = _load_catalog_or_key(in_path, genus, vertices, qlist, max_faces)
        for entry in catalog.entries:
            if kind == "gauss-bonnet":
                total, ok = gauss_bonnet_check(entry.triangulation)
                results["entries"].append(
                    {
                        "code": entry.code.hex(),
                        "total_curvature_over_pi": rational(total),
                        "expected_over_pi": rational(
                            2 * (2 - 2 * entry.triangulation.genus)
                        ),
                        "pass": ok,
                    }
                )
            else:
                ok, coeff, expected = kontsevich_check(entry.dual)
                results["entries"].append(
                    {
                        "code": entry.code.hex(),
                        "coefficient": int(coeff),
                        "expected": int(expected),
                        "pass": ok,
                    }
                )
            results["pass"] &= results["entries"][-1]["pass"]
    elif kind == "median":
        rng = random.Random(seed)
        for _ in range(trials):
            fan = random_fan(rng)
            ok = median_identity_check(half_edge_lengths(fan))
            results["entries"].append({"q": fan.q, "pass": ok})
            results["pass"] &= ok
    else:  # rank
        from . import polygon  # loaded here only: it imports mpmath

        for q in range(3, q_max + 1):
            rank = polygon.equilateral_rank(q)
            ok = rank == q - 1
            results["entries"].append({"q": q, "rank": rank, "expected": q - 1, "pass": ok})
            results["pass"] &= ok
    _emit(
        RunReport(
            f"check {kind}",
            {"in": str(in_path) if in_path else None, "seed": seed},
            results,
            {"seconds": round(time.perf_counter() - t0, 3)},
        )
    )
    if not results["pass"]:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("volume")
@with_key
@click.option("--max-faces", type=int, default=MAX_FACES, show_default=True)
@reports_errors
def cmd_volume(genus, vertices, qlist, max_faces):
    """Exact Leray volumes of the constraint polytopes at a key."""
    q = _parse_q(qlist)
    t0 = time.perf_counter()
    catalog = cache_mod.cached_catalog(genus, vertices, q, max_faces=max_faces)[0]
    entries = []
    for entry in catalog.entries:
        vol = leray_volume(incidence_matrix(entry.dual))
        entries.append(
            {
                "code": entry.code.hex(),
                "volume": rational(vol.value),
                "dim": vol.dimension,
                "aut_boundary": entry.aut_order,
            }
        )
    _emit(
        RunReport(
            "volume",
            {"genus": genus, "vertices": vertices, "q": list(q)},
            {"entries": entries},
            {"seconds": round(time.perf_counter() - t0, 3)},
        )
    )


@main.command("tau")
@click.option("--genus", "-g", type=int, required=True)
@click.option("--d", "dlist", type=str, required=True, help="comma-separated exponents")
@click.option("--enable-dvv", is_flag=True, help="allow genus >= 2 via the KdV recursion")
@reports_errors
def cmd_tau(genus, dlist, enable_dvv):
    """One intersection number <tau_{d_1} ... tau_{d_n}>_g."""
    ds = _parse_q(dlist)
    value = tau(genus, ds, enable_higher_genus=enable_dvv)
    _emit(
        RunReport(
            "tau",
            {"genus": genus, "d": list(ds)},
            {"value": rational(value)},
        )
    )


@main.command("pairing")
@with_key
@click.option("--max-faces", type=int, default=MAX_FACES, show_default=True)
@click.option("--enable-dvv", is_flag=True, help="allow genus >= 2 via the KdV recursion")
@reports_errors
def cmd_pairing(genus, vertices, qlist, max_faces, enable_dvv):
    """Verify the duality pairing at a key; exit status reflects equality."""
    q = _parse_q(qlist)
    t0 = time.perf_counter()
    report = duality_pairing(
        genus, vertices, q, enable_higher_genus=enable_dvv, max_faces=max_faces
    )
    body = report.to_dict()
    average = report.average_volume
    body["average_volume"] = rational(average) if average is not None else None
    _emit(
        RunReport(
            "pairing",
            {"genus": genus, "vertices": vertices, "q": list(q)},
            body,
            {"seconds": round(time.perf_counter() - t0, 3)},
        )
    )
    if not report.equal:
        sys.exit(EXIT_CHECK_FAILED)


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
