"""Persistent catalog cache: one JSON file per enumeration key.

Files are written atomically (temp file in the same directory, then
rename) and carry the normative-convention version stamp; files written
under an older convention are ignored.  The cache directory is taken from
the DTREGGE_CACHE_DIR environment variable, with a per-user default.
``read_json`` and ``atomic_write_json`` read and write every file dtregge
uses, and raise ``InputError`` for one they cannot.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from .catalog import (CONVENTION_VERSION, MAX_FACES, Catalog, check_feasible,
                      enumerate_triangulations)
from .ribbon import aut_boundary, canonical_code, dualize
from .triangulation import curvature_assignments, gauss_bonnet_check

CACHE_ENV = "DTREGGE_CACHE_DIR"


class InputError(ValueError):
    """A file that cannot be read as what it should hold, or written."""


class CacheError(InputError):
    """A catalog file written under another convention, or inconsistent."""


def read_json(path, parse, what: str):
    """``parse`` of the JSON in ``path``; InputError if it cannot be read."""
    try:
        return parse(json.loads(Path(path).read_bytes()))
    except InputError:
        raise
    except (OSError, ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dtregge"


def catalog_path(genus: int, n0: int, q, directory: Path | None = None) -> Path:
    base = directory if directory is not None else cache_dir()
    name = "catalog-g{}-n{}-q{}-v{}.json".format(
        genus, n0, "_".join(str(x) for x in q), CONVENTION_VERSION
    )
    return base / name


def atomic_write_json(path: Path, data) -> None:
    """Write ``data`` by a temp file and a rename; InputError if it cannot."""
    path = Path(path)
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def save_catalog(catalog: Catalog, directory: Path | None = None) -> Path:
    path = catalog_path(catalog.genus, catalog.vertex_count, catalog.q, directory)
    atomic_write_json(path, catalog.to_dict())
    return path


def load_catalog(path: Path) -> Catalog:
    """The catalog in ``path``, verified, for the cache and ``--in`` alike:
    CacheError naming every problem for another convention version, a wrong
    cardinality or a failed ``verify_catalog``; InputError for any other
    file not a catalog."""

    def parse(data) -> Catalog:
        if data.get("version") != CONVENTION_VERSION:
            raise CacheError(
                f"{path}: written under convention version {data.get('version')}, "
                f"current is {CONVENTION_VERSION}"
            )
        if data.get("cardinality") != len(data["entries"]):
            raise CacheError(
                f"{path}: stored cardinality {data.get('cardinality')} does not match "
                f"its {len(data['entries'])} entries"
            )
        catalog = Catalog.from_dict(data)
        problems = verify_catalog(catalog)
        if problems:
            raise CacheError(f"{path}: " + "; ".join(problems))
        return catalog

    return read_json(path, parse, "catalog")


def verify_catalog(catalog: Catalog) -> list[str]:
    """Re-run the catalog invariants; returns a list of problems (empty = ok)."""
    problems = []
    codes = set()
    for i, entry in enumerate(catalog.entries):
        t = entry.triangulation
        if t.genus != catalog.genus:
            problems.append(f"entry {i}: genus {t.genus} != {catalog.genus}")
        if curvature_assignments(t) != catalog.q:
            problems.append(f"entry {i}: curvature assignments do not match the key")
        total, ok = gauss_bonnet_check(t)
        if not ok:
            problems.append(f"entry {i}: total curvature {total}*pi fails Gauss-Bonnet")
        dual = entry.dual
        if dualize(t) != dual:
            problems.append(f"entry {i}: stored dual is not the dual of its triangulation")
        if canonical_code(dual) != entry.code:
            problems.append(f"entry {i}: stored canonical code is stale")
        if aut_boundary(dual)[0] != entry.aut_order:
            problems.append(f"entry {i}: stored automorphism order is stale")
        if entry.code in codes:
            problems.append(f"entry {i}: duplicate canonical code")
        codes.add(entry.code)
    return problems


def cached_catalog(
    genus: int,
    n0: int,
    q,
    max_faces: int = MAX_FACES,
    workers: int = 1,
    path: Path | None = None,
    read: bool = True,
    write: bool = True,
) -> tuple[Catalog, Path]:
    """The catalog of a key, from the cache file when it holds a verified
    catalog of that key, else enumerated (and written when ``write``).

    The key and the face cap are checked before any file is read.  A file
    that ``load_catalog`` refuses, or of another key, is a miss: the key is
    enumerated and the file rewritten.  ``path`` defaults to the key's file
    in the cache directory; writing there is best effort (an unwritable
    cache directory only costs the next call an enumeration), while an
    explicit ``path`` must be written.
    """
    q = tuple(q)
    check_feasible(genus, n0, q, max_faces)
    explicit = path is not None
    path = Path(path) if explicit else catalog_path(genus, n0, q)
    try:
        candidate = load_catalog(path) if read else None
    except InputError:
        candidate = None
    if candidate and (candidate.genus, candidate.vertex_count, candidate.q) == (genus, n0, q):
        return candidate, path
    catalog = enumerate_triangulations(genus, n0, q, max_faces=max_faces, workers=workers)
    if write:
        try:
            atomic_write_json(path, catalog.to_dict())
        except InputError:
            if explicit:
                raise
    return catalog, path


def list_cache(directory: Path | None = None) -> list[Path]:
    base = directory if directory is not None else cache_dir()
    if not base.is_dir():
        return []
    return sorted(base.glob("catalog-*.json"))
