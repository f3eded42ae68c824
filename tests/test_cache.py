import dataclasses
import json

import pytest

from dtregge import cache
from dtregge.catalog import CONVENTION_VERSION, Catalog, enumerate_triangulations


@pytest.fixture
def catalog():
    return enumerate_triangulations(0, 3, (2, 2, 2))


def test_cache_dir_honours_environment(tmp_path, monkeypatch):
    monkeypatch.setenv(cache.CACHE_ENV, str(tmp_path / "elsewhere"))
    assert cache.cache_dir() == tmp_path / "elsewhere"


def test_catalog_path_encodes_key_and_version(tmp_path):
    path = cache.catalog_path(0, 3, (2, 2, 2), tmp_path)
    assert path.name == f"catalog-g0-n3-q2_2_2-v{CONVENTION_VERSION}.json"


def test_save_load_round_trip(tmp_path, catalog):
    path = cache.save_catalog(catalog, tmp_path)
    again = cache.load_catalog(path)
    assert again.to_dict() == catalog.to_dict()
    assert cache.list_cache(tmp_path) == [path]


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "sub" / "data.json"
    cache.atomic_write_json(path, {"a": 1})
    assert json.loads(path.read_text()) == {"a": 1}
    assert [p.name for p in path.parent.iterdir()] == ["data.json"]


def test_stale_version_rejected(tmp_path, catalog):
    path = cache.save_catalog(catalog, tmp_path)
    data = json.loads(path.read_text())
    data["version"] = CONVENTION_VERSION + 1
    path.write_text(json.dumps(data))
    with pytest.raises(cache.CacheError):
        cache.load_catalog(path)


def test_cardinality_mismatch_rejected(tmp_path):
    full = enumerate_triangulations(0, 4, (3, 3, 3, 3))
    assert full.cardinality == 2
    path = cache.save_catalog(full, tmp_path)
    data = json.loads(path.read_text())
    data["entries"] = data["entries"][:1]
    path.write_text(json.dumps(data))
    with pytest.raises(cache.CacheError, match="cardinality"):
        cache.load_catalog(path)
    again, _ = cache.cached_catalog(0, 4, (3, 3, 3, 3), path=path)
    assert again.to_dict() == full.to_dict()


def test_verify_catalog_clean(catalog):
    assert cache.verify_catalog(catalog) == []


def test_verify_catalog_detects_tampering(catalog):
    entry = catalog.entries[0]
    bad_entry = dataclasses.replace(entry, aut_order=entry.aut_order + 1)
    tampered = Catalog(catalog.genus, catalog.vertex_count, catalog.q, (bad_entry,))
    problems = cache.verify_catalog(tampered)
    assert any("automorphism order" in p for p in problems)

    bad_entry = dataclasses.replace(entry, code=b"\x00" * len(entry.code))
    tampered = Catalog(catalog.genus, catalog.vertex_count, catalog.q, (bad_entry,))
    problems = cache.verify_catalog(tampered)
    assert any("canonical code" in p for p in problems)

    mislabeled = Catalog(catalog.genus, catalog.vertex_count, (2, 2, 3), catalog.entries)
    problems = cache.verify_catalog(mislabeled)
    assert problems

    four = enumerate_triangulations(0, 4, (3, 3, 3, 3))
    first, second = four.entries
    swapped = dataclasses.replace(four, entries=(
        dataclasses.replace(first, triangulation=second.triangulation),
        dataclasses.replace(second, triangulation=first.triangulation),
    ))
    problems = cache.verify_catalog(swapped)
    assert problems == [
        "entry 0: stored dual is not the dual of its triangulation",
        "entry 1: stored dual is not the dual of its triangulation",
    ]
