"""Rendered report sections pinned to committed golden digests.

``tests/golden/sections.json`` holds the sha256 of every section of the
geo report at seed 20191021, scale 0.05 (written by
``tests/golden/regen.py``; this test never rewrites it).  Every route a
study can take from a universe to the report must land on those bytes:

* an in-memory study, serial and with crawls fanned out two-wide;
* ``repro report``'s store-only study over a 2-shard store;
* the same with the aggregate cache (``repro report --incremental``);
* an epoch-1 delta study (``baseline_store`` + ``aggregate_cache``),
  pinned to its own digests.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import Study, UniverseConfig
from repro.datastore import aggregates_path
from repro.reporting.sections import report_sections
from repro.webgen.builder import build_universe

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "sections.json").read_text()
)


def _config(epoch=0):
    return UniverseConfig(seed=GOLDEN["seed"], scale=GOLDEN["scale"],
                          epoch=epoch)


def _digests(study):
    return {
        name: hashlib.sha256(text.encode("utf-8")).hexdigest()
        for name, text in report_sections(study, GOLDEN["scale"], geo=True)
    }


def _assert_golden(study, expected):
    try:
        got = _digests(study)
    finally:
        study.close()
    assert list(got) == list(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"sections differ from the golden digests: {changed}"


@pytest.fixture(scope="module")
def golden_store(tmp_path_factory):
    """A 2-shard epoch-0 store holding every run the geo report reads."""
    path = str(tmp_path_factory.mktemp("golden") / "e0")
    study = Study(build_universe(_config(), lazy=True), parallelism=1,
                  store=path, store_shards=2)
    try:
        study.run_all(geo=True)
    finally:
        study.close()
    return path


@pytest.mark.parametrize("parallelism", [1, 2])
def test_in_memory_study(parallelism):
    study = Study(build_universe(_config()), parallelism=parallelism)
    study.run_all(geo=True)
    _assert_golden(study, GOLDEN["epoch0"])


def test_store_only_report(golden_store):
    study = Study(build_universe(_config(), lazy=True), store=golden_store,
                  store_only=True)
    _assert_golden(study, GOLDEN["epoch0"])


def test_aggregate_cache_report(golden_store):
    study = Study(build_universe(_config(), lazy=True), store=golden_store,
                  store_only=True, aggregate_cache=True)
    _assert_golden(study, GOLDEN["epoch0"])


def test_epoch1_delta_study(golden_store):
    path = str(Path(golden_store).with_name("e1"))
    study = Study(build_universe(_config(1), lazy=True), parallelism=1,
                  store=path, baseline_store=golden_store,
                  aggregate_cache=aggregates_path(path))
    study.run_all(geo=True)
    _assert_golden(study, GOLDEN["epoch1_delta"])
