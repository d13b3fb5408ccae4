"""Shared fixtures: a small deterministic universe and a study over it.

Scale 0.04 keeps the full pipeline under a few seconds while leaving
every population (operators, banners, miners, geo-targeted malware)
non-empty.
"""

from __future__ import annotations

import json
import multiprocessing
from pathlib import Path

import pytest

from repro import Study, UniverseConfig
from repro.crawler import OpenWPMCrawler, VantagePointManager
from repro.webgen import build_universe

SMALL_SCALE = 0.04
SEED = 20191021


@pytest.fixture(scope="session")
def universe():
    return build_universe(UniverseConfig(seed=SEED, scale=SMALL_SCALE))


@pytest.fixture(scope="session")
def study(universe):
    return Study(universe)


@pytest.fixture(scope="session")
def vantage_points():
    return VantagePointManager()


@pytest.fixture(scope="session")
def crawlable_porn(universe):
    """Sanitized, crawl-survivable porn domains (sorted for determinism)."""
    return sorted(
        domain
        for domain, site in universe.porn_sites.items()
        if site.responsive and not site.crawl_flaky
    )


@pytest.fixture(scope="session")
def porn_log(study):
    return study.porn_log()


@pytest.fixture(scope="session")
def regular_log(study):
    return study.regular_log()


@pytest.fixture
def no_fork(monkeypatch):
    """A platform without ``fork``: the crawl executor runs inline."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])


@pytest.fixture(scope="session")
def golden_store(tmp_path_factory):
    """A 2-shard epoch-0 store of the golden study (``tests/golden/``),
    holding every run the geo report reads.

    Read-only for the tests that share it: a test that writes (an
    aggregate cache, a damaged artifact, a served job) works on a copy,
    so no test's outcome depends on which ran first.
    """
    from .golden import regen

    expected = json.loads(regen.GOLDEN.read_text())["epoch0"]
    path = str(tmp_path_factory.mktemp("golden") / "e0")
    study = Study(build_universe(regen.config()), parallelism=1,
                  store=path, store_shards=2)
    try:
        study.run_all(geo=True)
        # The study that filled the store renders the golden sections too.
        assert list(regen.digests(study).items()) == list(expected.items())
    finally:
        study.close()
    yield path
    assert not list(Path(path).glob("aggregates.sqlite*")), \
        "a test wrote an aggregate cache into the shared golden store"
