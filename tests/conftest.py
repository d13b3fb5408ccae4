"""Shared fixtures: a small deterministic universe and a study over it.

Scale 0.04 keeps the full pipeline under a few seconds while leaving
every population (operators, banners, miners, geo-targeted malware)
non-empty.
"""

from __future__ import annotations

import multiprocessing

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
    """A platform without ``fork``: the crawl executor runs threads."""
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
