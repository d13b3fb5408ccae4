"""Rendered report sections pinned to committed golden digests.

``tests/golden/sections.json`` holds the sha256 of every section of the
geo report at seed 20191021, scale 0.05 (written by
``tests/golden/regen.py``; this test never rewrites it).  Every route a
study can take from a universe to the report must land on those bytes:

* an in-memory study, serial and with crawls fanned out two-wide;
* a crawling study with a store (``repro study --store``): the serial
  study that fills the shared 2-shard store, and studies over 1 shard
  two-wide and 3 shards serial with ``CrawlStore.load_log`` made to
  raise, since such a study reads its runs back from the store one site
  at a time, never as whole logs; and a store-only study over each of
  the last two stores;
* ``repro report``'s store-only study over a 2-shard store, through the
  planned read ``repro report`` runs first
  (:meth:`~repro.Study.prefetch_partials`): one scan of each run's
  partials per shard, and no event row; and the ``repro report --geo``
  command itself on a copy of the store;
* the same with the aggregate cache on, on a copy of the store, since
  the cache is written inside it; both store-only routes run with
  ``Browser.visit`` and ``CrawlStore.load_log`` made to raise: a report
  reads stored partials and artifacts and nothing else;
* a store whose ``sanitize:verdicts`` artifact is damaged, which a
  store-only study must refuse and a crawl-allowed one must recompute
  and rewrite;
* an epoch-1 delta study (``baseline_store`` + ``aggregate_cache``),
  pinned to its own digests, which splices the baseline's partials with
  its rows and leaves the baseline's shard files byte-identical.

The shared epoch-0 store (the ``golden_store`` fixture in
``tests/conftest.py``, which ``tests/test_service.py`` serves a job
over too) is read-only: a test that writes works on a copy, and the
fixture fails at teardown if an aggregate cache appeared in it.

``tests/golden/universe.json`` pins the seed universe every route
crawls: site specs, policy texts, certificates, WHOIS and DNS.
``tests/golden/analyses.json`` pins the per-site analysis results of
the serial in-memory study the same way, and the whole-log analyzers
(``label_parties``, ``classify_log``, ``analyze_cookies``, ...) must
land on those digests too — over the crawled logs as they are, and
over the same logs with their site marks dropped.
"""

import dataclasses
import hashlib
import json
import marshal
import os
import re
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import Study, UniverseConfig
from repro.core import (
    analyze_cookies,
    analyze_fingerprinting,
    analyze_https,
    analyze_malware,
    detect_cookie_sync,
    label_parties,
)
from repro.browser.browser import Browser
from repro.core.compliance.banners import analyze_banners
from repro.datastore import (
    AggregateStore,
    CrawlStore,
    MissingRunError,
    aggregates_path,
    run_key,
)
from repro.datastore.serialize import (
    SANITIZE_KIND,
    SANITIZE_TAG,
    sanitize_to_payload,
)
from repro.net.url import registrable_domain
from repro.reporting.sections import (
    render_figure,
    render_section,
    report_sections,
)
from repro.webgen.builder import build_universe

from .golden.regen import analysis_digests, study_analyses, universe_digests
from .test_delta import shard_file_digests

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "sections.json").read_text()
)
ANALYSES = json.loads(
    (Path(__file__).parent / "golden" / "analyses.json").read_text()
)
UNIVERSE = json.loads(
    (Path(__file__).parent / "golden" / "universe.json").read_text()
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


def test_universe():
    assert UNIVERSE["seed"] == GOLDEN["seed"]
    assert UNIVERSE["scale"] == GOLDEN["scale"]
    got = universe_digests(build_universe(_config()))
    expected = UNIVERSE["epoch0"]
    assert list(got) == list(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"universe differs from the golden digests: {changed}"


@pytest.fixture(scope="module")
def serial_study():
    """The serial in-memory study both golden files were generated from."""
    study = Study(build_universe(_config()), parallelism=1)
    study.run_all(geo=True)
    return study


@pytest.mark.parametrize("parallelism", [1, 2])
def test_in_memory_study(parallelism, request):
    if parallelism == 1:
        study = request.getfixturevalue("serial_study")
    else:
        study = Study(build_universe(_config()), parallelism=parallelism)
        study.run_all(geo=True)
    _assert_golden(study, GOLDEN["epoch0"])


def _assert_analyses(results):
    assert ANALYSES["seed"] == GOLDEN["seed"]
    assert ANALYSES["scale"] == GOLDEN["scale"]
    got = analysis_digests(results)
    expected = ANALYSES["epoch0"]
    assert list(got) == list(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"analyses differ from the golden digests: {changed}"


def _whole_log_analyses(study, porn, regular):
    """Every golden analysis through the whole-log analyzers."""
    cert_lookup = study.universe.certificate_for
    classifier = study.ats_classifier()
    porn_labels = label_parties(porn, cert_lookup=cert_lookup)
    regular_labels = label_parties(regular, cert_lookup=cert_lookup)
    porn_ats = classifier.classify_log(
        porn, third_party_fqdns=porn_labels.all_third_party_fqdns)
    regular_ats = classifier.classify_log(
        regular, third_party_fqdns=regular_labels.all_third_party_fqdns)
    ats_bases = {registrable_domain(fqdn) for fqdn in porn_ats.ats_fqdns} \
        | porn_ats.ats_domains_relaxed
    regular_bases = {registrable_domain(fqdn)
                     for fqdn in regular_labels.all_third_party_fqdns}
    country = study.home_country
    return {
        "porn_labels": porn_labels,
        "regular_labels": regular_labels,
        "porn_ats": porn_ats,
        "regular_ats": regular_ats,
        "cookie_stats": analyze_cookies(porn, ats_domains=ats_bases,
                                        regular_web_domains=regular_bases),
        "cookie_sync": detect_cookie_sync(porn),
        "fingerprinting": analyze_fingerprinting(
            porn.js_calls, url_blocklisted=classifier.matches_url),
        "https_report": analyze_https(porn, porn_labels,
                                      study.crawled_popularity()),
        "malware": analyze_malware(
            porn, porn_labels,
            lambda domain: study.universe.scanner_hits(domain, country)),
        "banners": analyze_banners(porn,
                                   corpus_size=len(study.corpus_domains())),
    }


def test_study_analyses(serial_study):
    _assert_analyses(study_analyses(serial_study))


def test_whole_log_analyses(serial_study):
    porn, regular = serial_study.porn_log(), serial_study.regular_log()
    assert porn.site_marks and regular.site_marks
    _assert_analyses(_whole_log_analyses(serial_study, porn, regular))


def test_whole_log_analyses_without_site_marks(serial_study):
    """Hand-built, merged and archived logs carry no marks; the
    analyzers must group their rows by site to the same results."""
    porn, regular = (dataclasses.replace(log, site_marks=[])
                     for log in (serial_study.porn_log(),
                                 serial_study.regular_log()))
    _assert_analyses(_whole_log_analyses(serial_study, porn, regular))


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"the study called {name}")
    return call


def _forbid_browsing_and_hydration(monkeypatch):
    monkeypatch.setattr(Browser, "visit", _forbidden("Browser.visit"))
    monkeypatch.setattr(CrawlStore, "load_log",
                        _forbidden("CrawlStore.load_log"))


@pytest.mark.parametrize("shards,parallelism", [(1, 2), (3, 1)])
def test_stored_study(shards, parallelism, tmp_path, monkeypatch):
    """``repro study --store``: the crawling study streams every run into
    the store and maps it back from there, so it never loads a whole
    log; a store-only study over the same store renders the same
    bytes."""
    monkeypatch.setattr(CrawlStore, "load_log",
                        _forbidden("CrawlStore.load_log"))
    path = str(tmp_path / "store")
    study = Study(build_universe(_config()), parallelism=parallelism,
                  store=path, store_shards=shards)
    try:
        study.run_all(geo=True)
    except BaseException:
        study.close()
        raise
    _assert_golden(study, GOLDEN["epoch0"])

    monkeypatch.setattr(Browser, "visit", _forbidden("Browser.visit"))
    reader = Study(build_universe(_config()), store=path, store_only=True,
                   parallelism=parallelism)
    assert reader.store.shard_count == shards
    reader.prefetch_partials(geo=True)
    _assert_golden(reader, GOLDEN["epoch0"])


@pytest.mark.parametrize("parallelism", [1, 2])
def test_store_only_report(parallelism, golden_store, monkeypatch):
    """At any parallelism the planned read scans each run's partials
    once per shard and no event row: every partial the report merges
    was written at crawl time.  Rendering afterwards reads nothing."""
    _forbid_browsing_and_hydration(monkeypatch)
    study = Study(build_universe(_config()), store=golden_store,
                  store_only=True, parallelism=parallelism)
    study.prefetch_partials(geo=True)
    counts = dict(study.store.io_stats)
    runs = len(study._run_plan(geo=True))
    assert counts["partial_scans"] == runs * study.store.shard_count
    assert counts["scans"] == 0
    _assert_golden(study, GOLDEN["epoch0"])
    assert study.store.io_stats == counts


def test_shared_result_study(golden_store, monkeypatch):
    """``repro serve`` renders every result from one store-only study
    its HTTP handler threads share: four threads rendering from one
    cold study at once land on the golden bytes, and each memo's
    factory runs once (they decode the partials a serial render does)."""
    _forbid_browsing_and_hydration(monkeypatch)
    scale = GOLDEN["scale"]
    names = ("table2", "table5", "table7", "figure3")

    def render(study, name):
        if name == "figure3":
            text = ("== Figure 3: organizations ==\n"
                    + render_figure(study, scale, name))
        else:
            text = render_section(study, scale, name)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def store_only():
        return Study(build_universe(_config()), store=golden_store,
                     store_only=True)

    serial = store_only()
    try:
        for name in names:
            render(serial, name)
        expected = serial.partial_counts()
    finally:
        serial.close()
    shared = store_only()
    start = threading.Barrier(len(names))

    def run(name):
        start.wait(timeout=60)
        return render(shared, name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(names)) as pool:
            got = dict(zip(names, pool.map(run, names, timeout=300)))
        counts = shared.partial_counts()
    finally:
        sys.setswitchinterval(interval)
        shared.close()
    assert got == {name: GOLDEN["epoch0"][name] for name in names}
    assert counts == expected


def test_report_command(golden_store, tmp_path):
    """``python -m repro report --geo`` prints the golden sections: the
    report is the sections joined by blank lines, and each section but
    the header-less malware line opens with ``== ``."""
    path = str(tmp_path / "store")
    shutil.copytree(golden_store, path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "repro", "report", "--geo", "--store", path],
        capture_output=True, text=True, env=env, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("\n")
    texts = re.split(r"\n\n(?=== |§5\.3 malware:)", done.stdout[:-1])
    got = [hashlib.sha256(text.encode("utf-8")).hexdigest()
           for text in texts]
    assert got == list(GOLDEN["epoch0"].values())


def test_aggregate_cache_report(golden_store, monkeypatch, tmp_path):
    """The cache lands inside the store it reads, so this reads a copy.
    A report reads its partials at rest and its sanitize verdicts and
    inspections from the store's artifacts, so it caches nothing."""
    path = str(tmp_path / "store")
    shutil.copytree(golden_store, path)
    _forbid_browsing_and_hydration(monkeypatch)
    study = Study(build_universe(_config()), store=path,
                  store_only=True, aggregate_cache=True)
    _assert_golden(study, GOLDEN["epoch0"])
    with AggregateStore(aggregates_path(path)) as cache:
        assert cache.row_count() == 0


def _verdicts_key(study):
    return run_key(study.universe.config,
                   study.vantage_points.point(study.home_country),
                   SANITIZE_KIND)


def _damaged_verdicts(fault, payload):
    """The golden store's verdict artifact, broken as ``fault`` says."""
    if fault == "truncated":
        return payload[:len(payload) // 2]
    if fault == "wrong_tag":
        return b"I" + payload[1:]
    if fault == "hash_mismatch":
        _digest, buckets = marshal.loads(payload[1:])
        return SANITIZE_TAG + marshal.dumps(("0" * 64, buckets), 4)
    # The verdicts another universe config's study wrote.
    other = Study(build_universe(UniverseConfig(seed=GOLDEN["seed"] + 1,
                                                scale=0.02)))
    candidates, sanitized = other.corpus()
    return sanitize_to_payload(candidates.domains, sanitized)


@pytest.mark.parametrize("fault", ["truncated", "wrong_tag", "hash_mismatch",
                                   "other_config"])
def test_damaged_sanitize_verdicts(fault, golden_store, tmp_path):
    """A bad verdict artifact is never used: a store-only study raises
    with the re-run hint, and a crawl-allowed one re-sanitizes, rewrites
    the artifact and lands on the golden digests."""
    path = str(tmp_path / "store")
    shutil.copytree(golden_store, path)
    study = Study(build_universe(_config()), store=path)
    key = _verdicts_key(study)
    pristine = study.store.get_artifact(key)
    study.store.put_artifact(key, _damaged_verdicts(fault, pristine))

    reader = Study(study.universe, store=study.store, store_only=True)
    with pytest.raises(MissingRunError, match="repro study --store"):
        reader.corpus()

    _assert_golden(study, GOLDEN["epoch0"])
    with CrawlStore(path) as store:
        assert store.get_artifact(key) == pristine


def test_epoch1_delta_study(golden_store, monkeypatch):
    """The delta study lands on its digests without loading a whole log
    (a study with a store streams), and only reads the baseline: its
    shard files are byte-for-byte what they were."""
    monkeypatch.setattr(CrawlStore, "load_log",
                        _forbidden("CrawlStore.load_log"))
    baseline_shards = shard_file_digests(golden_store)
    path = str(Path(golden_store).with_name("e1"))
    study = Study(build_universe(_config(1)), parallelism=1,
                  store=path, baseline_store=golden_store,
                  aggregate_cache=aggregates_path(path))
    study.run_all(geo=True)
    _assert_golden(study, GOLDEN["epoch1_delta"])
    assert shard_file_digests(golden_store) == baseline_shards
