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

``tests/golden/analyses.json`` pins the per-site analysis results of
the serial in-memory study the same way, and the whole-log analyzers
(``label_parties``, ``classify_log``, ``analyze_cookies``, ...) must
land on those digests too — over the crawled logs as they are, and
over the same logs with their site marks dropped.
"""

import dataclasses
import hashlib
import json
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
from repro.core.compliance.banners import analyze_banners
from repro.datastore import aggregates_path
from repro.net.url import registrable_domain
from repro.reporting.sections import report_sections
from repro.webgen.builder import build_universe

from .golden.regen import analysis_digests, study_analyses

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "sections.json").read_text()
)
ANALYSES = json.loads(
    (Path(__file__).parent / "golden" / "analyses.json").read_text()
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
