"""Incremental map/merge analysis: parity, caching, and invalidation.

Pins the contracts the aggregate cache rests on:

* every ``merge(map(site_rows))`` equals its monolithic reference —
  object-equal *and* identical through the rendered report bytes (the
  merges replay the reference insertion order, so even set/dict
  iteration ties line up);
* a second study over the same store serves every partial from the
  cache (zero misses) and still renders identical bytes;
* across an evolved epoch, exactly the sites whose analysis content
  hash changed are re-mapped — spliced sites are cache hits;
* bumping an ``ANALYSIS_VERSIONS`` entry orphans that analysis's
  cached partials (full recompute, same bytes);
* a corrupted aggregate row degrades to a recompute — never a wrong
  table;
* satellites: per-analysis wall timings under the prefetch pool, store
  open/scan counters, CLI ``--incremental`` / ``--stats`` / ``store
  info -v`` surfaces.
"""

import dataclasses
import marshal
import os
import pickle
import sqlite3

import pytest

from repro import Study, UniverseConfig
from repro.__main__ import main
from repro.core import mapmerge
from repro.core.corpus import compile_candidates, sanitize_candidates
from repro.crawler.selenium import SeleniumCrawler
from repro.crawler.vpn import VantagePointManager
from repro.core.compliance.banners import analyze_banners
from repro.core.cookie_analysis import analyze_cookies
from repro.core.cookie_sync import detect_cookie_sync
from repro.core.fingerprinting import analyze_fingerprinting
from repro.core.https_analysis import analyze_https
from repro.core.malware import analyze_malware
from repro.core.partylabel import label_parties
from repro.datastore import (
    AggregateStore,
    CrawlStore,
    IncrementalRunAnalyzer,
    LogRows,
    aggregates_path,
    cached_inspections,
    cached_sanitize,
)
from repro.datastore.incremental import _inspection_hash
from repro.datastore.serialize import (
    inspections_from_payload,
    inspections_to_payload,
)
from repro.reporting.sections import render_section
from repro.webgen.builder import build_universe
from repro.webgen.evolve import analysis_hash_index, evolve_universe

SECTIONS = ("corpus", "table2", "table3", "figure3", "table4", "figure4",
            "table5", "table6", "malware")


@pytest.fixture(scope="module")
def inc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("incremental")


@pytest.fixture(scope="module")
def epoch0_store(inc_dir, universe):
    path = str(inc_dir / "store")
    study = Study(universe, store=path)
    study.porn_log()
    study.porn_log("US")           # table8 compares ES vs US banners
    study.regular_log()
    study.inspections()            # `repro report` needs the full pass
    return path


@pytest.fixture(scope="module")
def evolved(universe):
    return evolve_universe(universe)


@pytest.fixture(scope="module")
def epoch1_store(inc_dir, evolved, epoch0_store):
    path = epoch0_store + "-e1"
    study = Study(evolved, store=path, baseline_store=epoch0_store)
    study.porn_log()
    study.regular_log()
    return path


@pytest.fixture(scope="module")
def reference_sections(universe, epoch0_store):
    """Monolithic store-only render: the byte-identity baseline."""
    study = Study(_rebuild(universe), store=epoch0_store, store_only=True)
    return {name: render_section(study, universe.config.scale, name)
            for name in SECTIONS}


def _rebuild(universe):
    """A fresh universe equal to ``universe`` (no shared memo state)."""
    return build_universe(universe.config)


def _incremental_study(universe, store_path, cache=None):
    return Study(_rebuild(universe), store=store_path, store_only=True,
                 aggregate_cache=cache
                 if cache is not None else aggregates_path(store_path))


def _render_all(study, scale):
    return {name: render_section(study, scale, name) for name in SECTIONS}


class TestMapMergeParity:
    """merge(map(per-site rows)) == the monolithic references.

    The study itself only merges partials, so each test checks both the
    hand-split merge and the study's own result against the whole-log
    analyzer.
    """

    @pytest.fixture(scope="class")
    def split(self, study):
        log = study.porn_log()
        domains = study.corpus_domains()
        vis = {d: [] for d in domains}
        req = {d: [] for d in domains}
        coo = {d: [] for d in domains}
        js = {d: [] for d in domains}
        for v in log.visits:
            vis[v.site_domain].append(v)
        for r in log.requests:
            req[r.page_domain].append(r)
        for c in log.cookies:
            coo[c.page_domain].append(c)
        for call in log.js_calls:
            js[call.document_host].append(call)
        return domains, vis, req, coo, js

    @pytest.fixture(scope="class")
    def ref_labels(self, study):
        return label_parties(study.porn_log(),
                             cert_lookup=study.universe.certificate_for)

    @pytest.fixture(scope="class")
    def ref_ats(self, study, ref_labels):
        return study.ats_classifier().classify_log(
            study.porn_log(),
            third_party_fqdns=ref_labels.all_third_party_fqdns)

    def test_labels(self, study, split, ref_labels):
        domains, _vis, req, _coo, _js = split
        ref = ref_labels
        parts = [mapmerge.map_labels(
            req[d], cert_lookup=study.universe.certificate_for)
            for d in domains]
        for got in (mapmerge.merge_labels(parts), study.porn_labels()):
            assert got == ref
            # Iteration order too: figure3's tie-break leaks set order.
            assert list(got.third_party_direct) == \
                list(ref.third_party_direct)
            for page in ref.third_party_direct:
                assert list(got.third_party_direct[page]) == \
                    list(ref.third_party_direct[page])
            for page in ref.third_party_dynamic:
                assert list(got.third_party_dynamic[page]) == \
                    list(ref.third_party_dynamic[page])

    def test_ats(self, study, split, ref_labels, ref_ats):
        domains, _vis, req, _coo, _js = split
        ref = ref_ats
        parts = [mapmerge.map_ats(req[d], study.ats_classifier())
                 for d in domains]
        merged = mapmerge.merge_ats(
            parts, third_party_fqdns=ref_labels.all_third_party_fqdns)
        for got in (merged, study.porn_ats()):
            assert list(got.ats_fqdns) == list(ref.ats_fqdns)
            assert list(got.ats_domains_relaxed) == \
                list(ref.ats_domains_relaxed)
            assert list(got.per_page) == list(ref.per_page)
            for page in ref.per_page:
                assert list(got.per_page[page]) == list(ref.per_page[page])

    def test_cookies(self, study, split, ref_ats):
        domains, vis, _req, coo, _js = split
        from repro.net.url import registrable_domain
        ats_bases = {registrable_domain(f)
                     for f in ref_ats.ats_fqdns} | ref_ats.ats_domains_relaxed
        regular_labels = label_parties(
            study.regular_log(), cert_lookup=study.universe.certificate_for)
        regular_bases = {
            registrable_domain(f)
            for f in regular_labels.all_third_party_fqdns
        }
        ref = analyze_cookies(study.porn_log(), ats_domains=ats_bases,
                              regular_web_domains=regular_bases)
        parts = [mapmerge.map_cookies(vis[d], coo[d],
                                      client_ip=study.porn_log().client_ip)
                 for d in domains]
        merged = mapmerge.merge_cookies(parts, ats_domains=ats_bases,
                                        regular_web_domains=regular_bases)
        for got in (merged, study.cookie_stats()):
            assert got == ref
            assert list(got.popular_cookies) == list(ref.popular_cookies)
            assert list(got.ip_cookie_domains) == \
                list(ref.ip_cookie_domains)

    def test_https(self, study, split, ref_labels):
        domains, vis, req, coo, _js = split
        ref = analyze_https(study.porn_log(), ref_labels,
                            study.crawled_popularity())
        labels_parts = [mapmerge.map_labels(
            req[d], cert_lookup=study.universe.certificate_for)
            for d in domains]
        parts = [mapmerge.map_https(vis[d], req[d], coo[d],
                                    client_ip=study.porn_log().client_ip,
                                    labels_partial=lp)
                 for d, lp in zip(domains, labels_parts)]
        merged = mapmerge.merge_https(parts,
                                      popularity=study.crawled_popularity())
        for got in (merged, study.https_report()):
            assert got == ref
            assert list(got.not_fully_https_sites) == \
                list(ref.not_fully_https_sites)

    def test_banners(self, study, split):
        domains, vis, _req, _coo, _js = split
        ref = analyze_banners(study.porn_log(),
                              corpus_size=len(study.corpus_domains()))
        merged = mapmerge.merge_banners(
            [mapmerge.map_banners(vis[d]) for d in domains],
            corpus_size=len(study.corpus_domains()))
        for got in (merged, study.banners()):
            assert got.observations == ref.observations
            assert got.sites_checked == ref.sites_checked

    def test_sync(self, study, split):
        domains, _vis, req, coo, _js = split
        ref = detect_cookie_sync(study.porn_log())
        merged = mapmerge.merge_sync(
            [mapmerge.map_sync(coo[d], req[d]) for d in domains])
        for got in (merged, study.cookie_sync()):
            assert got.events == ref.events
            assert list(got.pair_counts) == list(ref.pair_counts)
            assert got.pair_counts == ref.pair_counts
            assert list(got.sites) == list(ref.sites)

    def test_fingerprinting(self, study, split):
        domains, _vis, _req, _coo, js = split
        blocklisted = study.ats_classifier().matches_url
        ref = analyze_fingerprinting(study.porn_log().js_calls,
                                     url_blocklisted=blocklisted)
        merged = mapmerge.merge_fingerprinting(
            [mapmerge.map_jsapi(js[d]) for d in domains],
            url_blocklisted=blocklisted)
        for got in (merged, study.fingerprinting()):
            assert got == ref
            assert [s.script_url for s in got.scripts] == \
                [s.script_url for s in ref.scripts]

    def test_malware(self, study, split, ref_labels):
        domains, vis, _req, _coo, js = split

        def scanner(domain):
            return study.universe.scanner_hits(domain, "ES")

        ref = analyze_malware(study.porn_log(), ref_labels, scanner)
        merged = mapmerge.merge_malware(
            [mapmerge.map_visits(vis[d]) for d in domains],
            [mapmerge.map_jsapi(js[d]) for d in domains],
            labels=ref_labels, scanner=scanner,
        )
        for got in (merged, study.malware()):
            assert got == ref
            assert list(got.sites_with_malicious_third_parties) == \
                list(ref.sites_with_malicious_third_parties)
            assert list(got.miner_services) == list(ref.miner_services)


class TestAggregateCache:
    def test_cold_run_renders_identical_bytes(self, universe, epoch0_store,
                                              reference_sections, inc_dir):
        cache = AggregateStore(str(inc_dir / "cold.sqlite"))
        study = _incremental_study(universe, epoch0_store, cache)
        assert _render_all(study, universe.config.scale) == \
            reference_sections
        assert cache.stats.misses > 0          # nothing was cached yet
        assert cache.row_count() > 0

    def test_warm_run_is_all_hits(self, universe, epoch0_store,
                                  reference_sections):
        warm = _incremental_study(universe, epoch0_store)
        first = warm.aggregate_cache.stats
        _render_all(warm, universe.config.scale)
        if first.misses:                       # first module use: warm it
            again = _incremental_study(universe, epoch0_store)
            _render_all(again, universe.config.scale)
            stats = again.aggregate_cache.stats
        else:
            stats = first
        assert stats.misses == 0
        assert stats.hits > 0

    def test_warm_tables_identical(self, universe, epoch0_store,
                                   reference_sections):
        study = _incremental_study(universe, epoch0_store)
        assert _render_all(study, universe.config.scale) == \
            reference_sections

    def test_epoch_churn_misses_only_changed_sites(self, universe, evolved,
                                                   epoch0_store,
                                                   epoch1_store):
        # Warm the cache from epoch 0 through the shared cache file.
        cache_path = aggregates_path(epoch1_store)
        assert cache_path == aggregates_path(epoch0_store)
        warm = _incremental_study(universe, epoch0_store)
        _render_all(warm, universe.config.scale)

        e1 = _rebuild(evolved)
        study = Study(e1, store=epoch1_store, store_only=True,
                      aggregate_cache=cache_path)
        missed = set()
        cache = study.aggregate_cache
        original_get_many = cache.get_many

        def recording_get_many(key, version, wanted):
            found = original_get_many(key, version, wanted)
            missed.update(set(wanted) - set(found))
            return found

        cache.get_many = recording_get_many
        sections = _render_all(study, evolved.config.scale)

        reference = Study(_rebuild(evolved), store=epoch1_store,
                          store_only=True)
        assert sections == _render_all(reference, evolved.config.scale)

        h0 = analysis_hash_index(_rebuild(universe))
        h1 = analysis_hash_index(_rebuild(evolved))
        # Restrict to sites with a spec in at least one epoch: sanitize
        # also caches spec-less keyword candidates under the "absent"
        # sentinel, which the hash indexes cannot compare.
        specced = {d for d in missed
                   if h0.hash_of(d) is not None
                   or h1.hash_of(d) is not None}
        assert missed, "an evolved epoch should churn some sites"
        # Every specced missed site must have actually changed content —
        # spliced (hash-stable) sites are cache hits by construction.
        stale = {d for d in specced if h0.hash_of(d) == h1.hash_of(d)}
        assert not stale, f"spliced sites must be cache hits: {stale}"
        # And the vast majority of lookups were hits.
        stats = cache.stats
        assert stats.misses < stats.lookups / 2

    def test_version_bump_forces_full_recompute(self, universe,
                                                epoch0_store,
                                                reference_sections):
        warm = _incremental_study(universe, epoch0_store)
        _render_all(warm, universe.config.scale)

        mapmerge.ANALYSIS_VERSIONS["labels"] += 1
        try:
            study = _incremental_study(universe, epoch0_store)
            sections = _render_all(study, universe.config.scale)
            assert sections == reference_sections
            stats = study.aggregate_cache.stats
            assert stats.misses > 0            # labels partials orphaned
        finally:
            mapmerge.ANALYSIS_VERSIONS["labels"] -= 1

    def test_corrupt_row_degrades_to_recompute(self, universe, epoch0_store,
                                               reference_sections):
        warm = _incremental_study(universe, epoch0_store)
        _render_all(warm, universe.config.scale)

        cache_path = aggregates_path(epoch0_store)
        with sqlite3.connect(cache_path) as conn:
            count = conn.execute(
                "UPDATE analysis_aggregates SET payload=X'00DEAD' WHERE "
                "rowid IN (SELECT rowid FROM analysis_aggregates LIMIT 7)"
            ).rowcount
        assert count == 7

        study = _incremental_study(universe, epoch0_store)
        sections = _render_all(study, universe.config.scale)
        assert sections == reference_sections  # never a wrong table
        stats = study.aggregate_cache.stats
        assert stats.corrupt > 0
        assert stats.misses >= stats.corrupt

    def test_aggregates_path_layouts(self, tmp_path):
        # v1 single-file store: a sibling file.
        assert aggregates_path(str(tmp_path / "s.db")) == \
            str(tmp_path / "s.db.aggregates")
        # epoch siblings share the base store's cache.
        assert aggregates_path(str(tmp_path / "s.db-e3")) == \
            str(tmp_path / "s.db.aggregates")
        # sharded (directory) store: inside the directory.
        shard_dir = tmp_path / "sharded"
        shard_dir.mkdir()
        assert aggregates_path(str(shard_dir)) == \
            str(shard_dir / "aggregates.sqlite")

    def test_engine_rejects_unknown_analysis(self, universe, vantage_points,
                                             study):
        engine = IncrementalRunAnalyzer(
            _rebuild(universe), None,
            vantage=vantage_points.point("ES"), kind="openwpm:regular",
            domains=universe.reference_regular_corpus(), keep_html=False,
            classifier=study.ats_classifier(),
            cert_lookup=universe.certificate_for,
        )
        with pytest.raises(ValueError):
            engine.partials(("nonsense",), LogRows(study.regular_log()))
        with pytest.raises(ValueError):  # a porn-only analysis
            engine.partials(("banners",), LogRows(study.regular_log()))


class TestSatellites:
    def test_analysis_timings_under_prefetch(self, universe):
        study = Study(_rebuild(universe), parallelism=2)
        study.run_all()
        assert "table2" in study.analysis_timings
        assert "cookie_stats" in study.analysis_timings
        # Real wall time, not a near-zero memo read: at least one
        # analysis did measurable work inside the pool.
        assert max(study.analysis_timings.values()) > 0.001

    def test_analysis_timings_serial(self, universe):
        study = Study(_rebuild(universe), parallelism=1)
        study.table2()                 # outside run_all: not timed
        study.run_all()
        assert set(study.analysis_timings) >= {"table2", "https",
                                               "cookie_stats"}

    def test_store_io_stats_counters(self, universe, epoch0_store):
        store = CrawlStore(epoch0_store)
        assert store.io_stats["scans"] == 0
        study = Study(_rebuild(universe), store=store, store_only=True)
        study.table2()
        assert store.io_stats["scans"] > 0
        assert store.io_stats["opens"] > 0

    def test_cli_trend_stats_and_incremental(self, epoch0_store,
                                             epoch1_store, capsys):
        code = main(["trend", epoch0_store, epoch1_store,
                     "--incremental", "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== trend: tracker prevalence ==" in out
        assert "connection opens" in out
        assert "event scans" in out
        assert "aggregate cache:" in out

    def test_cli_report_incremental_matches_plain(self, epoch0_store,
                                                  capsys):
        assert main(["report", "--store", epoch0_store]) == 0
        plain = capsys.readouterr().out
        assert main(["report", "--store", epoch0_store,
                     "--incremental"]) == 0
        incremental = capsys.readouterr().out
        assert incremental == plain

    def test_cli_store_info_verbose_prints_cache(self, epoch0_store,
                                                 capsys):
        # The CLI tests above populated the cache next to the store.
        assert os.path.exists(aggregates_path(epoch0_store))
        assert main(["store", "info", epoch0_store, "-v"]) == 0
        out = capsys.readouterr().out
        assert "aggregate cache:" in out
        assert "partials" in out
        assert "last study:" in out


# -- the Selenium inspection pass and sanitize verdicts through the cache


INSPECT_SCALE = 0.03
INSPECT_CHURN = 0.05


def _epoch_universe(epoch):
    return build_universe(UniverseConfig(seed=20191021, scale=INSPECT_SCALE,
                                         epoch=epoch, churn=INSPECT_CHURN),
                          lazy=True)


@pytest.fixture(scope="module")
def inspect_epochs():
    """Per epoch 0-2: (universe, corpus, fresh uncached inspection pass)."""
    vantage = VantagePointManager().point("ES")
    epochs = []
    for epoch in (0, 1, 2):
        universe = _epoch_universe(epoch)
        domains = Study(universe).corpus_domains()
        crawler = SeleniumCrawler(universe, vantage)
        epochs.append((universe, domains,
                       [crawler.inspect(domain) for domain in domains]))
    return vantage, epochs


def _recording_inspect(monkeypatch):
    """Record which domains the Selenium crawler actually inspects."""
    inspected = []
    original = SeleniumCrawler.inspect

    def inspect(self, domain):
        inspected.append(domain)
        return original(self, domain)

    monkeypatch.setattr(SeleniumCrawler, "inspect", inspect)
    return inspected


def _warm_inspections(tmp_path, inspect_epochs):
    vantage, epochs = inspect_epochs
    cache = AggregateStore(str(tmp_path / "inspect.sqlite"))
    _, domains, reference = epochs[0]
    assert cached_inspections(_epoch_universe(0), domains, vantage,
                              cache) == reference
    return cache


class TestCachedInspections:
    def test_epochs_equal_fresh_pass_site_by_site(self, tmp_path,
                                                  inspect_epochs,
                                                  monkeypatch):
        vantage, epochs = inspect_epochs
        cache = _warm_inspections(tmp_path, inspect_epochs)
        inspected = _recording_inspect(monkeypatch)
        for epoch in (1, 2):
            _, domains, reference = epochs[epoch]
            got = cached_inspections(_epoch_universe(epoch), domains,
                                     vantage, cache)
            assert [i.domain for i in got] == domains
            for cached, fresh in zip(got, reference):
                assert cached == fresh
                assert cached.policy.text == fresh.policy.text
        assert any(i.policy.text for i in epochs[2][2])
        assert 0 < len(inspected) < len(epochs[1][1])

    def test_churned_sites_reinspected_unchanged_hit(self, tmp_path,
                                                     inspect_epochs,
                                                     monkeypatch):
        vantage, epochs = inspect_epochs
        cache = _warm_inspections(tmp_path, inspect_epochs)
        before = _epoch_universe(0)
        after = _epoch_universe(1)
        _, domains, reference = epochs[1]
        old, new = analysis_hash_index(before), analysis_hash_index(after)
        churned = [d for d in domains
                   if _inspection_hash(before, old, d)
                   != _inspection_hash(after, new, d)]
        assert churned, "an evolved epoch should churn some corpus sites"

        inspected = _recording_inspect(monkeypatch)
        hits = cache.stats.hits
        assert cached_inspections(after, domains, vantage, cache) == \
            reference
        assert inspected == churned
        assert cache.stats.hits - hits == len(domains) - len(churned)

    def test_changed_policy_plan_invalidates_entry(self, tmp_path,
                                                   inspect_epochs,
                                                   monkeypatch):
        vantage, epochs = inspect_epochs
        cache = _warm_inspections(tmp_path, inspect_epochs)
        _, domains, reference = epochs[0]
        target = next(i for i in reference if i.policy.fetched_ok)

        universe = _epoch_universe(0)
        plans = universe._policy_texts._plans
        policy_row, company, third_parties = marshal.loads(
            plans[target.domain])
        plans[target.domain] = marshal.dumps(
            (policy_row, company + " Renamed Holdings", third_parties))

        inspected = _recording_inspect(monkeypatch)
        got = cached_inspections(universe, domains, vantage, cache)
        assert inspected == [target.domain]
        changed = got[domains.index(target.domain)]
        assert changed.policy.text != target.policy.text
        assert changed == SeleniumCrawler(universe, vantage).inspect(
            target.domain)

    def test_corrupt_rows_reinspect_never_wrong(self, tmp_path,
                                                inspect_epochs, monkeypatch):
        vantage, epochs = inspect_epochs
        cache = _warm_inspections(tmp_path, inspect_epochs)
        _, domains, reference = epochs[0]
        torn, pickled, misshapen = domains[:3]
        payloads = {
            torn: b"\x00DEAD",
            # An older cache's pickle payload: never loaded.
            pickled: b"P" + pickle.dumps(reference[1].to_row()),
            # Decodes, but is not an inspection row.
            misshapen: b"M" + marshal.dumps((1, 2, 3)),
        }
        with sqlite3.connect(cache.path) as conn:
            for domain, payload in payloads.items():
                updated = conn.execute(
                    "UPDATE analysis_aggregates SET payload=? WHERE"
                    " analysis_key LIKE 'inspect:%' AND site_domain=?",
                    (payload, domain)).rowcount
                assert updated == 1

        inspected = _recording_inspect(monkeypatch)
        fresh = AggregateStore(cache.path)
        assert cached_inspections(_epoch_universe(0), domains, vantage,
                                  fresh) == reference
        assert inspected == [torn, pickled, misshapen]
        assert fresh.stats.corrupt == 3

    def test_no_cache_inspects_every_site(self, inspect_epochs,
                                          monkeypatch):
        vantage, epochs = inspect_epochs
        _, domains, reference = epochs[0]
        inspected = _recording_inspect(monkeypatch)
        assert cached_inspections(_epoch_universe(0), domains, vantage,
                                  None) == reference
        assert inspected == domains

    def test_cached_sanitize_matches_uncached(self, tmp_path,
                                              monkeypatch):
        from repro.browser.browser import Browser

        vantage = VantagePointManager().point("ES")
        cache = AggregateStore(str(tmp_path / "sanitize.sqlite"))
        for epoch in (0, 1):
            universe = _epoch_universe(epoch)
            candidates = compile_candidates(universe).domains
            expected = sanitize_candidates(universe, candidates, vantage)
            assert cached_sanitize(universe, candidates, vantage,
                                   cache) == expected
        # Fully warm: every verdict is served, no candidate is visited.
        visits = []
        original = Browser.visit
        monkeypatch.setattr(Browser, "visit", lambda self, *a, **k: (
            visits.append(a), original(self, *a, **k))[1])
        misses = cache.stats.misses
        assert cached_sanitize(universe, candidates, vantage,
                               cache) == expected
        assert visits == []
        assert cache.stats.misses == misses


class TestInspectionArtifact:
    def test_payload_round_trips(self, inspect_epochs):
        _, epochs = inspect_epochs
        reference = epochs[0][2]
        payload = inspections_to_payload(reference)
        assert payload[:1] == b"I"
        assert inspections_from_payload(payload) == reference

    def test_foreign_payloads_read_as_absent(self, inspect_epochs):
        _, epochs = inspect_epochs
        reference = epochs[0][2]
        for payload in (None, b"", pickle.dumps(reference, protocol=4),
                        b"I" + marshal.dumps([(1, 2)]), b"I\x00garbage"):
            assert inspections_from_payload(payload) is None

    def test_pickled_artifact_is_recomputed_or_missing(self, tmp_path,
                                                       inspect_epochs):
        from repro.datastore import MissingRunError, run_key

        _, epochs = inspect_epochs
        universe, _, reference = epochs[0]
        path = str(tmp_path / "store")
        study = Study(_epoch_universe(0), store=path)
        key = run_key(universe.config,
                      study.vantage_points.point(study.home_country),
                      "selenium:inspections")
        study.store.put_artifact(key, pickle.dumps(reference, protocol=4))

        reader = Study(_epoch_universe(0), store=path, store_only=True)
        with pytest.raises(MissingRunError):
            reader.inspections()
        reader.close()

        assert study.inspections() == reference
        assert inspections_from_payload(study.store.get_artifact(key)) == \
            reference
        study.close()
