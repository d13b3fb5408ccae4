"""Incremental map/merge analysis: caching and invalidation.

Pins the contracts the aggregate cache rests on (the merged results
themselves are pinned by ``tests/golden/analyses.json``, see
``test_golden.py``):

* a cold cached study renders the same bytes as the uncached one;
* a second study over the same store serves every partial from the
  cache (zero misses) and still renders identical bytes;
* across an evolved epoch, exactly the sites whose analysis content
  hash changed are re-mapped — spliced sites are cache hits;
* bumping an ``ANALYSIS_VERSIONS`` entry orphans that analysis's
  cached partials (full recompute, same bytes);
* a corrupted aggregate row degrades to a recompute — never a wrong
  table;
* ``repro report``'s planned passes read each site of a run once per
  event table, and cover every section the report renders;
* satellites: per-analysis wall timings under the prefetch pool, store
  open/scan counters, CLI ``--incremental`` / ``--stats`` / ``store
  info -v`` surfaces.
"""

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
from repro.datastore import (
    AggregateStore,
    CrawlStore,
    IncrementalRunAnalyzer,
    LogRows,
    aggregates_path,
    cached_inspections,
    cached_sanitize,
)
from repro.datastore.incremental import _inspection_hash, _run_tables
from repro.datastore.serialize import (
    inspections_from_payload,
    inspections_to_payload,
)
from repro.reporting.sections import render_section, report_sections
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
        # Inside the store directory, beside the shard files — whether
        # or not the store exists yet.
        assert aggregates_path(str(tmp_path / "s")) == \
            str(tmp_path / "s" / "aggregates.sqlite")
        # Epoch siblings share the base store's cache.
        assert aggregates_path(str(tmp_path / "s-e3")) == \
            str(tmp_path / "s" / "aggregates.sqlite")
        store = tmp_path / "sharded"
        CrawlStore(str(store), shards=2).close()
        assert aggregates_path(str(store)) == \
            str(store / "aggregates.sqlite")

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


def planned_scans(study, geo=False):
    """One range scan per (run, site, planned table) of the study's
    plan, where the site's slice holds rows of that table."""
    total = 0
    for country, kind, names in study._run_plan(geo=geo):
        tables = _run_tables(kind, names)
        for slice_ in study._stored_rows(country, kind)._slices.values():
            total += sum(1 for table, (_lo, _hi, count)
                         in slice_.bounds().items()
                         if table in tables and count)
    return total


class TestPlannedPass:
    def test_one_scan_per_site_and_table_then_none(self, universe,
                                                   epoch0_store):
        """At parallelism 1 the planned passes scan each (run, site,
        planned table) exactly once, and the sections rendered
        afterwards scan nothing: the plan covers them all."""
        store = CrawlStore(epoch0_store)
        study = Study(_rebuild(universe), store=store, store_only=True,
                      parallelism=1)
        try:
            study.prefetch_partials()
            assert store.io_stats["scans"] == planned_scans(study)
            assert list(study._planned) == \
                [(country, kind) for country, kind, _ in study._run_plan()]
            report_sections(study, universe.config.scale)
            assert store.io_stats["scans"] == planned_scans(study)
        finally:
            store.close()

    def test_scans_skip_empty_tables_and_regular_js_calls(
            self, universe, epoch0_store, monkeypatch):
        """A site's table with no rows costs no scan, and the regular
        run's ``visits`` map reads no JS calls (nothing reads its
        miners); the porn run's does."""
        scanned = []
        original = CrawlStore.site_event_rows

        def spy(self, run, domain, table, lo, hi):
            assert hi > lo, (domain, table)
            scanned.append(table)
            return original(self, run, domain, table, lo, hi)

        monkeypatch.setattr(CrawlStore, "site_event_rows", spy)
        study = Study(_rebuild(universe), store=epoch0_store,
                      store_only=True, parallelism=1)
        try:
            study._partials(study.home_country, study._REGULAR_KIND,
                            ("visits",))
            assert set(scanned) == {"visits"}
            del scanned[:]
            study._partials(study.home_country, study._PORN_KIND,
                            ("visits",))
            assert set(scanned) == {"visits", "js_calls"}
        finally:
            study.close()

    def test_forked_missing_run_exits_1(self, epoch0_store, capsys,
                                        monkeypatch):
        """A worker's MissingRunError re-raises in the parent: ``repro
        report --geo`` on a store without the geo runs still exits 1
        with the re-run hint."""
        monkeypatch.setattr("repro.study.default_parallelism", lambda: 2)
        capsys.readouterr()
        assert main(["report", "--geo", "--store", epoch0_store]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: store" in captured.err
        assert "holds 0/" in captured.err
        assert "re-run with --store" in captured.err

    def test_planned_passes_skip_cached_and_live_studies(self, universe,
                                                          epoch0_store,
                                                          tmp_path):
        live = Study(universe, parallelism=1)
        live.prefetch_partials()
        assert live._planned == {}
        cached = Study(_rebuild(universe), store=epoch0_store,
                       store_only=True,
                       aggregate_cache=str(tmp_path / "aggregates.sqlite"))
        try:
            cached.prefetch_partials()
            assert cached._planned == {}
        finally:
            cached.close()


class TestSatellites:
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
                                         epoch=epoch, churn=INSPECT_CHURN))


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

    def test_library_and_cli_universes_key_inspections_alike(self):
        """``Study.build`` and the CLI build one universe, so an
        inspection cache warmed through either serves the other."""
        from repro.__main__ import _build_study, build_parser

        config = UniverseConfig(seed=20191021, scale=0.02)
        library = Study.build(config)
        cli = _build_study(build_parser().parse_args(
            ["study", "--seed", "20191021", "--scale", "0.02"])).universe
        domains = library.corpus_domains()
        library_hashes = analysis_hash_index(library.universe)
        cli_hashes = analysis_hash_index(cli)
        with_policy = 0
        for domain in domains:
            source = library.universe.policy_source(domain)
            assert source == cli.policy_source(domain), domain
            with_policy += source is not None
            assert _inspection_hash(library.universe, library_hashes,
                                    domain) == \
                _inspection_hash(cli, cli_hashes, domain), domain
        assert with_policy

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
