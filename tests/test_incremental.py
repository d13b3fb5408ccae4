"""Incremental map/merge analysis: partials at rest, and the cache.

Pins the contracts the at-rest partials rest on (the merged results
themselves are pinned by ``tests/golden/analyses.json``, see
``test_golden.py``):

* a store whose partials are gone renders the same bytes as an
  in-memory study, mapping every partial from the stored rows;
* a store as crawled maps nothing: every partial is read at rest, and
  renders identical bytes;
* across an evolved epoch the delta crawl splices each unchanged site's
  partials with its rows, byte for byte, and the epoch renders without
  mapping anything;
* bumping an ``ANALYSIS_VERSIONS`` entry makes that analysis's stored
  partials stale (mapped again, same bytes, nothing written back);
* a corrupted partial degrades to a recompute — never a wrong table;
* a partial mapped from a live log, one mapped from stored rows and one
  written at crawl time encode to identical bytes;
* ``repro report``'s planned read scans a run's partials once per
  shard, and without them each site's rows once per table;
* satellites: store open/scan counters, CLI ``trend --stats`` and
  ``store info -v`` surfaces, and the sanitize and inspection caches.
"""

import marshal
import os
import pickle
import shutil
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
from repro.datastore.incremental import (
    PORN_ANALYSES,
    REGULAR_ANALYSES,
    _inspection_hash,
    _run_tables,
    run_analyses,
)
from repro.datastore.serialize import (
    inspections_from_payload,
    inspections_to_payload,
    pack_value,
)
from repro.reporting.sections import (
    render_section,
    report_sections,
    sections_reading,
)
from repro.webgen.builder import build_universe
from repro.webgen.evolve import analysis_hash_index, evolve_universe

#: The sections renderable from the home porn and regular runs alone.
SECTIONS = sections_reading(("home", "regular"))


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
    study.inspections()
    return path


@pytest.fixture(scope="module")
def reference_sections(universe, study):
    """The in-memory study's render: the byte-identity baseline."""
    return _render_all(study, universe.config.scale)


def _rebuild(universe):
    """A fresh universe equal to ``universe`` (no shared memo state)."""
    return build_universe(universe.config)


def _copy(path, target, edit=None):
    """A copy of the store at ``path``, with ``edit`` run on each shard."""
    shutil.copytree(path, target)
    if edit is not None:
        with CrawlStore(str(target)) as store:
            shards = store.shard_count
        for index in range(shards):
            connection = sqlite3.connect(
                os.path.join(target, f"shard-{index:04d}.sqlite"))
            with connection:
                edit(connection)
            connection.close()
    return str(target)


@pytest.fixture(scope="module")
def cold_store(inc_dir, epoch0_store):
    """The epoch-0 store without its partials."""
    return _copy(epoch0_store, inc_dir / "cold",
                 lambda connection: connection.execute(
                     "DELETE FROM partials"))


def _store_study(universe, path):
    return Study(_rebuild(universe), store=path, store_only=True)


def _render_all(study, scale):
    return {name: render_section(study, scale, name) for name in SECTIONS}


def _partial_payloads(path, kind, country):
    """Position -> analysis -> payload of one run's stored partials."""
    with CrawlStore(path) as store:
        manifest = next(m for m in store.run_manifests()
                        if m.kind == kind and m.country_code == country)
        rows = store.partial_rows(manifest.run_id)
    payloads = {}
    for position, analysis, _version, payload in rows:
        payloads.setdefault(position, {})[analysis] = payload
    return payloads


class TestAggregateCache:
    """Partials at rest hold what the content-hash aggregate cache used
    to: every store study reads them, and whatever is missing, stale or
    unreadable is mapped again from the stored rows."""

    def test_cold_run_renders_identical_bytes(self, universe, cold_store,
                                              reference_sections):
        study = _store_study(universe, cold_store)
        assert _render_all(study, universe.config.scale) == \
            reference_sections
        stats = study.partial_counts()
        assert stats["read"] == 0 and stats["mapped"] > 0
        study.close()

    def test_warm_run_is_all_hits(self, universe, epoch0_store):
        study = _store_study(universe, epoch0_store)
        _render_all(study, universe.config.scale)
        stats = study.partial_counts()
        assert stats["mapped"] == 0 and stats["read"] > 0
        assert study.store.io_stats["scans"] == 0
        study.close()

    def test_warm_tables_identical(self, universe, epoch0_store,
                                   reference_sections):
        study = _store_study(universe, epoch0_store)
        assert _render_all(study, universe.config.scale) == \
            reference_sections
        study.close()

    def test_epoch_churn_misses_only_changed_sites(self, universe, evolved,
                                                   epoch0_store,
                                                   epoch1_store):
        """Each unchanged site's partials are the baseline's bytes; the
        epoch renders what an in-memory study of it renders, reading
        every partial at rest."""
        changed = evolved.changed_domains_since(universe.config)
        assert changed, "an evolved epoch should churn some sites"
        for kind, domains in (
                (Study._PORN_KIND, Study(evolved).corpus_domains()),
                (Study._REGULAR_KIND, evolved.reference_regular_corpus())):
            before = _partial_payloads(epoch0_store, kind, "ES")
            after = _partial_payloads(epoch1_store, kind, "ES")
            assert sorted(after) == list(range(len(domains)))
            differ = {domains[position] for position in after
                      if after[position] != before[position]}
            assert differ <= changed, differ - changed

        study = _store_study(evolved, epoch1_store)
        sections = _render_all(study, evolved.config.scale)
        stats = study.partial_counts()
        assert stats["mapped"] == 0 and stats["read"] > 0
        study.close()
        assert sections == _render_all(Study(_rebuild(evolved)),
                                       evolved.config.scale)

    def test_version_bump_forces_full_recompute(self, universe,
                                                epoch0_store,
                                                reference_sections):
        with CrawlStore(epoch0_store) as store:
            before = store.partial_stats()
        mapmerge.ANALYSIS_VERSIONS["labels"] += 1
        try:
            study = _store_study(universe, epoch0_store)
            sections = _render_all(study, universe.config.scale)
            stats = study.partial_counts()
            study.close()
        finally:
            mapmerge.ANALYSIS_VERSIONS["labels"] -= 1
        assert sections == reference_sections
        # Every site of the two runs' labels, and nothing else.
        sites = len(Study(universe).corpus_domains()) \
            + len(universe.reference_regular_corpus())
        assert stats["mapped"] == sites
        with CrawlStore(epoch0_store) as store:
            assert store.partial_stats() == before  # nothing written back

    def test_corrupt_row_degrades_to_recompute(self, universe, epoch0_store,
                                               inc_dir, reference_sections):
        def corrupt(connection):
            (run_id,) = connection.execute(
                "SELECT id FROM runs WHERE kind=? AND country_code='ES'",
                (Study._PORN_KIND,)).fetchone()
            connection.execute(
                "UPDATE partials SET payload=X'00DEAD' WHERE run_id=?"
                " AND position < 7 AND analysis='cookies'", (run_id,))

        path = _copy(epoch0_store, inc_dir / "corrupt", corrupt)
        study = _store_study(universe, path)
        sections = _render_all(study, universe.config.scale)
        stats = study.partial_counts()
        study.close()
        assert sections == reference_sections  # never a wrong table
        assert stats["mapped"] == 7

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

    def test_engine_rejects_unknown_analysis(self, universe, study):
        engine = IncrementalRunAnalyzer(
            study._mapper(), kind="openwpm:regular",
            domains=universe.reference_regular_corpus(),
        )
        with pytest.raises(ValueError):
            engine.partials(("nonsense",), LogRows(study.regular_log()))
        with pytest.raises(ValueError):  # a porn-only analysis
            engine.partials(("banners",), LogRows(study.regular_log()))


class TestCanonicalBytes:
    @pytest.mark.parametrize("kind,names", [
        (Study._PORN_KIND, PORN_ANALYSES),
        (Study._REGULAR_KIND, REGULAR_ANALYSES),
    ])
    def test_log_and_stored_partials_encode_alike(self, universe, study,
                                                  epoch0_store, cold_store,
                                                  kind, names):
        """Mapped from the live log, mapped from the stored rows, and
        as written at crawl time: the same bytes, site by site."""
        mapped = {}
        mapped["log"] = IncrementalRunAnalyzer(
            study._mapper(), kind=kind, domains=study._run_domains(kind),
        ).partials(names, study._run_rows("ES", kind))
        reader = _store_study(universe, cold_store)
        mapped["rows"] = reader._partials("ES", kind, names)
        assert reader.partial_counts()["read"] == 0
        reader.close()
        log, rows = ({name: [pack_value(partial) for partial in partials]
                      for name, partials in mapped[route].items()}
                     for route in ("log", "rows"))
        assert log == rows
        at_rest = _partial_payloads(epoch0_store, kind, "ES")
        for name in names:
            assert [at_rest[position][name]
                    for position in range(len(at_rest))] == log[name], name


class TestSectionTable:
    """What a crawl maps and stores (and so the store's bytes) and what
    a render reads both follow from the report's section table."""

    @pytest.mark.parametrize("country,kind,names", [
        ("ES", "openwpm:porn", ("labels", "ats", "cookies", "https",
                                "banners", "sync", "jsapi", "visits",
                                "owners")),
        ("ES", "openwpm:regular", ("labels", "ats", "visits")),
        ("US", "openwpm:porn", ("labels", "ats", "banners", "visits")),
        ("RU", "openwpm:porn", ("labels", "ats", "visits")),
        ("ES", "selenium:inspections", ()),
    ])
    def test_what_a_crawl_stores(self, country, kind, names):
        assert run_analyses(country, kind) == names

    def test_home_run_sections(self):
        assert SECTIONS == ("corpus", "table2", "table3", "figure3",
                            "table4", "figure4", "table5", "table6",
                            "malware")

    def test_run_plan_reads_what_the_sections_read(self, universe):
        study = Study(universe, parallelism=1)
        porn, regular = study._PORN_KIND, study._REGULAR_KIND
        home = [("ES", porn, PORN_ANALYSES), ("ES", regular, REGULAR_ANALYSES)]
        assert study._run_plan() == home + [("US", porn, ("banners",))]
        assert study._run_plan(geo=True) == home + [
            (country, porn, ("labels", "ats", "banners", "visits")
             if country == "US" else ("labels", "ats", "visits"))
            for country in study.vantage_points.country_codes
            if country != "ES"]


def planned_scans(study):
    """One range scan per (run, site, planned table) of the study's
    plan, where the site's slice holds rows of that table."""
    from repro.datastore.store import _slice_index

    total = 0
    for country, kind, names in study._run_plan():
        tables = _run_tables(kind, names)
        run = study._crawl(country, kind).run
        for slice_ in _slice_index(study.store, run).values():
            total += sum(1 for table, (_lo, _hi, count)
                         in slice_.bounds().items()
                         if table in tables and count)
    return total


class TestPlannedPass:
    def test_one_scan_per_site_and_table_then_none(self, universe,
                                                   cold_store):
        """Without partials at rest the planned read scans each (run,
        site, planned table) exactly once, and the sections rendered
        afterwards scan nothing: the plan covers them all."""
        store = CrawlStore(cold_store)
        study = Study(_rebuild(universe), store=store, store_only=True,
                      parallelism=1)
        try:
            study.prefetch_partials()
            scans = planned_scans(study)
            assert store.io_stats["scans"] == scans
            report_sections(study, universe.config.scale)
            assert store.io_stats["scans"] == scans
        finally:
            store.close()

    def test_scans_skip_empty_tables_and_regular_js_calls(
            self, universe, cold_store, monkeypatch):
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
        study = Study(_rebuild(universe), store=cold_store,
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
        """A planned read's MissingRunError ends the command: ``repro
        report --geo`` on a store without the geo runs exits 1 with the
        re-run hint, at any parallelism."""
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
        """A live study has no read to plan; a store study whose
        partials are at rest — with an aggregate cache or without —
        scans their rows and no event row."""
        live = Study(universe, parallelism=1)
        live.prefetch_partials()
        assert not any(key.startswith("engine:") for key in live._cache)
        path = _copy(epoch0_store, tmp_path / "store")
        cached = Study(_rebuild(universe), store=path, store_only=True,
                       aggregate_cache=True)
        try:
            cached.prefetch_partials()
            assert cached.store.io_stats["scans"] == 0
            runs = cached._run_plan()
            assert cached.store.io_stats["partial_scans"] == \
                len(runs) * cached.store.shard_count
        finally:
            cached.close()


class TestSatellites:
    def test_store_io_stats_counters(self, universe, cold_store):
        store = CrawlStore(cold_store)
        assert store.io_stats["scans"] == 0
        study = Study(_rebuild(universe), store=store, store_only=True)
        study.table2()
        assert store.io_stats["scans"] > 0
        assert store.io_stats["opens"] > 0

    def test_cli_trend_stats(self, epoch0_store, epoch1_store, capsys):
        code = main(["trend", epoch0_store, epoch1_store, "--stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "== trend: tracker prevalence ==" in out
        assert "connection opens" in out
        assert "partial scans, 0 event scans" in out

    def test_cli_store_info_verbose_prints_cache(self, epoch0_store,
                                                 tmp_path, capsys):
        path = _copy(epoch0_store, tmp_path / "store")
        with AggregateStore(aggregates_path(path)) as cache:
            cache.persist_stats()
        assert main(["store", "info", path, "-v"]) == 0
        out = capsys.readouterr().out
        with CrawlStore(path) as store:
            stats = store.partial_stats()
        assert set(stats) == set(PORN_ANALYSES)
        assert f"partials: {sum(n for n, _ in stats.values())} rows" in out
        rows, size = stats["labels"]
        assert f"    labels: {rows} rows, {size} bytes" in out
        assert "aggregate cache:" in out
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
