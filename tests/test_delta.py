"""Epoch evolution and incremental delta crawls.

Pins the contracts the longitudinal pipeline rests on:

* :func:`evolve_universe` is a pure function of ``(seed, epoch)`` —
  evolving twice yields identical content hashes — and
  ``build_universe(epoch=N)`` reaches the same universe by chaining
  evolution steps, so the lineage fast path works cross-process;
* the recorded lineage is *conservative*: every site it omits provably
  hashes identically across the epochs (a splice is never wrong);
* a delta crawl against the previous epoch's store is byte-identical to
  a full crawl of the evolved universe — hydrated and streaming alike —
  and its manifest records the spliced/crawled/divergence stats;
* when preconditions fail (no baseline config, same epoch) the delta
  layer degrades to a normal crawl without writing anything first;
* ``jar_sensitive`` universes stop splicing at the first divergence but
  stay byte-identical;
* service-layer plumbing: ``JobSpec`` epoch/delta validation and the
  ``-eN`` sibling-store naming;
* ``repro trend`` renders the longitudinal sections from per-epoch
  stores.
"""

import pytest

from repro import Study
from repro.__main__ import main
from repro.crawler import OpenWPMCrawler
from repro.datastore import CrawlStore, stored_crawl
from repro.reporting import trend_report
from repro.service.jobs import JobSpec, epoch_store_path
from repro.webgen.builder import build_universe
from repro.webgen.evolve import ContentHashIndex, evolve_universe


@pytest.fixture(scope="module")
def evolved(universe):
    return evolve_universe(universe)


@pytest.fixture(scope="module")
def stores_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("epochs")


@pytest.fixture(scope="module")
def epoch0_store(stores_dir, universe):
    """Epoch 0 crawled through a Study, so store-only reopens line up."""
    path = str(stores_dir / "e0.db")
    study = Study(universe, store=path)
    study.porn_log()
    study.regular_log()
    return path


@pytest.fixture(scope="module")
def epoch1_store(stores_dir, evolved, epoch0_store):
    """Epoch 1 delta-crawled against epoch 0 via ``baseline_store``."""
    path = str(stores_dir / "e1.db")
    study = Study(evolved, store=path, baseline_store=epoch0_store)
    study.porn_log()
    study.regular_log()
    return path


def _all_domains(universe):
    return list(universe.porn_sites) + list(universe.regular_sites)


class TestEvolution:
    def test_evolve_is_deterministic(self, universe, evolved):
        again = evolve_universe(universe)
        assert again.content_changed_since == evolved.content_changed_since
        index_a = ContentHashIndex(evolved)
        index_b = ContentHashIndex(again)
        for domain in _all_domains(universe):
            assert index_a.hash_of(domain) == index_b.hash_of(domain)

    def test_corpus_is_invariant(self, universe, evolved):
        assert evolved.config.epoch == universe.config.epoch + 1
        assert set(evolved.porn_sites) == set(universe.porn_sites)
        assert set(evolved.regular_sites) == set(universe.regular_sites)

    def test_builder_epoch_chains_evolution(self, universe, evolved):
        import dataclasses

        built = build_universe(
            dataclasses.replace(universe.config, epoch=1))
        assert built.changed_domains_since(0) == \
            evolved.changed_domains_since(0)
        built_index = ContentHashIndex(built)
        evolved_index = ContentHashIndex(evolved)
        for domain in _all_domains(universe):
            assert built_index.hash_of(domain) == \
                evolved_index.hash_of(domain)

    def test_lineage_is_conservative(self, universe, evolved):
        """Every site the lineage omits must hash identically — the
        direction splice correctness depends on.  (The converse may not
        hold: a listed site whose rotation was a no-op is allowed.)"""
        changed = evolved.changed_domains_since(0)
        assert changed  # some churn happened
        domains = _all_domains(universe)
        assert len(changed) < len(domains)  # and most sites did not change
        base_index = ContentHashIndex(universe)
        next_index = ContentHashIndex(evolved)
        for domain in domains:
            if domain not in changed:
                assert base_index.hash_of(domain) == \
                    next_index.hash_of(domain), domain
        assert evolved.changed_domains_since(99) is None  # unknown base


class TestDeltaCrawl:
    def test_delta_matches_full_crawl(self, epoch1_store, evolved,
                                      vantage_points, universe):
        """The delta-crawled porn run is byte-identical to an in-memory
        full crawl of the evolved universe, and some sites spliced."""
        full = OpenWPMCrawler(
            evolved, vantage_points.point("ES"), keep_html=True,
        ).crawl(Study(evolved).corpus_domains())
        with CrawlStore(epoch1_store) as store:
            manifest = next(m for m in store.run_manifests()
                            if m.kind == "openwpm:porn")
            spliced_log = store.load_log(manifest.run_id)
            delta = manifest.stats["delta"]
        assert spliced_log == full
        assert spliced_log._seq == full._seq
        assert delta["spliced"] > 0 and delta["crawled"] > 0
        assert delta["spliced"] + delta["crawled"] == manifest.total_sites
        assert delta["divergence_index"] is not None

    def test_streaming_delta_matches_hydrated(self, tmp_path, evolved,
                                              epoch0_store, vantage_points,
                                              universe):
        """``hydrate=False`` splices through the trim writer; the rows
        read back through cursors equal the hydrated delta crawl."""
        domains = Study(evolved).corpus_domains()
        vantage = vantage_points.point("ES")
        with CrawlStore(epoch0_store) as baseline, \
                CrawlStore(str(tmp_path / "stream.db")) as store:
            result = stored_crawl(store, evolved, vantage, "openwpm:porn",
                                  domains, baseline=baseline,
                                  hydrate=False)
            assert result is None
            manifest = store.run_manifests()[0]
            assert manifest.stats["delta"]["spliced"] > 0
            streamed = store.load_log(manifest.run_id)
        hydrated = OpenWPMCrawler(evolved, vantage,
                                  keep_html=True).crawl(domains)
        assert streamed == hydrated
        assert streamed._seq == hydrated._seq

    def test_degrades_without_usable_baseline(self, tmp_path, universe,
                                              vantage_points,
                                              crawlable_porn):
        """An empty baseline, or one at the same epoch, means a normal
        crawl: same result, no ``delta`` stats block."""
        domains = crawlable_porn[:4]
        vantage = vantage_points.point("ES")
        reference = OpenWPMCrawler(universe, vantage).crawl(domains)
        with CrawlStore(str(tmp_path / "empty.db")) as empty, \
                CrawlStore(str(tmp_path / "a.db")) as store:
            log = stored_crawl(store, universe, vantage, "openwpm:porn",
                               domains, baseline=empty)
            assert log == reference
            assert "delta" not in store.run_manifests()[0].stats
        # Baseline at the *same* epoch: nothing to delta against.
        with CrawlStore(str(tmp_path / "a.db")) as same_epoch, \
                CrawlStore(str(tmp_path / "b.db")) as store:
            log = stored_crawl(store, universe, vantage, "openwpm:porn",
                               domains, baseline=same_epoch)
            assert log == reference
            assert "delta" not in store.run_manifests()[0].stats

    def test_jar_sensitive_stops_at_divergence(self, tmp_path, evolved,
                                               epoch0_store, vantage_points,
                                               monkeypatch, universe):
        """With ``jar_sensitive`` set, no site after the first real visit
        is spliced — and the result is still byte-identical."""
        monkeypatch.setattr(evolved, "jar_sensitive", True, raising=False)
        domains = Study(evolved).corpus_domains()
        vantage = vantage_points.point("ES")
        with CrawlStore(epoch0_store) as baseline, \
                CrawlStore(str(tmp_path / "jar.db")) as store:
            log = stored_crawl(store, evolved, vantage, "openwpm:porn",
                               domains, baseline=baseline)
            delta = store.run_manifests()[0].stats["delta"]
        assert delta["divergence_index"] is not None
        # Everything before the divergence spliced; nothing after did.
        assert delta["spliced"] == delta["divergence_index"]
        assert delta["spliced"] + delta["crawled"] == len(domains)
        full = OpenWPMCrawler(evolved, vantage,
                              keep_html=True).crawl(domains)
        assert log == full


class TestServicePlumbing:
    def test_epoch_store_path(self):
        assert epoch_store_path("/x/store.db", 0) == "/x/store.db"
        assert epoch_store_path("/x/store.db", 3) == "/x/store.db-e3"

    def test_epoch_job_routes_to_sibling_store(self, tmp_path):
        """An epoch job lands in the ``-eN`` sibling store; ``delta``
        splices from the previous epoch's sibling when it exists and
        publishes ``delta_baseline_missing`` (then runs a full crawl)
        when it does not."""
        import os

        from repro.service.jobs import JobManager, JobState

        def drain(job):
            kinds = []
            for event in job.events.subscribe(heartbeat=120):
                assert event is not None, "job stalled"
                kinds.append(event.kind)
            return kinds

        store = str(tmp_path / "svc.db")
        manager = JobManager(store, workers=1)
        manager.start()
        try:
            base = manager.submit(JobSpec(seed=3, scale=0.02,
                                          analyses=("https",)))
            drain(base)
            assert base.state == JobState.DONE

            delta = manager.submit(JobSpec(seed=3, scale=0.02, epoch=1,
                                           churn=0.05, delta=True,
                                           analyses=("https",)))
            kinds = drain(delta)
            assert delta.state == JobState.DONE
            assert "site_spliced" in kinds
            assert "delta_baseline_missing" not in kinds
            assert os.path.exists(store + "-e1")
            with CrawlStore(store + "-e1") as sibling:
                stats = [m.stats.get("delta") for m in
                         sibling.run_manifests()]
            assert any(s and s["spliced"] > 0 for s in stats)

            orphan = manager.submit(JobSpec(seed=3, scale=0.02, epoch=3,
                                            churn=0.05, delta=True,
                                            analyses=("https",)))
            kinds = drain(orphan)
            assert orphan.state == JobState.DONE  # degraded, not failed
            assert "delta_baseline_missing" in kinds
            assert "site_spliced" not in kinds
            assert os.path.exists(store + "-e3")
        finally:
            manager.stop()

    def test_jobspec_validation(self):
        spec = JobSpec(epoch=2, churn=0.2, delta=True)
        assert JobSpec.from_json(spec.to_json()) == spec
        # Old specs without the new fields still load.
        legacy = JobSpec.from_json(JobSpec().to_json())
        assert (legacy.epoch, legacy.churn, legacy.delta) == (0, 0.1, False)
        with pytest.raises(ValueError):
            JobSpec(epoch=-1)
        with pytest.raises(ValueError):
            JobSpec(delta=True)  # delta needs a prior epoch to splice from


class TestTrend:
    def test_trend_report_renders_sorted(self, universe, evolved, study):
        text = trend_report([(1, Study(evolved)), (0, study)])
        assert "== trend: tracker prevalence ==" in text
        assert "== trend: HTTPS adoption ==" in text
        assert "== trend: top 5 organizations ==" in text
        for line in text.splitlines():
            if line.startswith("epoch 0:"):
                break
        assert text.index("epoch 0:") < text.index("epoch 1:")

    def test_cli_trend(self, epoch0_store, epoch1_store, capsys):
        assert main(["trend", epoch1_store, epoch0_store]) == 0
        out = capsys.readouterr().out
        assert "== trend: tracker prevalence ==" in out
        assert "== trend: HTTPS adoption ==" in out
        # Rows come out epoch-sorted regardless of argument order.
        assert out.index("epoch 0:") < out.index("epoch 1:")

    def test_cli_trend_rejects_duplicate_epochs(self, epoch0_store, capsys):
        assert main(["trend", epoch0_store, epoch0_store]) != 0
