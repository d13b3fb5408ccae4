"""Epoch evolution and incremental delta crawls.

Pins the contracts the longitudinal pipeline rests on:

* :func:`evolve_universe` is a pure function of ``(seed, epoch)`` —
  evolving twice yields identical content hashes — and
  ``build_universe(epoch=N)`` reaches the same universe by chaining
  evolution steps, so the lineage fast path works cross-process, and
  ``build_universe(..., ancestor=)`` chains only the missing steps;
* the recorded lineage is *conservative*: every site it omits provably
  hashes identically across the epochs (a splice is never wrong), and
  it answers only for an ancestor's config;
* a delta crawl against the previous epoch's store is byte-identical to
  a full crawl of the evolved universe, and its manifest records the
  spliced/crawled/divergence stats;
* when preconditions fail (no baseline config, same epoch, a baseline
  from another ``churn`` or from a later epoch) the delta layer degrades
  to a normal crawl without writing anything first;
* the splice copies rows inside SQLite and checks each site's row
  counts: a baseline site with a deleted row or partial is visited for
  real while the rest still splice, a baseline whose per-site counts
  disagree with its rows is not spliced from at all, both land on a
  full crawl's rows and partials, and the baseline's shard files are
  never written;
* unchanged sites splice a span at a time: at most five copies per span
  and shard and one commit per group and shard, on stores of one, two
  and three shards alike; a kill between two shards' commits resumes to
  an uninterrupted delta, and two processes delta-crawl into one store
  at once;
* at low and high churn, on one shard and three, a delta-crawled epoch
  renders every section a full crawl renders, and its partial rows —
  spliced and freshly mapped alike — are a full crawl's bytes; so does
  epoch 2 delta-crawled from a delta-crawled epoch 1;
* service-layer plumbing: ``JobSpec`` epoch/delta validation and the
  ``-eN`` sibling-store naming;
* ``repro trend`` renders the longitudinal sections from per-epoch
  stores, building one universe from scratch.
"""

import dataclasses
import hashlib
import os
import signal
import sqlite3
import time
from pathlib import Path

import pytest

from repro import Study, UniverseConfig
from repro.__main__ import main
from repro.core.mapmerge import ANALYSIS_VERSIONS
from repro.crawler import OpenWPMCrawler
from repro.datastore import CrawlStore, shard_of_domain, stored_crawl
from repro.datastore.store import _slice_index
from repro.reporting import trend_report
from repro.reporting.sections import report_sections
from repro.service.jobs import JobSpec, epoch_store_path
import repro.webgen.builder as builder
from repro.webgen.builder import build_universe
from repro.webgen.evolve import analysis_hash_index, evolve_universe

from .conftest import SEED
from .reference import ContentHashIndex


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


def store_digest(path) -> str:
    """sha256 over every event row and every partial of every run
    (positions included), runs in (kind, country) order."""
    digest = hashlib.sha256()
    with CrawlStore(str(path)) as store:
        for manifest in sorted(store.run_manifests(),
                               key=lambda m: (m.kind, m.country_code)):
            digest.update(f"{manifest.kind}|{manifest.country_code}"
                          .encode())
            for table in ("visits", "requests", "cookies", "js_calls"):
                for row in store.event_rows_in_range(manifest.run_id, table,
                                                     0, 1 << 60):
                    digest.update(repr(row).encode())
            for row in store.partial_rows(manifest.run_id):
                digest.update(repr(row).encode())
    return digest.hexdigest()


def partial_rows(path):
    """(kind, country, position, analysis) -> (version, payload) of
    every stored partial."""
    rows = {}
    with CrawlStore(str(path)) as store:
        for manifest in store.run_manifests():
            for position, analysis, version, payload in \
                    store.partial_rows(manifest.run_id):
                rows[manifest.kind, manifest.country_code, position,
                     analysis] = (version, payload)
    return rows


def shard_file_digests(path):
    """sha256 of each shard file of a store, by file name."""
    return {shard.name: hashlib.sha256(shard.read_bytes()).hexdigest()
            for shard in sorted(Path(path).glob("shard-*.sqlite"))}


def _epoch(config, epoch, **changes):
    return dataclasses.replace(config, epoch=epoch, **changes)


@pytest.fixture
def scratch_builds(monkeypatch):
    """The configs of every universe built from scratch from here on."""
    builds = []
    finalize = builder._Builder.finalize

    def counting(self, **kwargs):
        builds.append(self.config)
        return finalize(self, **kwargs)

    monkeypatch.setattr(builder._Builder, "finalize", counting)
    return builds


class TestEvolution:
    def test_evolve_is_deterministic(self, universe, evolved):
        again = evolve_universe(universe)
        assert again.content_changed_since == evolved.content_changed_since
        index_a = analysis_hash_index(evolved)
        index_b = analysis_hash_index(again)
        for domain in _all_domains(universe):
            assert index_a.hash_of(domain) == index_b.hash_of(domain)

    def test_corpus_is_invariant(self, universe, evolved):
        assert evolved.config.epoch == universe.config.epoch + 1
        assert set(evolved.porn_sites) == set(universe.porn_sites)
        assert set(evolved.regular_sites) == set(universe.regular_sites)

    def test_builder_epoch_chains_evolution(self, universe, evolved):
        built = build_universe(_epoch(universe.config, 1))
        assert built.changed_domains_since(universe.config) == \
            evolved.changed_domains_since(universe.config)
        built_index = analysis_hash_index(built)
        evolved_index = analysis_hash_index(evolved)
        for domain in _all_domains(universe):
            assert built_index.hash_of(domain) == \
                evolved_index.hash_of(domain)

    def test_lineage_is_conservative(self, universe, evolved):
        """Every site the lineage omits must hash identically — the
        direction splice correctness depends on.  (The converse may not
        hold: a listed site whose rotation was a no-op is allowed.)
        The hash leaves out attribution-only fields, as the lineage
        leaves out consolidation."""
        changed = evolved.changed_domains_since(universe.config)
        assert changed  # some churn happened
        domains = _all_domains(universe)
        assert len(changed) < len(domains)  # and most sites did not change
        base_index = ContentHashIndex(universe)
        next_index = ContentHashIndex(evolved)
        for domain in domains:
            if domain not in changed:
                assert base_index.hash_of(domain) == \
                    next_index.hash_of(domain), domain

    def test_lineage_answers_only_for_an_ancestor(self, universe, evolved):
        """The lineage is keyed by the baseline's whole config: another
        seed, another ``churn`` past epoch 0, a later epoch or the
        universe itself has none.  An epoch-0 universe never reads
        ``churn``, so an epoch-0 baseline at another ``churn`` is still
        the ancestor."""
        config = universe.config
        assert evolved.changed_domains_since(_epoch(config, 0, churn=0.5)) \
            == evolved.changed_domains_since(config)
        epoch2 = evolve_universe(evolved)
        assert epoch2.changed_domains_since(evolved.config) \
            <= epoch2.changed_domains_since(config)
        for other in (_epoch(config, 0, seed=config.seed + 1),
                      _epoch(config, 1, churn=0.5),
                      _epoch(config, 3), epoch2.config):
            assert epoch2.changed_domains_since(other) is None, other
        assert universe.changed_domains_since(evolved.config) is None


class TestBuildFromAncestor:
    def test_evolves_only_the_missing_steps(self, universe, evolved,
                                            scratch_builds):
        """An earlier epoch of the chain is evolved to the target epoch,
        and serves what a build from scratch serves; an ancestor at the
        target epoch is the result itself."""
        target = _epoch(universe.config, 2)
        built = build_universe(target, ancestor=evolved)
        assert scratch_builds == []
        assert built.config == target
        assert build_universe(target, ancestor=built) is built
        scratch = build_universe(target)
        assert built.content_changed_since == scratch.content_changed_since
        built_index = analysis_hash_index(built)
        scratch_index = analysis_hash_index(scratch)
        for domain in _all_domains(universe):
            assert built_index.hash_of(domain) == \
                scratch_index.hash_of(domain)

    def test_ignores_an_ancestor_off_the_chain(self, universe, evolved,
                                               scratch_builds):
        """A later epoch, or an epoch of another ``churn``, is no
        ancestor: the universe is built from scratch."""
        assert build_universe(universe.config,
                              ancestor=evolved).config == universe.config
        other = _epoch(universe.config, 1, churn=0.5)
        assert build_universe(other, ancestor=universe).config == other
        assert scratch_builds == [universe.config,
                                  _epoch(universe.config, 0, churn=0.5)]


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
        """A delta crawl returns its run, not a log; the rows read back
        through the store equal a plain in-memory crawl."""
        domains = Study(evolved).corpus_domains()
        vantage = vantage_points.point("ES")
        with CrawlStore(epoch0_store) as baseline, \
                CrawlStore(str(tmp_path / "stream.db")) as store:
            result = stored_crawl(store, evolved, vantage, "openwpm:porn",
                                  domains, baseline=baseline)
            manifest = store.run_manifests()[0]
            assert result == manifest.run_id
            assert manifest.stats["delta"]["spliced"] > 0
            streamed = store.load_log(manifest.run_id)
        plain = OpenWPMCrawler(evolved, vantage,
                               keep_html=True).crawl(domains)
        assert streamed == plain
        assert streamed._seq == plain._seq

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
            log = store.load_log(stored_crawl(
                store, universe, vantage, "openwpm:porn", domains,
                baseline=empty))
            assert log == reference
            assert "delta" not in store.run_manifests()[0].stats
        # Baseline at the *same* epoch: nothing to delta against.
        with CrawlStore(str(tmp_path / "a.db")) as same_epoch, \
                CrawlStore(str(tmp_path / "b.db")) as store:
            log = store.load_log(stored_crawl(
                store, universe, vantage, "openwpm:porn", domains,
                baseline=same_epoch))
            assert log == reference
            assert "delta" not in store.run_manifests()[0].stats

    @pytest.fixture(scope="class")
    def subset(self, crawlable_porn):
        return crawlable_porn[:40]

    @pytest.fixture(scope="class")
    def epoch1_subset(self, tmp_path_factory, evolved, vantage_points,
                      subset):
        """The epoch-1 porn run of ``subset`` (``churn`` 0.1)."""
        path = str(tmp_path_factory.mktemp("subset") / "e1.db")
        with CrawlStore(path) as store:
            stored_crawl(store, evolved, vantage_points.point("ES"),
                         "openwpm:porn", subset)
        return path

    def _against(self, tmp_path, target, baseline, vantage, domains):
        """``domains`` crawled with ``baseline``, and without: each
        store's row digest and the first's ``delta`` stats."""
        digests = []
        delta = None
        for name, base in (("delta.db", baseline), ("full.db", None)):
            path = str(tmp_path / name)
            with CrawlStore(path) as store:
                if base is None:
                    stored_crawl(store, target, vantage, "openwpm:porn",
                                 domains)
                else:
                    with CrawlStore(base) as base_store:
                        stored_crawl(store, target, vantage, "openwpm:porn",
                                     domains, baseline=base_store)
                    delta = store.run_manifests()[0].stats.get("delta")
            digests.append(store_digest(path))
        return digests, delta

    def test_baseline_from_another_churn_is_not_spliced_from(
            self, tmp_path, universe, evolved, epoch1_subset,
            vantage_points, subset):
        """Epoch 1 at ``churn`` 0.1 is not the ancestor of epoch 2 at
        ``churn`` 0.5, though the epochs are consecutive: the target's
        lineage since its own epoch 1 says nothing about the baseline's
        sites, some of which it changed.  So the run is crawled
        normally and equals a full crawl."""
        target = build_universe(_epoch(universe.config, 2, churn=0.5))
        own_parent = target.content_changed_since[1]
        base_index = ContentHashIndex(evolved)
        target_index = ContentHashIndex(target)
        stale = [domain for domain in subset if domain not in own_parent
                 and base_index.hash_of(domain)
                 != target_index.hash_of(domain)]
        assert stale  # sites an epoch-keyed lineage would have spliced
        (delta, full), stats = self._against(
            tmp_path, target, epoch1_subset, vantage_points.point("ES"),
            subset)
        assert delta == full
        assert stats is None

    def test_baseline_from_a_later_epoch_is_not_spliced_from(
            self, tmp_path, universe, epoch1_subset, vantage_points,
            subset):
        """An epoch-0 crawl against an epoch-1 baseline has no lineage:
        a normal crawl, with no ``delta`` block in its manifest."""
        (delta, full), stats = self._against(
            tmp_path, universe, epoch1_subset, vantage_points.point("ES"),
            subset)
        assert delta == full
        assert stats is None


class TestSpliceCountCheck:
    """The splice trusts the baseline's slice index only as far as the
    row counts it copies agree with it."""

    KIND = "openwpm:porn"

    @pytest.fixture(scope="class")
    def domains(self, crawlable_porn):
        return crawlable_porn[:16]

    def _baseline(self, tmp_path, universe, vantage, domains, shards):
        path = tmp_path / f"base{shards}"
        with CrawlStore(str(path), shards=shards) as store:
            stored_crawl(store, universe, vantage, self.KIND, domains)
        return path

    def _victim(self, path, evolved, domains):
        """An unchanged site with requests whose neighbours are
        unchanged too, so it sits inside a splice group."""
        changed = evolved.changed_domains_since(_epoch(evolved.config, 0))
        with CrawlStore(str(path)) as store:
            slices = _slice_index(store, store.run_manifests()[0].run_id)
        for before, site, after in zip(domains, domains[1:], domains[2:]):
            if not {before, site, after} & changed \
                    and slices[site].requests:
                return slices[site], len(changed & set(domains))
        pytest.skip("no unchanged site inside a splice group")

    def _edit_shard(self, path, domain, statement, *params):
        with CrawlStore(str(path)) as store:
            shard = shard_of_domain(domain, store.shard_count)
        connection = sqlite3.connect(
            str(Path(path) / f"shard-{shard:04d}.sqlite"))
        with connection:
            (run_id,) = connection.execute("SELECT id FROM runs").fetchone()
            assert connection.execute(statement, (run_id,) + params) \
                .rowcount == 1
        connection.close()

    def _delta(self, tmp_path, evolved, vantage, domains, baseline, shards):
        events = []
        path = tmp_path / f"delta{shards}"
        with CrawlStore(str(baseline)) as base, \
                CrawlStore(str(path), shards=shards) as store:
            stored_crawl(store, evolved, vantage, self.KIND, domains,
                         baseline=base,
                         progress=lambda event, **fields: events.append(
                             (event, fields.get("domain"))))
            stats = store.run_manifests()[0].stats
        return path, stats.get("delta"), events

    def _full(self, tmp_path, evolved, vantage, domains, shards):
        path = tmp_path / f"full{shards}"
        with CrawlStore(str(path), shards=shards) as store:
            stored_crawl(store, evolved, vantage, self.KIND, domains)
        return path

    @pytest.mark.parametrize("base_shards,shards", [(1, 1), (2, 3)])
    def test_site_with_a_missing_row_is_visited(
            self, tmp_path, universe, evolved, vantage_points, domains,
            base_shards, shards):
        """One transaction per group on one shard, one per site on
        three: either way the site whose rows disagree is rolled back
        and visited, and every other unchanged site still splices."""
        vantage = vantage_points.point("ES")
        baseline = self._baseline(tmp_path, universe, vantage, domains,
                                  base_shards)
        victim, changed = self._victim(baseline, evolved, domains)
        self._edit_shard(baseline, victim.domain,
                         "DELETE FROM requests WHERE run_id=?"
                         " AND position=?", victim.requests_start)
        before = shard_file_digests(baseline)

        path, delta, events = self._delta(tmp_path, evolved, vantage,
                                          domains, baseline, shards)
        assert ("site_spliced", victim.domain) not in events
        assert ("site_finished", victim.domain) in events
        assert delta["crawled"] == changed + 1
        assert delta["spliced"] == len(domains) - changed - 1
        assert store_digest(path) == store_digest(
            self._full(tmp_path, evolved, vantage, domains, shards))
        assert shard_file_digests(baseline) == before

    def test_site_with_a_missing_partial_maps_it(
            self, tmp_path, universe, evolved, vantage_points, domains):
        """A spliced site short of a partial still splices: the partial
        is mapped from the rows just copied, in the site's transaction,
        and the store holds a full crawl's partials."""
        vantage = vantage_points.point("ES")
        baseline = self._baseline(tmp_path, universe, vantage, domains, 1)
        victim, changed = self._victim(baseline, evolved, domains)
        self._edit_shard(baseline, victim.domain,
                         "DELETE FROM partials WHERE run_id=?"
                         " AND position=? AND analysis='sync'",
                         victim.position)

        path, delta, events = self._delta(tmp_path, evolved, vantage,
                                          domains, baseline, 1)
        assert ("site_spliced", victim.domain) in events
        assert delta["crawled"] == changed
        assert store_digest(path) == store_digest(
            self._full(tmp_path, evolved, vantage, domains, 1))

    @pytest.mark.parametrize("shards", [1, 3])
    def test_wrong_site_count_is_not_spliced_from(
            self, tmp_path, universe, evolved, vantage_points, domains,
            shards):
        """A per-site count one too high shifts every later slice; a
        shifted slice still counts right, so the delta checks the run's
        layout first and crawls normally."""
        vantage = vantage_points.point("ES")
        baseline = self._baseline(tmp_path, universe, vantage, domains,
                                  shards)
        victim, _ = self._victim(baseline, evolved, domains)
        self._edit_shard(baseline, victim.domain,
                         "UPDATE run_sites SET requests=requests+1"
                         " WHERE run_id=? AND domain=?", victim.domain)
        before = shard_file_digests(baseline)

        path, delta, events = self._delta(tmp_path, evolved, vantage,
                                          domains, baseline, shards)
        assert delta is None
        assert not any(event == "site_spliced" for event, _ in events)
        assert store_digest(path) == store_digest(
            self._full(tmp_path, evolved, vantage, domains, shards))
        assert shard_file_digests(baseline) == before


def _spliced_groups(domains, changed) -> int:
    """How many maximal runs of unchanged sites ``domains`` has: the
    splice groups of a fresh delta run against a complete baseline."""
    groups, inside = 0, False
    for domain in domains:
        if domain not in changed and not inside:
            groups += 1
        inside = domain not in changed
    return groups


class TestSpanSplice:
    """Unchanged sites splice a span at a time, one transaction per
    touched shard and group, and the layout that allows stays safe:
    stores of any shard count digest equal to a full crawl, a kill
    between two shards' commits resumes to an uninterrupted delta, and
    two writers share a store."""

    KIND = "openwpm:porn"

    @pytest.fixture(scope="class")
    def domains(self, crawlable_porn):
        return crawlable_porn[:40]

    @pytest.fixture(scope="class")
    def baselines(self, tmp_path_factory, universe, vantage_points,
                  domains):
        """Epoch 0 of ``domains`` from ES on 1, 2 and 3 shards (and from
        US too on 2)."""
        root = tmp_path_factory.mktemp("span-baselines")
        paths = {}
        for shards in (1, 2, 3):
            paths[shards] = str(root / f"e0-{shards}")
            with CrawlStore(paths[shards], shards=shards) as store:
                for country in ("ES", "US") if shards == 2 else ("ES",):
                    stored_crawl(store, universe,
                                 vantage_points.point(country), self.KIND,
                                 domains)
        return paths

    @pytest.fixture(scope="class")
    def full_digest(self, tmp_path_factory, evolved, vantage_points,
                    domains):
        """A full crawl of epoch 1 from ES (shard counts do not change
        a store's digest)."""
        path = str(tmp_path_factory.mktemp("span-full") / "full")
        with CrawlStore(path) as store:
            stored_crawl(store, evolved, vantage_points.point("ES"),
                         self.KIND, domains)
        return store_digest(path)

    def _delta(self, path, baseline, evolved, vantage, domains, *,
               shards=None):
        with CrawlStore(baseline) as base, \
                CrawlStore(str(path), shards=shards) as store:
            stored_crawl(store, evolved, vantage, self.KIND, domains,
                         baseline=base)

    @pytest.mark.parametrize("base_shards,shards",
                             [(1, 1), (2, 2), (3, 3), (1, 2)])
    def test_delta_matches_full_crawl(self, tmp_path, baselines, evolved,
                                      vantage_points, domains, full_digest,
                                      base_shards, shards):
        path = tmp_path / "delta"
        self._delta(path, baselines[base_shards], evolved,
                    vantage_points.point("ES"), domains, shards=shards)
        assert store_digest(path) == full_digest
        with CrawlStore(str(path)) as store:
            assert store.run_manifests()[0].stats["delta"]["spliced"] > 0

    def test_statements_per_span_and_shard(self, tmp_path, baselines,
                                           universe, evolved, vantage_points,
                                           domains):
        """On two shards, each splice group is one transaction per shard
        holding at most five copies (four event tables and the partials)
        per span; a group is one span when the shard counts match.  A
        transaction per spliced site fails this."""
        changed = evolved.changed_domains_since(universe.config)
        groups = _spliced_groups(domains, changed)
        statements = {0: [], 1: []}
        with CrawlStore(baselines[2]) as base, \
                CrawlStore(str(tmp_path / "delta"), shards=2) as store:
            for index, seen in statements.items():
                store._conn(index).set_trace_callback(seen.append)
            stored_crawl(store, evolved, vantage_points.point("ES"),
                         self.KIND, domains, baseline=base)
        for index, seen in statements.items():
            spliced = sum(1 for domain in domains if domain not in changed
                          and shard_of_domain(domain, 2) == index)
            assert spliced > groups  # some group splices 2+ sites here
            commits = copies = 0
            in_splice = False
            for sql in seen:
                if sql.startswith("INSERT INTO main."):
                    copies += 1
                    in_splice = True
                elif sql == "COMMIT":
                    commits += in_splice
                    in_splice = False
            assert 0 < commits <= groups
            assert 0 < copies <= 5 * groups

    def _torn(self, path) -> bool:
        with CrawlStore(str(path)) as store:
            flags = [row[2] for row in store.run_site_counts(
                store.run_manifests()[0].run_id)]
        return 0 in flags and 1 in flags[flags.index(0):]

    def test_kill_between_shard_commits_resumes(self, tmp_path, baselines,
                                                evolved, vantage_points,
                                                domains, full_digest):
        """A process SIGKILLed right after the first shard of a splice
        group commits leaves a torn run; reopening it cuts the run back
        to its completed prefix, and the resumed delta writes the store
        an uninterrupted delta writes."""
        path = tmp_path / "killed"
        vantage = vantage_points.point("ES")
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child never returns
            try:
                with CrawlStore(baselines[2]) as base, \
                        CrawlStore(str(path), shards=2) as store:
                    splicing = []

                    def trace(sql):
                        if sql.startswith("INSERT INTO main."):
                            splicing.append(sql)
                        elif sql == "COMMIT" and splicing:
                            # Shard 0 has committed this group's part.
                            os.kill(os.getpid(), signal.SIGKILL)

                    store._conn(1).set_trace_callback(trace)
                    stored_crawl(store, evolved, vantage, self.KIND, domains,
                                 baseline=base)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.WIFSIGNALED(status)
        assert os.WTERMSIG(status) == signal.SIGKILL
        assert self._torn(path)
        self._delta(path, baselines[2], evolved, vantage, domains)
        assert not self._torn(path)
        assert store_digest(path) == full_digest

    def test_two_writers_share_a_store(self, tmp_path, baselines, evolved,
                                       vantage_points, domains):
        """Two processes delta-crawl different runs into one two-shard
        store at once: both finish, and the store equals one written
        serially."""
        shared = tmp_path / "shared"
        CrawlStore(str(shared), shards=2).close()
        ready, go = os.pipe()
        children = []
        for country in ("ES", "US"):
            pid = os.fork()
            if pid == 0:  # pragma: no cover - the child never returns
                code = 1
                try:
                    os.close(go)
                    os.read(ready, 1)
                    self._delta(shared, baselines[2], evolved,
                                vantage_points.point(country), domains)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        os.close(ready)
        os.write(go, b"go")
        os.close(go)
        deadline = time.monotonic() + 120
        codes = {}
        while len(codes) < len(children) and time.monotonic() < deadline:
            for pid in children:
                if pid not in codes:
                    done, status = os.waitpid(pid, os.WNOHANG)
                    if done:
                        codes[pid] = os.waitstatus_to_exitcode(status)
            time.sleep(0.05)
        for pid in set(children) - set(codes):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert len(codes) == len(children), "the writers deadlocked"
        assert list(codes.values()) == [0, 0]

        serial = tmp_path / "serial"
        for country in ("ES", "US"):
            self._delta(serial, baselines[2], evolved,
                        vantage_points.point(country), domains, shards=2)
        assert store_digest(shared) == store_digest(serial)


class TestDeltaPartials:
    """A delta-crawled epoch against a full crawl of the same epoch,
    both through a study with a store: the sections it renders and the
    partial rows it stores."""

    SCALE = 0.02

    def _config(self, epoch, churn):
        return UniverseConfig(seed=SEED, scale=self.SCALE, epoch=epoch,
                              churn=churn)

    def _study(self, path, epoch, churn, shards=1, baseline=None):
        """Crawl and render one epoch into ``path``: its sections."""
        study = Study(build_universe(self._config(epoch, churn)),
                      store=str(path), store_shards=shards,
                      baseline_store=baseline, parallelism=1)
        try:
            study.run_all()
            return dict(report_sections(study, self.SCALE))
        finally:
            study.close()

    @pytest.fixture(scope="class")
    def epochs_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("delta-partials")

    @pytest.fixture(scope="class")
    def baseline(self, epochs_dir):
        """Epoch 0 (which reads no ``churn``), one shard."""
        path = epochs_dir / "e0"
        self._study(path, 0, 0.05)
        return str(path)

    @pytest.fixture(scope="class")
    def full(self, epochs_dir):
        """Per churn and epoch (1 by default): a full crawl, its
        sections and its partial rows."""
        crawled = {}

        def get(churn, epoch=1):
            if (churn, epoch) not in crawled:
                path = epochs_dir / f"full-e{epoch}-{churn}"
                sections = self._study(path, epoch, churn)
                crawled[churn, epoch] = sections, partial_rows(path)
            return crawled[churn, epoch]

        return get

    @pytest.mark.parametrize("churn", [0.05, 0.5])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_delta_epoch_matches_full_crawl(self, tmp_path, baseline, full,
                                            churn, shards):
        path = tmp_path / "delta"
        sections = self._study(path, 1, churn, shards, baseline=baseline)
        self._assert_full(path, sections, *full(churn))

    @pytest.mark.parametrize("shards", [1, 3])
    def test_chained_delta_epochs_match_full_crawl(self, tmp_path, baseline,
                                                   full, shards):
        """Epoch 2 delta-crawled from a delta-crawled epoch 1, as
        ``epoch-serve`` chains them: partials spliced once are spliced
        again, and the epoch renders and stores what a full crawl of
        epoch 2 does."""
        epoch1 = tmp_path / "e1"
        self._study(epoch1, 1, 0.05, shards, baseline=baseline)
        path = tmp_path / "e2"
        sections = self._study(path, 2, 0.05, shards, baseline=str(epoch1))
        self._assert_full(path, sections, *full(0.05, epoch=2))

    @staticmethod
    def _assert_full(path, sections, expected_sections, expected_rows):
        """The delta store at ``path`` rendered ``sections`` and holds
        the partial rows of a full crawl, and it spliced and crawled."""
        assert list(sections) == list(expected_sections)
        differ = [name for name in sections
                  if sections[name] != expected_sections[name]]
        assert not differ, f"sections differ from a full crawl: {differ}"
        rows = partial_rows(path)
        assert rows.keys() == expected_rows.keys()
        differ = sorted(key for key in rows if rows[key] != expected_rows[key])
        assert not differ, f"partials differ from a full crawl: {differ[:5]}"
        with CrawlStore(str(path)) as store:
            stats = [manifest.stats["delta"]
                     for manifest in store.run_manifests()]
        assert sum(delta["spliced"] for delta in stats) > 0
        assert sum(delta["crawled"] for delta in stats) > 0

    @pytest.mark.parametrize("shards", [1, 3])
    def test_stale_partials_are_mapped_at_splice(
            self, tmp_path, baseline, full, monkeypatch, shards):
        """After an ``ANALYSIS_VERSIONS`` bump the baseline's partials of
        the bumped analyses are stale: the splice maps them from the
        rows it copied instead of copying them, so the epoch's render
        reads every partial at rest and maps none."""
        expected = full(0.05)[0]  # before the bump: the class caches it
        for name in ("visits", "sync"):
            monkeypatch.setitem(ANALYSIS_VERSIONS, name,
                                ANALYSIS_VERSIONS[name] + 1)
        path = tmp_path / "delta"
        self._study(path, 1, 0.05, shards, baseline=baseline)
        rows = partial_rows(path)
        assert {version for (_, _, _, name), (version, _) in rows.items()
                if name in ("visits", "sync")} == {
            ANALYSIS_VERSIONS["visits"], ANALYSIS_VERSIONS["sync"]}

        study = Study(build_universe(self._config(1, 0.05)),
                      store=str(path), store_only=True, parallelism=1)
        try:
            study.prefetch_partials()
            sections = dict(report_sections(study, self.SCALE))
            counts = study.partial_counts()
        finally:
            study.close()
        assert sections == expected
        assert counts["mapped"] == 0 and counts["read"] > 0


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

    def test_cli_trend_builds_one_universe_from_scratch(
            self, tmp_path, universe, evolved, epoch0_store, epoch1_store,
            capsys, scratch_builds):
        """Each epoch's universe evolves from the previous one: three
        epochs, one build from scratch, and the report of universes
        built apart."""
        epoch2_store = str(tmp_path / "e2.db")
        study = Study(evolve_universe(evolved), store=epoch2_store,
                      baseline_store=epoch1_store)
        study.porn_log()
        study.regular_log()
        paths = [epoch2_store, epoch0_store, epoch1_store]
        assert main(["trend", *paths]) == 0
        assert scratch_builds == [universe.config]
        out = capsys.readouterr().out
        universes = [universe, evolved, evolve_universe(evolved)]
        stores = [CrawlStore(path) for path in paths]
        try:
            studies = [(store.stored_config().epoch, Study(
                universes[store.stored_config().epoch], store=store,
                store_only=True)) for store in stores]
            assert out == trend_report(studies)
        finally:
            for store in stores:
                store.close()
