"""Sharded datastore (v2): routing, resume, cursors, reshard, CLI totals.

The v2 layout splits one logical store into N SQLite shard files keyed
``sha256(site_domain) % N`` behind the same ``CrawlStore`` facade.
These tests pin the invariants the streaming pipeline depends on:

* every event row of a site lands in that site's shard, at its *global*
  position;
* a crawl killed between checkpoints resumes on a sharded store exactly
  as on a v1 file, and the result is bit-identical to a clean crawl;
* the bounded-memory cursors (``iter_*``) replay the heap-merged
  shards in exact event order;
* every producer of a crawl log (fresh crawl, resume, delta splice,
  ``load_log``, the fork executor) marks each site's rows exactly where
  the store's slice index puts them, and a ``store_only`` study renders
  the per-site tables from the store without hydrating the runs;
* ``repro store reshard`` migrates a v1 file losslessly;
* ``repro store info --shards`` totals are correct for both layouts.
"""

import pytest

from repro import Study
from repro.__main__ import main
from repro.crawler.executor import CrawlExecutor, CrawlSpec
from repro.crawler.openwpm import OpenWPMCrawler
from repro.datastore import (
    CrawlStore,
    reshard_store,
    shard_of_domain,
    stored_crawl,
)
from repro.datastore.delta import _slice_index
from repro.reporting.sections import render_section
from repro.webgen.builder import build_universe
from repro.webgen.evolve import evolve_universe

SHARDS = 3


@pytest.fixture()
def sharded(tmp_path):
    with CrawlStore(str(tmp_path / "shards"), shards=SHARDS) as handle:
        yield handle


class _Abort(Exception):
    """Stands in for SIGKILL between two per-site checkpoints."""


def _abort_after(checkpoint, count):
    calls = {"n": 0}

    def wrapped(domain, log, marks):
        checkpoint(domain, log, marks)
        calls["n"] += 1
        if calls["n"] >= count:
            raise _Abort

    return wrapped


class TestSharding:
    def test_shard_of_domain_is_stable_and_spread(self, crawlable_porn):
        routed = {shard_of_domain(d, SHARDS) for d in crawlable_porn}
        assert routed == set(range(SHARDS))  # all shards populated
        for domain in crawlable_porn:
            assert shard_of_domain(domain, SHARDS) == \
                shard_of_domain(domain, SHARDS)
        assert shard_of_domain("any.example", 1) == 0

    def test_layout_and_open_constraints(self, tmp_path, sharded):
        assert sharded.sharded
        assert sharded.shard_count == SHARDS
        # Reopening the directory needs no shard count; a wrong explicit
        # count is rejected.
        with CrawlStore(str(tmp_path / "shards")) as reopened:
            assert reopened.shard_count == SHARDS
        with pytest.raises(ValueError):
            CrawlStore(str(tmp_path / "shards"), shards=SHARDS + 1)

    def test_sharding_existing_v1_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "v1.db")
        CrawlStore(path).close()
        with pytest.raises(ValueError, match="reshard"):
            CrawlStore(path, shards=4)

    def test_rows_land_in_their_site_shard(self, sharded, universe,
                                           vantage_points, crawlable_porn):
        vantage = vantage_points.point("ES")
        stored_crawl(sharded, universe, vantage, "openwpm:porn",
                     crawlable_porn)
        for index in range(SHARDS):
            mine = [d for d in crawlable_porn
                    if shard_of_domain(d, SHARDS) == index]
            conn = sharded._conn(index)
            domains = [row[0] for row in conn.execute(
                "SELECT DISTINCT site_domain FROM visits")]
            assert sorted(domains) == sorted(mine)
            # Request rows of a shard's run only reference its sites.
            pages = {row[0] for row in conn.execute(
                "SELECT DISTINCT page_domain FROM requests")}
            assert pages <= set(mine)

    def test_store_roundtrip_matches_in_memory(self, sharded, universe,
                                               vantage_points,
                                               crawlable_porn):
        vantage = vantage_points.point("ES")
        in_memory = OpenWPMCrawler(universe, vantage).crawl(crawlable_porn)
        via_store = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                                 crawlable_porn)
        assert via_store == in_memory
        reloaded = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                                crawlable_porn)
        assert reloaded == in_memory
        assert reloaded._seq == in_memory._seq


class TestKilledAndResumed:
    ABORT_AFTER = 4

    @pytest.fixture()
    def resumed_store(self, tmp_path, universe, vantage_points,
                      crawlable_porn):
        """A sharded store whose crawl was killed mid-run, then resumed."""
        path = str(tmp_path / "resume-shards")
        vantage = vantage_points.point("ES")
        with CrawlStore(path, shards=SHARDS) as store:
            state = store.open_run(universe.config, vantage, "openwpm:porn",
                                   crawlable_porn)
            with pytest.raises(_Abort):
                OpenWPMCrawler(universe, vantage).crawl(
                    crawlable_porn,
                    checkpoint=_abort_after(store.checkpointer(state.run_id),
                                            self.ABORT_AFTER))
        store = CrawlStore(path)
        state = store.find_run(universe.config, vantage, "openwpm:porn",
                               crawlable_porn)
        assert len(state.completed) == self.ABORT_AFTER
        assert not state.finished
        resumed = stored_crawl(store, universe, vantage, "openwpm:porn",
                               crawlable_porn)
        yield store, state.run_id, resumed
        store.close()

    def test_resume_is_bit_identical(self, resumed_store, universe,
                                     vantage_points, crawlable_porn):
        _, _, resumed = resumed_store
        clean = OpenWPMCrawler(
            universe, vantage_points.point("ES")).crawl(crawlable_porn)
        assert resumed == clean
        assert resumed._seq == clean._seq

    def test_cursors_replay_hydrated_log_in_order(self, resumed_store):
        store, run_id, resumed = resumed_store
        assert list(store.iter_visits(run_id)) == resumed.visits
        assert list(store.iter_requests(run_id)) == resumed.requests
        assert list(store.iter_cookies(run_id)) == resumed.cookies
        assert list(store.iter_js_calls(run_id)) == resumed.js_calls
        # Tiny batches exercise the heap merge across fetchmany windows.
        assert list(store.iter_requests(run_id, batch=3)) == resumed.requests

    def test_resumed_log_marks_match_slice_index(self, resumed_store):
        store, run_id, resumed = resumed_store
        assert resumed.site_marks == _slice_marks(store, run_id)
        assert store.load_log(run_id).site_marks == resumed.site_marks


def _slice_marks(store, run_id):
    """The store's per-site slice starts, in the ``site_marks`` shape."""
    return [(s.domain, s.visits_start, s.requests_start, s.cookies_start,
             s.js_calls_start)
            for s in _slice_index(store, run_id).values()]


class TestSiteMarks:
    """Every producer's ``site_marks`` equal its stored run's slices."""

    SITES = 24

    def _run_id(self, store, universe, vantage, domains):
        return store.find_run(universe.config, vantage, "openwpm:porn",
                              domains).run_id

    def test_fresh_crawl_and_load_log(self, sharded, universe,
                                      vantage_points, crawlable_porn):
        domains = crawlable_porn[:self.SITES]
        vantage = vantage_points.point("ES")
        fresh = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                             domains)
        run_id = self._run_id(sharded, universe, vantage, domains)
        marks = _slice_marks(sharded, run_id)
        assert [mark[0] for mark in marks] == list(domains)
        assert fresh.site_marks == marks
        assert sharded.load_log(run_id).site_marks == marks
        # A crawl without a store marks the same bounds.
        plain = OpenWPMCrawler(universe, vantage).crawl(domains)
        assert plain.site_marks == marks

    def test_delta_splice(self, tmp_path, universe, vantage_points,
                          crawlable_porn):
        domains = crawlable_porn[:self.SITES]
        vantage = vantage_points.point("ES")
        evolved = evolve_universe(universe)
        events = []
        with CrawlStore(str(tmp_path / "e0"), shards=SHARDS) as base, \
                CrawlStore(str(tmp_path / "e1"), shards=SHARDS) as store:
            stored_crawl(base, universe, vantage, "openwpm:porn", domains)
            log = stored_crawl(
                store, evolved, vantage, "openwpm:porn", domains,
                baseline=base,
                progress=lambda event, **fields: events.append(event))
            run_id = self._run_id(store, evolved, vantage, domains)
            assert "site_spliced" in events
            assert log.site_marks == _slice_marks(store, run_id)

    def test_fork_executor(self, tmp_path, universe, vantage_points,
                           crawlable_porn):
        domains = tuple(crawlable_porn[:self.SITES])
        path = str(tmp_path / "fork")
        CrawlStore(path, shards=SHARDS).close()
        executor = CrawlExecutor(universe, vantage_points, parallelism=2,
                                 backend="process", store=path)
        outcomes = executor.run([
            CrawlSpec(key=f"porn:{country}", country=country,
                      domains=domains, store_kind="openwpm:porn")
            for country in ("ES", "US")
        ])
        with CrawlStore(path) as store:
            for outcome in outcomes:
                vantage = vantage_points.point(outcome.country)
                run_id = self._run_id(store, universe, vantage, domains)
                assert outcome.log.site_marks == _slice_marks(store, run_id)


class TestStoreOnlyStudy:
    def test_tables_match_in_memory_without_hydrating(self, tmp_path,
                                                      universe, study):
        """``repro report`` reads the per-site tables straight from the
        store: Tables 2/4/6 equal the in-memory study's, and the
        regular-web control run is never hydrated."""
        path = str(tmp_path / "report")
        writer = Study(universe, store=path, store_shards=SHARDS)
        writer.porn_log()
        writer.regular_log()
        writer.close()
        reader = Study(build_universe(universe.config), store=path,
                       store_only=True)
        scale = universe.config.scale
        for name in ("table2", "table4", "table6"):
            assert render_section(reader, scale, name) == \
                render_section(study, scale, name), name
        assert not reader._memoized("regular_log")
        assert not reader._memoized("porn_log:ES")
        reader.close()


class TestCursorEdgeCases:
    """Heap-merge paths that are only hit incidentally elsewhere: runs
    that leave whole shards empty, shard files lost on disk, and
    resharding a store that holds no runs at all."""

    def test_empty_shards_merge_cleanly(self, sharded, universe,
                                        vantage_points, crawlable_porn):
        # Crawl only the domains that route to shard 0, so shards 1..N-1
        # hold the run manifest but zero event rows; the merge must not
        # choke on (or reorder around) exhausted streams.
        subset = [d for d in crawlable_porn
                  if shard_of_domain(d, SHARDS) == 0]
        assert subset and len(subset) < len(crawlable_porn)
        vantage = vantage_points.point("ES")
        log = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                           subset)
        run_id = sharded.run_manifests()[0].run_id
        for index in range(1, SHARDS):
            conn = sharded._conn(index)
            assert conn.execute("SELECT COUNT(*) FROM visits").fetchone() \
                == (0,)
        assert list(sharded.iter_visits(run_id)) == log.visits
        assert list(sharded.iter_requests(run_id)) == log.requests
        assert list(sharded.iter_cookies(run_id)) == log.cookies
        assert list(sharded.iter_js_calls(run_id)) == log.js_calls
        # batch=1 forces a fetchmany window per row, the worst case for
        # interleaving live streams with exhausted ones.
        assert list(sharded.iter_requests(run_id, batch=1)) == log.requests
        assert sharded.count_events(run_id, "requests") == len(log.requests)

    def test_missing_shard_file_fails_fast(self, tmp_path, universe,
                                           vantage_points, crawlable_porn):
        import os

        path = str(tmp_path / "lossy")
        with CrawlStore(path, shards=SHARDS) as store:
            stored_crawl(store, universe, vantage_points.point("ES"),
                         "openwpm:porn", crawlable_porn)
        os.remove(os.path.join(path, "shard-0001.sqlite"))
        # The survivors' stamps disagree with the inferred shard count,
        # so the open fails loudly instead of silently merging a subset.
        with pytest.raises(ValueError, match="stamped"):
            CrawlStore(path)

    def test_reshard_empty_v1_store(self, tmp_path):
        src = str(tmp_path / "empty.db")
        CrawlStore(src).close()
        dst = str(tmp_path / "empty-sharded")
        created = reshard_store(src, dst, shards=SHARDS)
        assert len(created) == SHARDS
        with CrawlStore(dst) as store:
            assert store.shard_count == SHARDS
            assert store.run_manifests() == []
            assert store.stored_config() is None


class TestReshard:
    def _seeded_v1(self, tmp_path, universe, vantage_points, crawlable_porn):
        path = str(tmp_path / "flat.db")
        with CrawlStore(path) as store:
            vantage = vantage_points.point("ES")
            stored_crawl(store, universe, vantage, "openwpm:porn",
                         crawlable_porn)
            stored_crawl(store, universe, vantage, "openwpm:regular",
                         universe.reference_regular_corpus(),
                         keep_html=False)
        return path

    def test_reshard_is_lossless(self, tmp_path, universe, vantage_points,
                                 crawlable_porn):
        src = self._seeded_v1(tmp_path, universe, vantage_points,
                              crawlable_porn)
        dst = str(tmp_path / "resharded")
        created = reshard_store(src, dst, shards=4)
        assert len(created) == 4

        with CrawlStore(src) as flat, CrawlStore(dst) as sharded:
            assert sharded.shard_count == 4
            flat_manifests = flat.run_manifests()
            sharded_manifests = sharded.run_manifests()
            assert len(flat_manifests) == len(sharded_manifests) == 2
            for before, after in zip(flat_manifests, sharded_manifests):
                assert before.run_key == after.run_key
                assert before.visits == after.visits
                assert before.requests == after.requests
                assert before.cookies == after.cookies
                assert before.stats == after.stats
                flat_log = flat.load_log(before.run_id)
                sharded_log = sharded.load_log(after.run_id)
                assert sharded_log == flat_log
                assert sharded_log._seq == flat_log._seq

    def test_reshard_refuses_bad_inputs(self, tmp_path, universe,
                                        vantage_points, crawlable_porn):
        src = self._seeded_v1(tmp_path, universe, vantage_points,
                              crawlable_porn)
        with pytest.raises(ValueError):
            reshard_store(src, str(tmp_path / "x"), shards=1)
        dst = str(tmp_path / "taken")
        reshard_store(src, dst, shards=2)
        with pytest.raises(ValueError):
            reshard_store(src, dst, shards=2)  # destination exists
        with pytest.raises(ValueError):
            reshard_store(dst + "/shard-0000.sqlite",
                          str(tmp_path / "y"), shards=2)  # src is a shard


class TestCLITotals:
    SCALE, CLI_SEED = "0.02", "3"

    def _crawl(self, db, extra=()):
        assert main(["crawl", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                     "--sites", "6", "--store", db, *extra]) == 0

    def test_store_info_shards_on_v1(self, tmp_path, capsys):
        db = str(tmp_path / "flat.db")
        self._crawl(db)
        capsys.readouterr()
        assert main(["store", "info", db, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "single file" in out
        assert "1 shard(s)" in out
        assert "6" in out  # visit total

    def test_store_info_shards_on_v2_totals(self, tmp_path, capsys):
        db = str(tmp_path / "sharded")
        self._crawl(db, extra=("--store-shards", str(SHARDS)))
        capsys.readouterr()
        assert main(["store", "info", db, "--shards"]) == 0
        out = capsys.readouterr().out
        assert f"{SHARDS} shards" in out
        assert f"{SHARDS} shard(s)" in out

        with CrawlStore(db) as store:
            infos = store.shard_infos()
            manifests = store.run_manifests()
        assert len(infos) == SHARDS
        assert sum(info.visits for info in infos) == 6
        # Each shard carries the run's manifest row.
        assert all(info.runs == len(manifests) for info in infos)
        for info in infos:
            assert str(info.visits) in out
