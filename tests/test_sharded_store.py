"""Sharded datastore: routing, resume, cursors, CLI totals.

A store is a directory of N SQLite shard files keyed
``sha256(site_domain) % N`` behind one ``CrawlStore`` facade.  These
tests pin the invariants the streaming pipeline depends on:

* every event row of a site lands in that site's shard, at its *global*
  position;
* a crawl killed between checkpoints resumes on a sharded store, and the
  result is bit-identical to a clean crawl;
* the bounded-memory cursors (``iter_*``) replay the heap-merged
  shards in exact event order;
* every stored run (fresh crawl, resume, delta splice, the fork
  executor) loads back with each site's rows marked exactly where the
  store's slice index and a plain in-memory crawl put them, and a
  ``store_only`` study renders the per-site tables from the store
  without loading whole runs;
* a regular file where a store directory belongs (such as an early
  single-file store) is refused by every command that opens a store,
  with a one-line ``repro study --store`` hint and exit status 1;
* ``repro store info --shards`` totals are correct.
"""

import os
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Study
from repro.__main__ import main
from repro.crawler.executor import CrawlExecutor, CrawlSpec
from repro.crawler.openwpm import OpenWPMCrawler
from repro.datastore import (
    CrawlStore,
    shard_of_domain,
    stored_crawl,
)
from repro.datastore.delta import _slice_index
from repro.reporting.sections import render_section
from repro.webgen.builder import build_universe
from repro.webgen.evolve import evolve_universe

SHARDS = 3


#: The refusal a regular file passed as a store gets.
FILE_REFUSAL = "is a file, not a store directory"


def _single_file(store_dir, path):
    """One SQLite file where a store directory belongs, as early versions
    wrote a store: a 1-shard store's shard file, copied out."""
    with CrawlStore(store_dir) as store:
        assert store.shard_count == 1
    source = sqlite3.connect(os.path.join(store_dir, "shard-0000.sqlite"))
    target = sqlite3.connect(path)
    try:
        source.backup(target)
    finally:
        source.close()
        target.close()
    return path


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
        assert sharded.shard_count == SHARDS
        # Reopening the directory needs no shard count; a wrong explicit
        # count is rejected.
        with CrawlStore(str(tmp_path / "shards")) as reopened:
            assert reopened.shard_count == SHARDS
        with pytest.raises(ValueError):
            CrawlStore(str(tmp_path / "shards"), shards=SHARDS + 1)

    def test_sharding_existing_v1_file_is_rejected(self, tmp_path):
        path = _single_file(str(tmp_path / "store"), str(tmp_path / "v1.db"))
        for shards in (None, 1, 4):
            with pytest.raises(ValueError, match=FILE_REFUSAL) as refused:
                CrawlStore(path, shards=shards)
            assert "`repro study --store NEW_DIR`" in str(refused.value)
            assert "\n" not in str(refused.value)

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
        run = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                           crawlable_porn)
        assert sharded.load_log(run) == in_memory
        again = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                             crawlable_porn)
        assert again == run
        reloaded = sharded.load_log(again)
        assert reloaded == in_memory
        assert reloaded._seq == in_memory._seq


class TestKilledAndResumed:
    ABORT_AFTER = 4

    @pytest.fixture()
    def resumed_store(self, tmp_path, universe, vantage_points,
                      crawlable_porn):
        """A sharded store whose crawl was killed mid-run, then resumed,
        with a clean in-memory crawl of the same sites to compare."""
        path = str(tmp_path / "resume-shards")
        vantage = vantage_points.point("ES")
        with CrawlStore(path, shards=SHARDS) as store:
            state = store.open_run(universe.config, vantage, "openwpm:porn",
                                   crawlable_porn)
            with pytest.raises(_Abort):
                OpenWPMCrawler(universe, vantage).crawl(
                    crawlable_porn,
                    checkpoint=_abort_after(store.checkpointer(state.run_id,
                                                             universe),
                                            self.ABORT_AFTER))
        store = CrawlStore(path)
        state = store.find_run(universe.config, vantage, "openwpm:porn",
                               crawlable_porn)
        assert len(state.completed) == self.ABORT_AFTER
        assert not state.finished
        assert stored_crawl(store, universe, vantage, "openwpm:porn",
                            crawlable_porn) == state.run_id
        clean = OpenWPMCrawler(universe, vantage).crawl(crawlable_porn)
        yield store, state.run_id, clean
        store.close()

    def test_resume_is_bit_identical(self, resumed_store):
        store, run_id, clean = resumed_store
        resumed = store.load_log(run_id)
        assert resumed == clean
        assert resumed._seq == clean._seq

    def test_cursors_replay_hydrated_log_in_order(self, resumed_store):
        store, run_id, clean = resumed_store
        assert list(store.iter_visits(run_id)) == clean.visits
        assert list(store.iter_requests(run_id)) == clean.requests
        assert list(store.iter_cookies(run_id)) == clean.cookies
        assert list(store.iter_js_calls(run_id)) == clean.js_calls
        # Tiny batches exercise the heap merge across fetchmany windows.
        assert list(store.iter_requests(run_id, batch=3)) == clean.requests

    def test_resumed_log_marks_match_slice_index(self, resumed_store):
        store, run_id, clean = resumed_store
        assert clean.site_marks == _slice_marks(store, run_id)
        assert store.load_log(run_id).site_marks == clean.site_marks


def _slice_marks(store, run_id):
    """The store's per-site slice starts, in the ``site_marks`` shape."""
    return [(s.domain, s.visits_start, s.requests_start, s.cookies_start,
             s.js_calls_start)
            for s in _slice_index(store, run_id).values()]


class TestSiteMarks:
    """Every stored run loads back with ``site_marks`` equal to its
    slices and to a plain in-memory crawl's marks."""

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
        assert fresh == run_id
        marks = _slice_marks(sharded, run_id)
        assert [mark[0] for mark in marks] == list(domains)
        assert sharded.load_log(fresh).site_marks == marks
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
            run = stored_crawl(
                store, evolved, vantage, "openwpm:porn", domains,
                baseline=base,
                progress=lambda event, **fields: events.append(event))
            run_id = self._run_id(store, evolved, vantage, domains)
            assert run == run_id
            assert "site_spliced" in events
            spliced = store.load_log(run)
            assert spliced.site_marks == _slice_marks(store, run_id)
        plain = OpenWPMCrawler(evolved, vantage).crawl(domains)
        assert spliced == plain
        assert spliced.site_marks == plain.site_marks

    def test_fork_executor(self, tmp_path, universe, vantage_points,
                           crawlable_porn):
        domains = tuple(crawlable_porn[:self.SITES])
        path = str(tmp_path / "fork")
        CrawlStore(path, shards=SHARDS).close()
        executor = CrawlExecutor(universe, vantage_points, parallelism=2,
                                 store=path)
        outcomes = executor.run([
            CrawlSpec(key=f"porn:{country}", country=country,
                      domains=domains, store_kind="openwpm:porn")
            for country in ("ES", "US")
        ])
        with CrawlStore(path) as store:
            for outcome in outcomes:
                vantage = vantage_points.point(outcome.country)
                run_id = self._run_id(store, universe, vantage, domains)
                assert outcome.log is None and outcome.run == run_id
                marks = _slice_marks(store, run_id)
                assert store.load_log(outcome.run).site_marks == marks
                plain = OpenWPMCrawler(universe, vantage).crawl(domains)
                assert plain.site_marks == marks


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
        assert not reader._memoized("log:openwpm:regular:ES")
        assert not reader._memoized("log:openwpm:porn:ES")
        reader.close()


class TestCursorEdgeCases:
    """Heap-merge paths that are only hit incidentally elsewhere: runs
    that leave whole shards empty, and shard files lost on disk."""

    def test_empty_shards_merge_cleanly(self, sharded, universe,
                                        vantage_points, crawlable_porn):
        # Crawl only the domains that route to shard 0, so shards 1..N-1
        # hold the run manifest but zero event rows; the merge must not
        # choke on (or reorder around) exhausted streams.
        subset = [d for d in crawlable_porn
                  if shard_of_domain(d, SHARDS) == 0]
        assert subset and len(subset) < len(crawlable_porn)
        vantage = vantage_points.point("ES")
        run_id = stored_crawl(sharded, universe, vantage, "openwpm:porn",
                              subset)
        assert run_id == sharded.run_manifests()[0].run_id
        log = OpenWPMCrawler(universe, vantage).crawl(subset)
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


class TestCLITotals:
    SCALE, CLI_SEED = "0.02", "3"

    def _crawl(self, db, extra=()):
        assert main(["crawl", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                     "--sites", "6", "--store", db, *extra]) == 0

    def test_store_info_shards_on_v1(self, tmp_path, capsys):
        """A single-file store is refused; the default store is one
        shard."""
        store = str(tmp_path / "store")
        self._crawl(store)
        flat = _single_file(store, str(tmp_path / "flat.db"))
        capsys.readouterr()
        with pytest.raises(SystemExit, match=FILE_REFUSAL):
            main(["store", "info", flat, "--shards"])
        assert main(["store", "info", store, "--shards"]) == 0
        out = capsys.readouterr().out
        assert "(schema v" in out and "1 shard)" in out
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


class TestSingleFileStore:
    """A single-file store fails every command that opens a store with
    one clear line, not a traceback."""

    SCALE, CLI_SEED = "0.02", "3"

    @staticmethod
    def _cli(*argv):
        """``python -m repro`` in a fresh process: (status, stderr)."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        return done.returncode, done.stderr

    def test_refused_by_every_command(self, tmp_path):
        store = str(tmp_path / "store")
        assert main(["crawl", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                     "--sites", "6", "--store", store]) == 0
        old = _single_file(store, str(tmp_path / "old.db"))

        for argv in (["report", "--store", old],
                     ["study", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                      "--store", old],
                     ["serve", "--store", old, "--port", "0"],
                     ["store", "info", old]):
            status, err = self._cli(*argv)
            assert status == 1, (argv, err)
            assert "Traceback" not in err, argv
            assert err.count("\n") == 1 and FILE_REFUSAL in err, (argv, err)
            assert "`repro study --store NEW_DIR`" in err, argv
