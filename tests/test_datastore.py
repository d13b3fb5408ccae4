"""Tests for the persistent crawl datastore: roundtrip fidelity,
checkpoint/resume bit-identity, concurrent creation, store-backed
execution, and the ``repro report`` / ``repro store info`` CLI surface."""

import multiprocessing
import os
import threading

import pytest

from repro import Study, UniverseConfig
from repro.__main__ import main
from repro.crawler.executor import CrawlExecutor, CrawlSpec
from repro.crawler.openwpm import OpenWPMCrawler
from repro.datastore import (
    CrawlStore,
    MissingRunError,
    SCHEMA_VERSION,
    SchemaError,
    config_from_json,
    config_to_json,
    run_key,
    stored_crawl,
)
from repro.reporting.tables import (
    render_table2,
    render_table4,
    render_table6,
)

SEED = 20191021


@pytest.fixture()
def store(tmp_path):
    with CrawlStore(str(tmp_path / "crawl.db")) as handle:
        yield handle


class TestRunIdentity:
    def test_config_json_roundtrip_default(self):
        config = UniverseConfig()
        assert config_from_json(config_to_json(config)) == config

    def test_config_json_roundtrip_custom(self):
        config = UniverseConfig(seed=7, scale=0.31, rank_days=90)
        assert config_from_json(config_to_json(config)) == config

    def test_run_key_is_stable_and_sensitive(self, vantage_points):
        config = UniverseConfig(seed=1, scale=0.1)
        es, us = vantage_points.point("ES"), vantage_points.point("US")
        base = run_key(config, es, "openwpm:porn")
        assert base == run_key(config, es, "openwpm:porn")
        assert base != run_key(config, us, "openwpm:porn")
        assert base != run_key(config, es, "openwpm:regular")
        assert base != run_key(UniverseConfig(seed=2, scale=0.1), es,
                               "openwpm:porn")
        assert base != run_key(config, es, "openwpm:porn", keep_html=False)
        # The hashed payload is unchanged since the first stores: a run
        # key of an existing store still finds its run.
        assert base == ("5bbd48a1061b5c1d4508ffbaf9f88b015ddaed5ce9c0968a"
                        "5804aedf8ab804b9")

    def test_store_rejects_second_config(self, store, universe,
                                         vantage_points):
        store.open_run(universe.config, vantage_points.point("ES"),
                       "openwpm:porn", ["a.com"])
        with pytest.raises(ValueError, match="different UniverseConfig"):
            store.open_run(UniverseConfig(seed=9, scale=0.5),
                           vantage_points.point("ES"),
                           "openwpm:porn", ["a.com"])


class TestRoundtrip:
    def test_crawl_log_roundtrip_over_all_archetypes(self, store, universe,
                                                     vantage_points,
                                                     crawlable_porn):
        """A stored full-corpus run loads back equal to the in-memory log.

        The session corpus spans every site archetype (all content
        categories, HTTPS and cleartext, banner/age-gate/policy
        variants), so equality here is the roundtrip property over the
        whole generator surface.
        """
        categories = {
            universe.porn_sites[d].content_category for d in crawlable_porn
        }
        assert categories == {"tube", "cams", "proxy", "gallery", "premium"}

        vantage = vantage_points.point("ES")
        in_memory = OpenWPMCrawler(universe, vantage).crawl(crawlable_porn)
        run = stored_crawl(store, universe, vantage, "openwpm:porn",
                           crawlable_porn)
        via_store = store.load_log(run)
        assert via_store == in_memory          # every field of every record
        assert via_store._seq == in_memory._seq

        # A second call finds the run complete and returns the same ref.
        again = stored_crawl(store, universe, vantage, "openwpm:porn",
                             crawlable_porn)
        assert again == run
        assert store.load_log(again) == in_memory

    def test_regular_log_roundtrip(self, store, universe, vantage_points):
        domains = universe.reference_regular_corpus()
        vantage = vantage_points.point("ES")
        in_memory = OpenWPMCrawler(universe, vantage,
                                   keep_html=False).crawl(domains)
        via_store = store.load_log(stored_crawl(
            store, universe, vantage, "openwpm:regular", domains,
            keep_html=False))
        assert via_store == in_memory


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


class TestResume:
    ABORT_AFTER = 5

    def _aborted_store(self, path, universe, vantage, domains):
        """Simulate a crawl killed after K per-site checkpoints."""
        with CrawlStore(path) as store:
            state = store.open_run(universe.config, vantage, "openwpm:porn",
                                   domains)
            crawler = OpenWPMCrawler(universe, vantage)
            with pytest.raises(_Abort):
                crawler.crawl(domains, checkpoint=_abort_after(
                    store.checkpointer(state.run_id, universe),
                    self.ABORT_AFTER))

    def test_aborted_then_resumed_log_is_bit_identical(
            self, tmp_path, universe, vantage_points, crawlable_porn):
        path = str(tmp_path / "resume.db")
        vantage = vantage_points.point("ES")
        domains = crawlable_porn
        self._aborted_store(path, universe, vantage, domains)

        with CrawlStore(path) as store:
            state = store.find_run(universe.config, vantage, "openwpm:porn",
                                   domains)
            assert len(state.completed) == self.ABORT_AFTER
            assert not state.finished
            resumed = store.load_log(stored_crawl(
                store, universe, vantage, "openwpm:porn", domains))
            manifest = store.run_manifests()[0]

        clean = OpenWPMCrawler(universe, vantage).crawl(domains)
        assert resumed == clean
        assert resumed._seq == clean._seq
        assert manifest.complete
        assert manifest.stats["resumed_from_site"] == self.ABORT_AFTER

    def test_resumed_study_tables_match_clean_study(
            self, tmp_path, universe, vantage_points, crawlable_porn, study):
        """Tables 2/4/6 from an aborted-then-resumed store-backed study
        render byte-identically to the uninterrupted in-memory study."""
        path = str(tmp_path / "resume-study.db")
        vantage = vantage_points.point("ES")
        # The study's porn crawl covers the full sanitized corpus, not
        # just the crawl-survivable subset the other tests use.
        plain = Study(universe, parallelism=1)
        self._aborted_store(path, universe, vantage, plain.corpus_domains())

        restored = Study(universe, parallelism=1, store=path)
        assert render_table2(restored.table2()) == \
            render_table2(study.table2())
        assert render_table4(restored.cookie_stats()) == \
            render_table4(study.cookie_stats())
        assert render_table6(restored.https_report()) == \
            render_table6(study.https_report())


def _open_and_report(path, shards, barrier, results):
    """One opener of a fresh store: wait for the others, open, report."""
    barrier.wait()
    try:
        with CrawlStore(path, shards=shards) as opened:
            results.put(opened.shard_count)
    except Exception as exc:  # reported, not raised: children are forked
        results.put(f"{type(exc).__name__}: {exc}")


class TestConcurrentOpen:
    """Openers racing on a fresh path all open the one store it becomes.

    A crawl executor's workers, the service's job threads and a second
    CLI process can all open a store path before it exists; the store is
    built aside and renamed into place, so no opener sees it half-built.
    """

    THREADS, PROCESSES, ROUNDS = 4, 2, 50

    @pytest.mark.parametrize("shards", [None, 2])
    def test_threads_and_processes_open_one_fresh_store(self, tmp_path,
                                                        shards):
        context = multiprocessing.get_context("fork")
        for round_ in range(self.ROUNDS):
            path = str(tmp_path / f"store{round_}")
            barrier = context.Barrier(self.THREADS + self.PROCESSES)
            results = context.Queue()
            # Processes first: nothing of this test is running yet when
            # they fork.
            openers = [
                context.Process(target=_open_and_report,
                                args=(path, shards, barrier, results))
                for _ in range(self.PROCESSES)
            ] + [
                threading.Thread(target=_open_and_report,
                                 args=(path, shards, barrier, results))
                for _ in range(self.THREADS)
            ]
            for opener in openers:
                opener.start()
            seen = [results.get(timeout=60) for _ in openers]
            for opener in openers:
                opener.join(timeout=60)
                assert not opener.is_alive()
            assert seen == [shards or 1] * len(openers), (round_, seen)
            assert sorted(os.listdir(tmp_path)) == sorted(
                f"store{i}" for i in range(round_ + 1))


class TestStoreBackedExecution:
    def test_executor_skips_stored_crawls(self, tmp_path, universe,
                                          vantage_points, crawlable_porn,
                                          monkeypatch, no_fork):
        store_path = str(tmp_path / "exec.db")
        specs = [
            CrawlSpec(key=f"porn:{country}", country=country,
                      domains=tuple(crawlable_porn),
                      store_kind="openwpm:porn")
            for country in ("ES", "US")
        ]
        first = CrawlExecutor(universe, vantage_points, parallelism=2,
                              store=store_path).run(specs)

        def exploding_crawl(self, domains, **kwargs):  # pragma: no cover
            raise AssertionError("stored crawl must not re-crawl")

        plain = {country: OpenWPMCrawler(
            universe, vantage_points.point(country)).crawl(crawlable_porn)
            for country in ("ES", "US")}
        monkeypatch.setattr(OpenWPMCrawler, "crawl", exploding_crawl)
        second = CrawlExecutor(universe, vantage_points, parallelism=2,
                               store=store_path).run(specs)
        with CrawlStore(store_path) as store:
            for before, after in zip(first, second):
                # With a store, workers ship the run, never a log.
                assert before.log is None and after.log is None
                assert after.run == before.run
                assert store.load_log(after.run) == plain[after.country]

    def test_study_store_only_raises_on_missing_run(self, tmp_path, universe):
        hydrated = Study(universe, parallelism=1,
                         store=str(tmp_path / "empty.db"), store_only=True)
        with pytest.raises(MissingRunError):
            hydrated.porn_log()

    def test_store_only_requires_store(self, universe):
        with pytest.raises(ValueError):
            Study(universe, store_only=True)


class TestCLI:
    SCALE, CLI_SEED = "0.02", "3"

    def test_report_is_byte_identical_to_study(self, tmp_path, capsys):
        db = str(tmp_path / "cli.db")
        assert main(["study", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                     "--store", db]) == 0
        study_out = capsys.readouterr().out
        assert main(["report", "--store", db]) == 0
        report_out = capsys.readouterr().out
        assert report_out == study_out
        for marker in ("Table 5: fingerprinting", "§5.3 malware:"):
            assert marker in study_out

    def test_store_info_lists_manifests(self, tmp_path, capsys):
        db = str(tmp_path / "info.db")
        assert main(["crawl", "--scale", self.SCALE, "--seed", self.CLI_SEED,
                     "--sites", "6", "--store", db, "--stats"]) == 0
        crawl_out = capsys.readouterr().out
        assert "fetch cache:" in crawl_out
        assert main(["store", "info", db, "--verbose"]) == 0
        info = capsys.readouterr().out
        assert f"schema v{SCHEMA_VERSION}" in info
        assert "openwpm:porn from ES" in info
        assert "6/6" in info
        assert "fetch_cache:" in info
        assert "run key:" in info

    def test_older_schema_is_refused_with_the_rebuild_hint(self, tmp_path,
                                                             capsys):
        """A store of an older schema version (here: one without the
        partials table) opens nowhere; every command exits 1 naming
        ``repro study --store``."""
        import sqlite3

        db = str(tmp_path / "old.db")
        CrawlStore(db).close()
        connection = sqlite3.connect(os.path.join(db, "shard-0000.sqlite"))
        with connection:
            connection.execute("DROP TABLE partials")
            connection.execute(
                "UPDATE meta SET value=? WHERE key='schema_version'",
                (str(SCHEMA_VERSION - 1),))
        connection.close()
        with pytest.raises(SchemaError, match="repro study --store"):
            CrawlStore(db)
        for argv in (["report", "--store", db], ["store", "info", db]):
            with pytest.raises(SystemExit, match="repro study --store"):
                main(argv)

    def test_report_on_empty_store_errors(self, tmp_path, capsys):
        db = str(tmp_path / "void.db")
        CrawlStore(db).close()
        assert main(["report", "--store", db]) == 1
        assert "holds no runs" in capsys.readouterr().err
