"""Tests for the ``python -m repro`` command-line interface."""

import os
import re
import shutil
import sqlite3

import pytest

from repro.__main__ import build_parser, main
from repro.crawler.openwpm import OpenWPMCrawler
from repro.crawler.selenium import SeleniumCrawler
from repro.crawler.vpn import VantagePointManager
from repro.datastore import CrawlStore, run_key
from repro.datastore.serialize import SANITIZE_KIND

from .golden import regen


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["corpus"])
        assert args.scale == 0.1
        assert args.seed == 20191021

    def test_crawl_options(self):
        args = build_parser().parse_args(
            ["crawl", "--country", "RU", "--sites", "5", "--scale", "0.02"]
        )
        assert args.country == "RU"
        assert args.sites == 5

    def test_invalid_country_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crawl", "--country", "BR"])

    def test_store_flag(self):
        args = build_parser().parse_args(
            ["study", "--store", "/tmp/crawl.db"]
        )
        assert args.store == "/tmp/crawl.db"

    def test_report_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_store_info_args(self):
        args = build_parser().parse_args(["store", "info", "x.db", "-v"])
        assert args.path == "x.db"
        assert args.verbose


class TestCommands:
    def test_corpus_command(self, capsys):
        assert main(["corpus", "--scale", "0.02", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "sanitized corpus:" in out
        assert "always in the top-1M" in out

    def test_crawl_command(self, capsys):
        assert main(["crawl", "--scale", "0.02", "--seed", "3",
                     "--sites", "8"]) == 0
        out = capsys.readouterr().out
        assert "/8 sites from ES" in out
        assert "third-party domains" in out

    def test_study_command(self, capsys):
        """Two workers (the output's byte-identity with a serial study is
        pinned by ``test_golden.py::test_in_memory_study[2]``), and
        ``--stats`` reports the sparse similarity engine's counters."""
        assert main(["study", "--scale", "0.02", "--seed", "3",
                     "--parallelism", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 2", "Table 4", "Figure 4", "Table 5",
                       "§5.3 malware", "Table 6", "Table 8"):
            assert marker in out
        assert re.search(r"^similarity engine: \d+ docs", out, re.M)

    def test_crawl_stats_prints_progress_counts(self, capsys):
        assert main(["crawl", "--scale", "0.02", "--seed", "3",
                     "--sites", "4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "progress events: 4 sites started, 4 finished" in out

    def test_crawl_since_stats_reports_spliced_sites(self, tmp_path,
                                                     capsys):
        e0 = str(tmp_path / "e0.db")
        assert main(["crawl", "--scale", "0.02", "--seed", "3",
                     "--sites", "6", "--store", e0]) == 0
        capsys.readouterr()
        e1 = str(tmp_path / "e1.db")
        assert main(["crawl", "--scale", "0.02", "--seed", "3",
                     "--sites", "6", "--epoch", "1", "--churn", "0.05",
                     "--store", e1, "--since", e0, "--stats"]) == 0
        out = capsys.readouterr().out
        match = re.search(r"(\d+) spliced", out)
        assert match and int(match.group(1)) > 0


class TestStoredArtifacts:
    """``repro report`` reads the sanitize verdicts and the inspection
    pass from the store; ``store info -v`` says whether they are there."""

    STUDY = ["study", "--scale", "0.02", "--seed", "3", "--parallelism", "1"]

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        db = str(tmp_path_factory.mktemp("artifacts") / "store.db")
        assert main(self.STUDY + ["--store", db]) == 0
        return db

    def test_store_info_reports_artifacts(self, stored, capsys):
        capsys.readouterr()
        assert main(["store", "info", stored, "-v"]) == 0
        info = capsys.readouterr().out
        assert "artifacts (home vantage ES):" in info
        assert re.search(r"selenium:inspections: \d+ bytes", info)
        assert re.search(r"sanitize:verdicts: \d+ bytes", info)
        assert "missing" not in info

    def test_report_without_verdicts_fails_until_study_reruns(
            self, stored, capsys, monkeypatch):
        """The upgrade path: a store written before the verdicts were
        persisted (here, its artifact row deleted) fails ``repro report``
        with a clear error; ``repro study --store`` re-sanitizes and
        crawls nothing, and the report renders again."""
        capsys.readouterr()
        assert main(self.STUDY + ["--store", stored]) == 0
        expected = capsys.readouterr().out
        with CrawlStore(stored) as store:
            config = store.stored_config()
            runs = [(run.run_key, run.visits, run.requests)
                    for run in store.run_manifests()]
        key = run_key(config, VantagePointManager().home, SANITIZE_KIND)
        with sqlite3.connect(os.path.join(stored, "shard-0000.sqlite")) \
                as conn:  # artifacts live in shard 0
            conn.execute("DELETE FROM artifacts WHERE artifact_key=?", (key,))
        conn.close()

        assert main(["store", "info", stored, "-v"]) == 0
        info = capsys.readouterr().out
        assert "sanitize:verdicts: missing" in info
        assert "re-run `repro study --store`" in info
        assert main(["report", "--store", stored]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "holds no sanitize verdicts" in captured.err
        assert "re-run `repro study --store`" in captured.err

        def no_crawling(*args, **kwargs):
            raise AssertionError("the re-run study must not crawl")

        with monkeypatch.context() as patch:
            patch.setattr(OpenWPMCrawler, "crawl", no_crawling)
            patch.setattr(SeleniumCrawler, "inspect", no_crawling)
            assert main(self.STUDY + ["--store", stored]) == 0
        assert capsys.readouterr().out == expected
        with CrawlStore(stored) as store:
            assert [(run.run_key, run.visits, run.requests)
                    for run in store.run_manifests()] == runs
        assert main(["report", "--store", stored]) == 0
        assert capsys.readouterr().out == expected


class TestDamagedShards:
    """A shard file cut short or overwritten ends every store command in
    one stderr line that names the file, with exit status 1."""

    @staticmethod
    def _damage(path, fault):
        if fault == "truncated":
            os.truncate(path, os.path.getsize(path) // 2)
        else:  # garbage over the SQLite header
            with open(path, "r+b") as handle:
                handle.write(b"\xde\xad" * 50)

    @pytest.mark.parametrize("shard", [0, 1])
    @pytest.mark.parametrize("fault", ["truncated", "garbage"])
    def test_store_commands_exit_1(self, fault, shard, golden_store,
                                   tmp_path, capsys):
        path = str(tmp_path / "store")
        shutil.copytree(golden_store, path)
        damaged = os.path.join(path, f"shard-000{shard}.sqlite")
        self._damage(damaged, fault)
        config = regen.config()
        study = ["study", "--scale", str(config.scale),
                 "--seed", str(config.seed), "--store", path]
        for argv in (["report", "--store", path], ["trend", path],
                     ["store", "info", path],
                     study + ["--parallelism", "1"],
                     study + ["--parallelism", "2"]):
            capsys.readouterr()
            try:
                status = main(argv)
                err = capsys.readouterr().err
            except SystemExit as exc:
                # ``_open_store`` exits with the message, which the
                # interpreter prints to stderr with status 1.
                status, err = 1, f"{exc.code}\n"
            assert status == 1, argv
            assert err.startswith(f"error: {damaged} is damaged ("), argv
            assert err.endswith("`repro study --store NEW_DIR`\n"), argv
            assert err.count("\n") == 1, argv


class TestProcessConventions:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.strip() != "repro unknown"

    def test_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro import __main__ as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_corpus", interrupted)
        parser = cli.build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        parser.parse_args(["corpus"])  # sanity: still parses
        assert main(["corpus"]) == 130
        assert "interrupted" in capsys.readouterr().err
