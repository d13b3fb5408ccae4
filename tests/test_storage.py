"""Tests for crawl-log persistence (JSONL round-trip)."""

import pytest

from repro.browser.storage import dump_lines, load_log, parse_lines, save_log
from repro.core.cookie_analysis import analyze_cookies
from repro.core.cookie_sync import detect_cookie_sync
from repro.core.partylabel import label_parties


class TestRoundTrip:
    def test_full_round_trip(self, porn_log, tmp_path):
        path = tmp_path / "crawl.jsonl"
        save_log(porn_log, path)
        loaded = load_log(path)
        assert loaded.country_code == porn_log.country_code
        assert loaded.client_ip == porn_log.client_ip
        assert len(loaded.visits) == len(porn_log.visits)
        assert len(loaded.requests) == len(porn_log.requests)
        assert len(loaded.cookies) == len(porn_log.cookies)
        assert len(loaded.js_calls) == len(porn_log.js_calls)

    def test_records_identical(self, porn_log, tmp_path):
        path = tmp_path / "crawl.jsonl"
        save_log(porn_log, path)
        loaded = load_log(path)
        assert loaded.requests[0] == porn_log.requests[0]
        assert loaded.cookies[0] == porn_log.cookies[0]
        assert loaded.visits[0] == porn_log.visits[0]
        assert loaded.js_calls[0] == porn_log.js_calls[0]

    def test_seq_preserved(self, porn_log, tmp_path):
        path = tmp_path / "crawl.jsonl"
        save_log(porn_log, path)
        loaded = load_log(path)
        assert loaded._seq == porn_log._seq
        assert [r.seq for r in loaded.requests] == \
            [r.seq for r in porn_log.requests]

    def test_site_marks_round_trip(self, porn_log):
        assert porn_log.site_marks
        loaded = parse_lines(dump_lines(porn_log))
        assert loaded.site_marks == porn_log.site_marks

    def test_analyses_agree_on_loaded_log(self, porn_log, universe, tmp_path):
        """The whole §4/§5 pipeline gives identical results on a reloaded
        log — crawls can be archived and re-analyzed without the universe."""
        path = tmp_path / "crawl.jsonl"
        save_log(porn_log, path)
        loaded = load_log(path)

        original_labels = label_parties(porn_log,
                                        cert_lookup=universe.certificate_for)
        loaded_labels = label_parties(loaded,
                                      cert_lookup=universe.certificate_for)
        assert original_labels.all_third_party_fqdns == \
            loaded_labels.all_third_party_fqdns

        assert analyze_cookies(porn_log).id_cookies == \
            analyze_cookies(loaded).id_cookies
        assert detect_cookie_sync(porn_log).pair_counts == \
            detect_cookie_sync(loaded).pair_counts


class TestFormatValidation:
    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_lines([])

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            parse_lines(['{"format": "something-else", "version": 1}'])

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            parse_lines(['{"format": "repro-crawl-log", "version": 99}'])

    def test_unknown_record_kind_rejected(self):
        lines = [
            '{"format": "repro-crawl-log", "version": 1, '
            '"country_code": "ES", "client_ip": "", "seq": 0}',
            '{"kind": "mystery"}',
        ]
        with pytest.raises(ValueError, match="unknown record kind"):
            parse_lines(lines)

    def test_blank_lines_tolerated(self):
        lines = [
            '{"format": "repro-crawl-log", "version": 1, '
            '"country_code": "ES", "client_ip": "", "seq": 0}',
            "",
            "   ",
        ]
        log = parse_lines(lines)
        assert log.country_code == "ES"
        # A header without site marks (files written before they were
        # kept) loads with none: analyses group the rows by site.
        assert log.site_marks == []

    def test_dump_lines_are_single_line_json(self, porn_log):
        import json

        for line in dump_lines(porn_log):
            assert "\n" not in line
            json.loads(line)
