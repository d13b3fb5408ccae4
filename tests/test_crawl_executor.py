"""Tests for the parallel crawl executor and the fetch/parse caches."""

import pytest

from repro import Study
from repro.cache import BoundedCache, FetchCache, content_key
from repro.crawler.executor import (
    CrawlExecutionError,
    CrawlExecutor,
    CrawlSpec,
)
from repro.html.parser import parse_html, parse_html_cached
from repro.net.http import Request
from repro.net.url import parse_url
from repro.reporting.tables import render_table7
from repro.webgen.universe import ClientContext

COUNTRIES = ("ES", "RU", "US")


def _log_fingerprint(log):
    return (
        log.country_code,
        [(r.url, r.seq, r.status, r.failed, r.error) for r in log.requests],
        [(c.name, c.value, c.domain, c.seq) for c in log.cookies],
        [(v.site_domain, v.success, v.status, v.html) for v in log.visits],
        [(j.script_url, j.document_host, j.api) for j in log.js_calls],
    )


class TestExecutorDeterminism:
    def test_parallel_logs_equal_sequential(self, universe):
        sequential = Study(universe, parallelism=1)
        parallel = Study(universe, parallelism=4)
        geo_seq = sequential.geography(COUNTRIES)
        geo_par = parallel.geography(COUNTRIES)
        for country in COUNTRIES:
            assert _log_fingerprint(sequential.porn_log(country)) == \
                _log_fingerprint(parallel.porn_log(country)), country
        assert render_table7(geo_seq) == render_table7(geo_par)

    def test_parallel_derived_analyses_equal_sequential(self, universe):
        sequential = Study(universe, parallelism=1)
        parallel = Study(universe, parallelism=4)
        sequential.geography(COUNTRIES)
        parallel.geography(COUNTRIES)
        for country in COUNTRIES:
            assert sequential.porn_labels(country).third_party_direct == \
                parallel.porn_labels(country).third_party_direct
            assert sequential.porn_ats(country).ats_fqdns == \
                parallel.porn_ats(country).ats_fqdns
            assert sequential.malware(country).malicious_third_parties == \
                parallel.malware(country).malicious_third_parties

    def test_outcomes_follow_submission_order(self, universe, vantage_points,
                                              crawlable_porn):
        executor = CrawlExecutor(universe, vantage_points, parallelism=4)
        specs = [
            CrawlSpec(key=f"porn:{c}", country=c,
                      domains=tuple(crawlable_porn[:5]))
            for c in ("SG", "ES", "IN")
        ]
        outcomes = executor.run(specs)
        assert [o.key for o in outcomes] == ["porn:SG", "porn:ES", "porn:IN"]
        assert [o.country for o in outcomes] == ["SG", "ES", "IN"]


class TestExecutorFailures:
    def test_worker_crash_propagates_clearly(self, universe, vantage_points,
                                             crawlable_porn):
        executor = CrawlExecutor(universe, vantage_points, parallelism=4)
        specs = [
            CrawlSpec(key="porn:ES", country="ES",
                      domains=tuple(crawlable_porn[:3])),
            CrawlSpec(key="porn:BR", country="BR",  # no such vantage point
                      domains=tuple(crawlable_porn[:3])),
        ]
        with pytest.raises(CrawlExecutionError) as excinfo:
            executor.run(specs)
        assert excinfo.value.key == "porn:BR"
        assert excinfo.value.country == "BR"
        assert "KeyError" in str(excinfo.value)

    def test_thread_backend_crash_propagates(self, universe, vantage_points,
                                             crawlable_porn):
        executor = CrawlExecutor(universe, vantage_points, parallelism=2,
                                 backend="thread")
        specs = [
            CrawlSpec(key="bad", country="XX", domains=()),
            CrawlSpec(key="good", country="ES",
                      domains=tuple(crawlable_porn[:2])),
        ]
        with pytest.raises(CrawlExecutionError):
            executor.run(specs)

    def test_duplicate_keys_rejected(self, universe, vantage_points):
        executor = CrawlExecutor(universe, vantage_points, parallelism=2)
        spec = CrawlSpec(key="dup", country="ES", domains=())
        with pytest.raises(ValueError):
            executor.run([spec, spec])


class TestForkProgressTallies:
    def test_fork_backend_replays_event_counts(self, universe,
                                               vantage_points,
                                               crawlable_porn):
        """The process backend can't stream per-site callbacks out of its
        children; it must count them locally and replay the merged
        tallies as ``progress(event, count=N, ...)`` — previously the
        events were silently dropped and ``--stats`` read all zeros."""
        from collections import Counter

        domains = tuple(crawlable_porn[:4])
        replayed = []
        executor = CrawlExecutor(
            universe, vantage_points, parallelism=2, backend="process",
            progress=lambda event, **fields: replayed.append((event,
                                                              fields)))
        specs = [CrawlSpec(key=f"porn:{c}", country=c, domains=domains)
                 for c in ("ES", "US")]
        outcomes = executor.run(specs)
        for outcome in outcomes:
            assert outcome.event_counts["site_started"] == len(domains)
            assert outcome.event_counts["site_finished"] == len(domains)
        totals = Counter()
        for event, fields in replayed:
            totals[event] += fields.get("count", 1)
        assert totals["site_started"] == 2 * len(domains)
        assert totals["site_finished"] == 2 * len(domains)
        # Replayed events say which crawl they came from.
        assert {f["key"] for e, f in replayed if e == "site_finished"} == \
            {"porn:ES", "porn:US"}

    def test_serial_backend_fires_progress_live(self, universe,
                                                vantage_points,
                                                crawlable_porn):
        domains = tuple(crawlable_porn[:3])
        seen = []
        executor = CrawlExecutor(
            universe, vantage_points, parallelism=1,
            progress=lambda event, **fields: seen.append((event, fields)))
        executor.run([CrawlSpec(key="porn:ES", country="ES",
                                domains=domains)])
        finished = [f for e, f in seen if e == "site_finished"]
        assert len(finished) == len(domains)  # one live event per site
        assert all("count" not in f for f in finished)
        assert [f["domain"] for f in finished] == list(domains)


class TestSerialFallback:
    def test_parallelism_one_uses_serial_backend(self, universe,
                                                 vantage_points):
        executor = CrawlExecutor(universe, vantage_points, parallelism=1)
        assert executor._resolve_backend(spec_count=6) == "serial"

    def test_single_spec_uses_serial_backend(self, universe, vantage_points):
        executor = CrawlExecutor(universe, vantage_points, parallelism=8)
        assert executor._resolve_backend(spec_count=1) == "serial"

    def test_serial_run_matches_parallel_run(self, universe, vantage_points,
                                             crawlable_porn):
        domains = tuple(crawlable_porn[:8])
        spec = [CrawlSpec(key="porn:UK", country="UK", domains=domains)]
        serial = CrawlExecutor(universe, vantage_points, parallelism=1)
        threaded = CrawlExecutor(universe, vantage_points, parallelism=2,
                                 backend="thread")
        one = serial.run(list(spec))[0]
        # Force the pooled path with a second (dummy) spec.
        two = threaded.run(list(spec) + [
            CrawlSpec(key="porn:IN", country="IN", domains=domains)
        ])[0]
        assert _log_fingerprint(one.log) == _log_fingerprint(two.log)
        assert one.log.site_marks == two.log.site_marks

    def test_prefetch_noop_when_sequential(self, universe):
        study = Study(universe, parallelism=1)
        study.prefetch_crawls(["ES", "US"])
        assert not study._memoized("porn_log:ES")
        assert not study._memoized("porn_log:US")

    def test_empty_run(self, universe, vantage_points):
        executor = CrawlExecutor(universe, vantage_points, parallelism=4)
        assert executor.run([]) == []


class TestBannersShareCrawl:
    def test_banners_reuse_geography_crawl(self, universe):
        study = Study(universe, parallelism=1)
        log = study.porn_log("US")          # the §6 crawl for the US
        report = study.banners("US")        # §7.1 must not re-crawl
        assert study.porn_log("US") is log
        assert report.sites_checked == len(study.corpus_domains())

    def test_non_home_logs_keep_html(self, universe):
        study = Study(universe, parallelism=1)
        visits = study.porn_log("US").successful_visits()
        assert visits and any(v.html for v in visits)

    def test_banner_reports_batch(self, universe):
        study = Study(universe, parallelism=1)
        reports = study.banner_reports(["ES", "US"])
        assert set(reports) == {"ES", "US"}
        assert reports["ES"] is study.banners("ES")


class TestFetchCache:
    def test_identical_requests_hit_cache(self, universe):
        client = ClientContext("ES", "31.0.0.7")
        request = Request(parse_url("https://exosrv.com/px?cb=1"))
        before = universe.fetch_cache.stats.hits
        first = universe.fetch(request, client)
        second = universe.fetch(request, client)
        assert second is first
        assert universe.fetch_cache.stats.hits > before

    def test_deterministic_failures_cached(self, universe):
        dead = sorted(d for d, s in universe.porn_sites.items()
                      if not s.responsive)
        if not dead:
            pytest.skip("no dead sites at this scale")
        client = ClientContext("ES", "31.0.0.7")
        request = Request(parse_url(f"https://{dead[0]}/"))
        with pytest.raises(Exception) as first:
            universe.fetch(request, client)
        with pytest.raises(Exception) as second:
            universe.fetch(request, client)
        assert type(first.value) is type(second.value)

    def test_cache_exception_replay(self):
        cache = FetchCache()
        calls = []

        def boom():
            calls.append(1)
            raise ValueError("deterministic")

        for _ in range(3):
            with pytest.raises(ValueError):
                cache.fetch("k", boom)
        assert len(calls) == 1


class TestBoundedCache:
    def test_fifo_eviction(self):
        cache = BoundedCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_get_or_create_runs_factory_once(self):
        cache = BoundedCache()
        values = [cache.get_or_create("k", lambda: object()) for _ in range(3)]
        assert values[0] is values[1] is values[2]
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_invalid_maxsize(self):
        with pytest.raises(ValueError):
            BoundedCache(maxsize=0)


class TestParseCache:
    MARKUP = ("<html><body><div id='x'><script src='https://a.com/a.js'>"
              "</script><p>hello<p>world</div></body></html>")

    @staticmethod
    def _shape(element):
        return (element.tag, sorted(element.attrs.items()),
                [TestParseCache._shape(child) for child in element.children
                 if hasattr(child, "tag")])

    def test_cached_tree_matches_uncached(self):
        cached = parse_html_cached(self.MARKUP)
        plain = parse_html(self.MARKUP)
        assert self._shape(cached) == self._shape(plain)

    def test_same_markup_same_tree_instance(self):
        assert parse_html_cached(self.MARKUP) is parse_html_cached(self.MARKUP)

    def test_content_key_distinguishes_content(self):
        assert content_key("<p>a</p>") != content_key("<p>b</p>")
        assert content_key("<p>a</p>") == content_key("<p>a</p>")
