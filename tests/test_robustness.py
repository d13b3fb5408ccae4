"""Failure injection and empty-input robustness for every analysis."""

import pytest

from repro.browser.events import CrawlLog
from repro.core.ats import ATSClassifier
from repro.core.business import classify_business_models
from repro.core.compliance.banners import analyze_banners, detect_banner
from repro.core.compliance.policies import analyze_policies
from repro.core.cookie_analysis import analyze_cookies
from repro.core.cookie_sync import detect_cookie_sync
from repro.core.fingerprinting import analyze_fingerprinting
from repro.core.https_analysis import analyze_https
from repro.core.malware import analyze_malware
from repro.core.partylabel import PartyLabels, label_parties
from repro.core.popularity import PopularityReport
from repro.html.parser import parse_html


class TestEmptyInputs:
    def test_empty_log_everywhere(self):
        log = CrawlLog()
        labels = label_parties(log)
        assert labels.all_third_party_fqdns == set()
        stats = analyze_cookies(log)
        assert stats.total_cookies == 0
        assert stats.sites_with_cookies_fraction == 0.0
        sync = detect_cookie_sync(log)
        assert sync.pair_count == 0
        assert sync.coverage_of([]) == 0.0
        fingerprinting = analyze_fingerprinting([])
        assert fingerprinting.unlisted_canvas_fraction() == 0.0
        https = analyze_https(log, labels, PopularityReport([]))
        assert https.not_fully_https_fraction == 0.0
        malware = analyze_malware(log, labels, lambda domain: 0)
        assert not malware.malicious_sites
        banners = analyze_banners(log)
        assert banners.total_fraction == 0.0

    def test_empty_policy_analysis(self):
        report = analyze_policies([], corpus_size=0)
        assert report.presence_fraction == 0.0
        assert report.similar_pair_fraction == 0.0
        assert report.mean_letters == 0.0

    def test_empty_business_classification(self):
        report = classify_business_models([])
        assert report.subscription_fraction == 0.0
        assert report.paid_fraction_of_subscriptions == 0.0

    def test_empty_filter_lists(self):
        classifier = ATSClassifier.from_texts("", "! only comments")
        assert not classifier.matches_url("https://anything.com/x")
        assert not classifier.matches_domain("anything.com")
        result = classifier.classify_log(CrawlLog())
        assert result.fqdn_count == 0


class TestMalformedInputs:
    def test_banner_detector_on_garbage_html(self):
        assert detect_banner("<<<<not html at all >>>") is None
        assert detect_banner("") is None

    def test_parser_never_raises(self):
        for markup in ("", "<", "<div", "</nope>", "<a href=>",
                       "<script>raw < text</script>", "\x00\x01"):
            parse_html(markup)

    def test_sync_detector_on_invalid_urls(self):
        from repro.browser.events import CookieRecord, RequestRecord

        log = CrawlLog()
        log.cookies.append(CookieRecord(
            page_domain="p.com", set_by_host="o.com", domain="o.com",
            name="uid", value="v" * 12, session=False, secure=True,
            over_https=True, seq=1,
        ))
        log.requests.append(RequestRecord(
            url="not-a-valid-url::", fqdn="", scheme="", page_domain="p.com",
            resource_type="image", initiator=None, referrer=None, seq=2,
        ))
        assert detect_cookie_sync(log).pair_count == 0

    def test_party_label_with_bad_referrer(self):
        from repro.browser.events import RequestRecord

        log = CrawlLog()
        log.requests.append(RequestRecord(
            url="https://tracker-net.com/x.js", fqdn="tracker-net.com",
            scheme="https", page_domain="bigporn-page.com",
            resource_type="script", initiator=None,
            referrer=":::garbage:::", seq=1, status=200,
        ))
        labels = label_parties(log)
        # Unparseable referrer -> conservatively treated as dynamic.
        assert "tracker-net.com" in labels.all_dynamic_fqdns

    def test_cookie_analysis_with_exotic_values(self):
        from repro.browser.events import CookieRecord, PageVisit

        log = CrawlLog(client_ip="31.0.0.1")
        log.visits.append(PageVisit("p.com", "https://p.com/", True))
        for value in ("\x00\x01\x02binary", "=" * 40, "🍪" * 10, " " * 20):
            log.cookies.append(CookieRecord(
                page_domain="p.com", set_by_host="t.com", domain="t.com",
                name="odd", value=value, session=False, secure=True,
                over_https=True, seq=log.next_seq(),
            ))
        stats = analyze_cookies(log)  # must not raise
        assert stats.total_cookies >= 1


class TestCrawlFailureHandling:
    def test_dead_universe_site_produces_failed_visit(self, universe,
                                                      vantage_points):
        from repro.browser.browser import Browser
        from repro.crawler.vpn import client_for

        browser = Browser(universe, client_for(vantage_points.home))
        visit = browser.visit("no-such-site-anywhere.example")
        assert not visit.success
        assert visit.failure_reason == "NXDOMAIN"

    def test_analysis_tolerates_partial_crawl(self, universe, vantage_points,
                                              crawlable_porn):
        """A crawl mixing live, flaky, and dead sites still analyzes."""
        from repro.crawler.openwpm import OpenWPMCrawler

        dead = [d for d, s in universe.porn_sites.items()
                if not s.responsive][:2]
        flaky = [d for d, s in universe.porn_sites.items()
                 if s.responsive and s.crawl_flaky][:2]
        crawler = OpenWPMCrawler(universe, vantage_points.home)
        log = crawler.crawl(crawlable_porn[:5] + dead + flaky)
        labels = label_parties(log, cert_lookup=universe.certificate_for)
        stats = analyze_cookies(log)
        assert stats.sites_visited == 5
        assert labels.all_third_party_fqdns


class TestCrossAnalysisConsistency:
    """Different analyses over the same crawl must agree with each other."""

    def test_banner_sites_within_corpus(self, study):
        corpus = set(study.corpus_domains())
        for observation in study.banners("ES").observations:
            assert observation.site_domain in corpus

    def test_sync_origins_are_cookie_setters_or_sites(self, study, universe):
        sync = study.cookie_sync()
        cookie_domains = {
            c.domain for c in study.porn_log().cookies
        }
        from repro.net.url import registrable_domain

        cookie_bases = {registrable_domain(d) for d in cookie_domains}
        for origin in sync.origins:
            assert origin in cookie_bases

    def test_fingerprinting_sites_were_crawled(self, study):
        crawled = {v.site_domain for v in study.porn_log().successful_visits()}
        assert study.fingerprinting().canvas_sites <= crawled

    def test_https_rows_cover_crawled_sites(self, study):
        report = study.https_report()
        total = sum(row.site_count for row in report.rows)
        assert total == len(study.porn_log().successful_visits())

    def test_malware_affected_sites_embed_flagged_domains(self, study):
        malware = study.malware()
        labels = study.porn_labels()
        from repro.net.url import registrable_domain

        for site, domains in \
                malware.sites_with_malicious_third_parties.items():
            embedded = {registrable_domain(f)
                        for f in labels.third_parties_of(site)}
            assert domains <= embedded

    def test_table2_and_table3_consistent(self, study):
        table2 = study.table2()
        table3 = study.table3()
        union = set()
        for row_set in table3._tier_sets:
            union |= row_set
        assert len(union) == table2.porn_third_party


class TestHostileConfig:
    """Out-of-range universe knobs fail fast with a clear error."""

    @pytest.mark.parametrize("knobs", [
        {"scale": float("nan")},
        {"scale": float("inf")},
        {"scale": 0.0},
        {"scale": -0.5},
        {"scale": 4.01},
        {"scale": 1e6},
        {"churn": float("nan")},
        {"churn": -3.0},
        {"churn": 1.5},
        {"epoch": -1},
    ])
    def test_config_rejects(self, knobs):
        from repro import UniverseConfig

        with pytest.raises(ValueError):
            UniverseConfig(**knobs)

    def test_config_accepts_the_bounds(self):
        from repro import UniverseConfig

        UniverseConfig(scale=4.0, churn=0.0, epoch=0)
        UniverseConfig(scale=1e-3, churn=1.0, epoch=3)

    @pytest.mark.parametrize("flags, message", [
        (["--scale", "nan"], "scale must be"),
        (["--scale", "1e6"], "scale must be"),
        (["--churn", "-3"], "churn must be"),
        (["--epoch", "-1"], "epoch must be"),
    ])
    def test_cli_reports_a_usage_error(self, flags, message, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["corpus"] + flags)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_aggregate_cache_without_store_is_rejected(self, universe,
                                                       tmp_path):
        from repro import Study
        from repro.datastore import AggregateStore

        path = tmp_path / "cache.sqlite"
        for cache in (True, str(path), path):
            with pytest.raises(ValueError, match="requires a store"):
                Study(universe, aggregate_cache=cache)
        assert not path.exists()   # rejected before anything was opened
        with AggregateStore(str(tmp_path / "open.sqlite")) as handle:
            with pytest.raises(ValueError, match="requires a store"):
                Study(universe, aggregate_cache=handle)
