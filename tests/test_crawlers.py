"""Integration tests for the OpenWPM-style and Selenium-style crawlers."""

import pytest

from repro import UniverseConfig
from repro.browser import Browser
from repro.core.corpus import compile_candidates, sanitize_verdict
from repro.crawler.openwpm import OpenWPMCrawler
from repro.crawler.selenium import SeleniumCrawler, find_age_gate_button
from repro.crawler.vpn import VantagePointManager, client_for
from repro.html.parser import parse_html
from repro.webgen import build_universe

from .conftest import SEED
from .reference import full_page_loads


class TestVantagePoints:
    def test_default_manager_has_six_countries(self, vantage_points):
        assert len(vantage_points) == 6
        assert set(vantage_points.country_codes) == \
            {"ES", "US", "UK", "RU", "IN", "SG"}

    def test_home_is_physical_spain(self, vantage_points):
        assert vantage_points.home.country_code == "ES"
        assert not vantage_points.home.via_vpn

    def test_unknown_country_raises(self, vantage_points):
        with pytest.raises(KeyError):
            vantage_points.point("BR")

    def test_client_epoch(self, vantage_points):
        client = vantage_points.client("RU", epoch="sanitization")
        assert client.country_code == "RU"
        assert client.epoch == "sanitization"

    def test_duplicate_countries_rejected(self, vantage_points):
        point = vantage_points.point("ES")
        with pytest.raises(ValueError):
            VantagePointManager([point, point])


class TestOpenWPM:
    def test_crawl_visits_every_domain(self, universe, vantage_points,
                                        crawlable_porn):
        crawler = OpenWPMCrawler(universe, vantage_points.home)
        log = crawler.crawl(crawlable_porn[:15])
        assert len(log.visits) == 15
        assert all(v.success for v in log.visits)

    def test_flaky_sites_fail_in_main_crawl(self, universe, vantage_points):
        flaky = sorted(d for d, s in universe.porn_sites.items()
                       if s.responsive and s.crawl_flaky)
        if not flaky:
            pytest.skip("no flaky sites at this scale")
        crawler = OpenWPMCrawler(universe, vantage_points.home)
        log = crawler.crawl(flaky[:3])
        assert all(not v.success for v in log.visits)

    def test_single_session_shared_log(self, universe, vantage_points,
                                       crawlable_porn):
        crawler = OpenWPMCrawler(universe, vantage_points.home)
        first = crawler.crawl(crawlable_porn[:3])
        combined = crawler.crawl(crawlable_porn[3:6], log=first)
        assert combined is first
        assert len(combined.visits) == 6

    def test_log_carries_vantage_metadata(self, universe, vantage_points,
                                          crawlable_porn):
        crawler = OpenWPMCrawler(universe, vantage_points.point("RU"))
        log = crawler.crawl(crawlable_porn[:2])
        assert log.country_code == "RU"
        assert log.client_ip.startswith("77.")


class TestSeleniumGateDetection:
    def test_button_gate_detected_and_bypassed(self, universe, vantage_points):
        gated = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky and s.age_gate is not None
            and s.age_gate.mode == "button" and s.age_gate.countries is None
        )
        crawler = SeleniumCrawler(universe, vantage_points.home)
        inspection = crawler.inspect(gated[0])
        assert inspection.age_gate.detected
        assert inspection.age_gate.clicked
        assert inspection.age_gate.bypassed

    def test_ungated_site_not_flagged(self, universe, vantage_points):
        plain = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky and s.age_gate is None
        )
        crawler = SeleniumCrawler(universe, vantage_points.home)
        inspection = crawler.inspect(plain[0])
        assert not inspection.age_gate.detected

    def test_social_login_gate_not_bypassable(self, universe, vantage_points):
        social = next(
            (d for d, s in universe.porn_sites.items()
             if s.age_gate is not None and s.age_gate.mode == "social_login"),
            None,
        )
        if social is None:
            pytest.skip("no social-login gate at this scale")
        crawler = SeleniumCrawler(universe, vantage_points.point("RU"))
        inspection = crawler.inspect(social)
        assert inspection.age_gate.detected
        assert inspection.age_gate.requires_login
        assert not inspection.age_gate.bypassed

    def test_keyword_in_body_text_is_not_a_gate(self):
        # Plain keyword matching would flag this; ancestor verification
        # must not.
        html = """
        <html><body>
          <p>Enter the world of free movies. Click accept below.</p>
          <button>accept</button>
        </body></html>
        """
        assert find_age_gate_button(parse_html(html)) is None

    def test_floating_overlay_with_warning_is_a_gate(self):
        html = """
        <html><body>
          <div style="position:fixed"><div>
            <h2>You must be 18 years or older to view adult content.</h2>
            <button>Enter</button>
          </div></div>
        </body></html>
        """
        button = find_age_gate_button(parse_html(html))
        assert button is not None
        assert button.own_text() == "Enter"


class TestSeleniumPolicies:
    def test_policy_fetched(self, universe, vantage_points):
        with_policy = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky and s.policy is not None
            and not s.policy.link_broken
        )
        crawler = SeleniumCrawler(universe, vantage_points.home)
        inspection = crawler.inspect(with_policy[0])
        assert inspection.policy.link_found
        assert inspection.policy.fetched_ok
        assert inspection.policy.letter_count > 500

    def test_broken_policy_link_yields_error_status(self, universe,
                                                    vantage_points):
        broken = next(
            (d for d, s in universe.porn_sites.items()
             if s.responsive and not s.crawl_flaky and s.policy is not None
             and s.policy.link_broken and s.banner is not None),
            None,
        )
        if broken is None:
            pytest.skip("no broken-link site with banner at this scale")
        crawler = SeleniumCrawler(universe, vantage_points.home)
        inspection = crawler.inspect(broken)
        if inspection.policy.link_found:
            assert inspection.policy.status == 404

    def test_subscription_cues_detected(self, universe, vantage_points):
        paid = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky and s.subscription == "paid"
        )
        crawler = SeleniumCrawler(universe, vantage_points.home)
        inspection = crawler.inspect(paid[0])
        assert inspection.has_account_option
        assert inspection.has_payment_cue

    def test_rta_label_detected(self, universe, vantage_points):
        labeled = sorted(
            d for d, s in universe.porn_sites.items()
            if s.responsive and not s.crawl_flaky and s.rta_label
        )
        crawler = SeleniumCrawler(universe, vantage_points.home)
        assert crawler.inspect(labeled[0]).rta_labeled


class TestDocumentLoads:
    """The sanitize and Selenium passes load documents only; every
    result must equal the one full page loads give."""

    COUNTRIES = ("ES", "US", "RU")  # RU is served the 451 pages

    @pytest.fixture(scope="class")
    def small_universe(self):
        return build_universe(UniverseConfig(seed=SEED, scale=0.02))

    @pytest.mark.parametrize("epoch", ["sanitization", "crawl"])
    def test_document_load_equals_full_visit(self, small_universe,
                                             vantage_points, epoch):
        statuses = set()
        for country in self.COUNTRIES:
            client = client_for(vantage_points.point(country), epoch=epoch)
            for path in ("/", "/?verified=1"):
                for domain in sorted(small_universe.porn_sites):
                    document = Browser(small_universe, client).load_document(
                        domain, path=path)
                    full = Browser(small_universe, client).visit(
                        domain, path=path)
                    assert document == full, (country, domain)
                    statuses.add(full.status)
        assert {200, 451, None} <= statuses

    def test_sanitize_verdicts_equal_full_loads(self, small_universe,
                                                vantage_points):
        domains = compile_candidates(small_universe).domains
        for country in self.COUNTRIES:
            client = client_for(vantage_points.point(country),
                                epoch="sanitization")
            verdicts = [sanitize_verdict(small_universe, client, domain)
                        for domain in domains]
            with full_page_loads():
                expected = [sanitize_verdict(small_universe, client, domain)
                            for domain in domains]
            assert verdicts == expected, country
            assert len(set(verdicts)) == 3

    def test_inspections_equal_full_loads(self, small_universe,
                                          vantage_points):
        domains = sorted(small_universe.porn_sites)
        for country in self.COUNTRIES:
            crawler = SeleniumCrawler(small_universe,
                                      vantage_points.point(country))
            rows = [crawler.inspect(domain).to_row() for domain in domains]
            with full_page_loads():
                expected = [crawler.inspect(domain).to_row()
                            for domain in domains]
            assert rows == expected, country
            assert any(row[2][0] for row in rows)  # an age gate seen
