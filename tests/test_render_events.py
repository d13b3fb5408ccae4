"""Tests for page rendering and the crawl-log event model."""

import pytest

from repro.browser.events import CookieRecord, CrawlLog, PageVisit, RequestRecord
from repro.html.parser import parse_html
from repro.html.query import find_all, find_first, links, meta_tags
from repro.net.whois import PRIVACY_REDACTED, WhoisRegistry
from repro.webgen.policytext import PolicySpec
from repro.webgen.rank import RankTrajectory
from repro.webgen.render import (
    head_boilerplate,
    render_error_page,
    render_policy_page,
    render_porn_landing,
    render_regular_landing,
)
from repro.webgen.sites import AgeGateSpec, BannerSpec, PornSiteSpec, RegularSiteSpec


def trajectory():
    return RankTrajectory(
        best_rank=100, sigma=0.5, observed_best=100, observed_median=200,
        observed_worst=400, days_present=365, days_total=365,
    )


def porn_site(**overrides):
    spec = dict(domain="testsite.com", trajectory=trajectory(), language="en")
    spec.update(overrides)
    return PornSiteSpec(**spec)


class TestPornLanding:
    def render(self, site, **kwargs):
        defaults = dict(embeds=[], show_age_gate=False, show_banner=False,
                        policy_available=False)
        defaults.update(kwargs)
        return render_porn_landing(site, **defaults)

    def test_minimal_page_parses(self):
        root = parse_html(self.render(porn_site()))
        assert find_first(root, "nav") is not None
        assert find_first(root, "footer") is not None

    def test_age_gate_rendered_when_shown(self):
        site = porn_site(age_gate=AgeGateSpec(mode="button"))
        html = self.render(site, show_age_gate=True)
        root = parse_html(html)
        gate = find_first(root, predicate=lambda e: e.id == "age-gate")
        assert gate is not None
        assert gate.is_floating

    def test_age_gate_absent_when_not_shown(self):
        site = porn_site(age_gate=AgeGateSpec(mode="button"))
        html = self.render(site, show_age_gate=False)
        assert 'id="age-gate"' not in html

    def test_banner_language(self):
        site = porn_site(language="de",
                         banner=BannerSpec("confirmation"))
        html = self.render(site, show_banner=True)
        assert "verwendet Cookies" in html
        assert "Akzeptieren" in html

    def test_banner_policy_link_requires_policy(self):
        spec = PolicySpec(template_id=0, target_length=1100,
                          mentions_gdpr=False, discloses_cookies=True,
                          discloses_data_types=True,
                          discloses_third_parties=True)
        with_policy = self.render(
            porn_site(banner=BannerSpec("no_option"), policy=spec),
            show_banner=True, policy_available=True)
        without = self.render(
            porn_site(banner=BannerSpec("no_option")), show_banner=True)
        assert '<a href="/privacy">' in with_policy
        assert '<a href="/privacy">' not in without

    def test_subscription_cues(self):
        html = self.render(porn_site(subscription="paid"))
        assert "Log In" in html
        assert "$29.95" in html
        free = self.render(porn_site(subscription="free"))
        assert "free registration" in free
        none = self.render(porn_site())
        assert "Log In" not in none

    def test_embeds_rendered_by_kind(self):
        html = self.render(porn_site(), embeds=[
            ("script", "https://t.com/a.js"),
            ("img", "https://t.com/px"),
            ("iframe", "https://t.com/frame"),
            ("link", "https://t.com/x.css"),
        ])
        root = parse_html(html)
        assert find_first(root, "iframe").get("src") == "https://t.com/frame"
        assert any(s.get("src") == "https://t.com/a.js"
                   for s in find_all(root, "script"))

    def test_unknown_embed_kind_rejected(self):
        with pytest.raises(ValueError):
            self.render(porn_site(), embeds=[("video", "https://t.com/v")])

    def test_rta_label(self):
        html = self.render(porn_site(rta_label=True))
        assert "RTA-5042" in html

    def test_owner_head_boilerplate(self):
        owned = porn_site(owner="MindGeek")
        html = head_boilerplate(owned)
        assert "MindGeek Network CMS" in html
        assert 'content="MindGeek"' in html
        independent = head_boilerplate(porn_site())
        assert "Network CMS" not in independent

    def test_social_login_gate_has_no_plain_button(self):
        site = porn_site(language="ru",
                         age_gate=AgeGateSpec(mode="social_login"))
        html = self.render(site, show_age_gate=True)
        assert 'data-gate="social"' in html
        assert 'id="age-enter"' not in html


class TestOtherPages:
    def test_regular_landing(self):
        site = RegularSiteSpec(domain="news-site.com", trajectory=trajectory(),
                               category="sports")
        html = render_regular_landing(site, embeds=[])
        assert "sports" in html
        assert "porn" not in html.lower()

    def test_policy_page(self):
        html = render_policy_page("x.com", "First paragraph.\n\nSecond one.")
        root = parse_html(html)
        assert len(find_all(root, "p")) == 2

    def test_error_page(self):
        html = render_error_page(451, "Unavailable For Legal Reasons")
        assert "451" in html


class TestCrawlLogModel:
    def make_log(self, country="ES"):
        log = CrawlLog(country_code=country, client_ip="31.0.0.1")
        log.visits.append(PageVisit("a.com", "https://a.com/", True, 200))
        log.visits.append(PageVisit("b.com", "https://b.com/", False,
                                    failure_reason="SiteTimeoutError"))
        log.requests.append(RequestRecord(
            url="https://t.com/x", fqdn="t.com", scheme="https",
            page_domain="a.com", resource_type="script", initiator=None,
            referrer="https://a.com/", seq=log.next_seq(), status=200,
        ))
        log.cookies.append(CookieRecord(
            page_domain="a.com", set_by_host="t.com", domain="t.com",
            name="uid", value="v" * 12, session=False, secure=True,
            over_https=True, seq=log.next_seq(),
        ))
        return log

    def test_successful_visits(self):
        log = self.make_log()
        assert [v.site_domain for v in log.successful_visits()] == ["a.com"]

    def make_marked_log(self, *sites):
        """A crawl-shaped log: each site's marks, then its rows."""
        log = CrawlLog(client_ip="31.0.0.1")
        for site in sites:
            log.mark_site(site)
            log.visits.append(PageVisit(site, f"https://{site}/", True, 200))
            log.requests.append(RequestRecord(
                url="https://t.com/x", fqdn="t.com", scheme="https",
                page_domain=site, resource_type="script", initiator=None,
                referrer=f"https://{site}/", seq=log.next_seq(), status=200,
            ))
        return log

    def test_site_groups_cut_at_marks(self):
        log = self.make_marked_log("a.com", "b.com")
        groups = log.site_groups()
        assert [group.domain for group in groups] == ["a.com", "b.com"]
        assert groups[1].visits == [log.visits[1]]
        assert groups[1].requests == [log.requests[1]]
        assert groups[1].cookies == [] and groups[1].js_calls == []

    def test_site_groups_without_marks_group_by_site(self):
        log = self.make_log()
        log.requests.append(RequestRecord(
            url="https://t.com/y", fqdn="t.com", scheme="https",
            page_domain="b.com", resource_type="script", initiator=None,
            referrer="https://b.com/", seq=log.next_seq(), status=200,
        ))
        log.requests.append(RequestRecord(
            url="https://t.com/z", fqdn="t.com", scheme="https",
            page_domain="a.com", resource_type="script", initiator=None,
            referrer="https://a.com/", seq=log.next_seq(), status=200,
        ))
        groups = log.site_groups()
        assert [group.domain for group in groups] == ["a.com", "b.com"]
        assert groups[0].requests == [log.requests[0], log.requests[2]]
        assert groups[0].cookies == log.cookies
        assert groups[1].requests == [log.requests[1]]

    def test_request_ok_semantics(self):
        record = RequestRecord(url="https://x.com/", fqdn="x.com",
                               scheme="https", page_domain="x.com",
                               resource_type="document", initiator=None,
                               referrer=None, status=404)
        assert not record.ok
        record.status = 302
        record.redirect_location = "https://y.com/"
        assert record.ok and record.is_redirect


class TestWhoisRegistry:
    def test_register_and_lookup(self):
        registry = WhoisRegistry()
        registry.register("ads.example.com", organization="Example Media")
        assert registry.organization_of("sub.example.com") == "Example Media"

    def test_redacted_by_default(self):
        registry = WhoisRegistry()
        record = registry.register("hidden.com")
        assert record.is_redacted
        assert registry.organization_of("hidden.com") is None

    def test_unknown_domain(self):
        assert WhoisRegistry().lookup("ghost.net") is None

    def test_query_counter(self):
        registry = WhoisRegistry()
        registry.register("a.com", organization="A")
        registry.lookup("a.com")
        registry.lookup("b.com")
        assert registry.query_count == 2

    def test_redaction_constant(self):
        registry = WhoisRegistry()
        record = registry.register("x.com", organization=PRIVACY_REDACTED)
        assert record.is_redacted
