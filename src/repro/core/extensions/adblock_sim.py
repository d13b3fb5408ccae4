"""Extension (§10) — effectiveness of blocklist-based anti-tracking.

The paper's conclusion warns that porn-specific trackers "might render
many anti-tracking technologies based on blacklists insufficient" and
proposes studying ad-blocker effectiveness as future work.  This module
runs that study: the same corpus is crawled with an EasyList/EasyPrivacy
content blocker enabled, and the residual tracking surface is compared
against the unprotected crawl.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Set

from ...browser.browser import Browser
from ...browser.events import CrawlLog
from ...crawler.vpn import client_for
from ...net.geo import VantagePoint
from ...net.url import registrable_domain
from ...webgen.universe import Universe
from ..ats import ATSClassifier
from ..cookie_analysis import MIN_ID_LENGTH
from ..fingerprinting import analyze_fingerprinting

__all__ = ["AdblockComparison", "crawl_with_adblocker", "compare_protection"]


@dataclass
class AdblockComparison:
    """Unprotected vs blocked crawl, side by side."""

    sites_crawled: int = 0
    requests_blocked: int = 0
    # Tracking surface without / with the blocker:
    baseline_third_party_cookies: int = 0
    protected_third_party_cookies: int = 0
    baseline_canvas_sites: Set[str] = field(default_factory=set)
    protected_canvas_sites: Set[str] = field(default_factory=set)
    baseline_tracker_domains: Set[str] = field(default_factory=set)
    protected_tracker_domains: Set[str] = field(default_factory=set)

    @property
    def cookie_reduction(self) -> float:
        if not self.baseline_third_party_cookies:
            return 0.0
        return 1.0 - (self.protected_third_party_cookies
                      / self.baseline_third_party_cookies)

    @property
    def canvas_reduction(self) -> float:
        if not self.baseline_canvas_sites:
            return 0.0
        return 1.0 - (len(self.protected_canvas_sites)
                      / len(self.baseline_canvas_sites))

    @property
    def surviving_tracker_fraction(self) -> float:
        """Trackers still contacting the browser despite the blocker."""
        if not self.baseline_tracker_domains:
            return 0.0
        return len(self.protected_tracker_domains) / \
            len(self.baseline_tracker_domains)


def crawl_with_adblocker(
    universe: Universe,
    vantage: VantagePoint,
    domains: Sequence[str],
    classifier: ATSClassifier,
) -> CrawlLog:
    """Crawl with an EasyList/EasyPrivacy blocker cancelling requests."""
    browser = Browser(
        universe,
        client_for(vantage),
        keep_html=False,
        request_filter=lambda url, page, rtype: classifier.matches_url(
            url, first_party_host=page, resource_type=rtype
        ),
    )
    for domain in domains:
        browser.visit(domain)
    log = browser.log
    # Stash the block counter on the log for reporting.
    log.blocked_requests = browser.blocked_requests  # type: ignore[attr-defined]
    return log


def _third_party_id_cookie_count(log: CrawlLog) -> int:
    seen = set()
    count = 0
    for cookie in log.cookies:
        key = (cookie.page_domain, cookie.domain, cookie.name, cookie.value)
        if key in seen:
            continue
        seen.add(key)
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        if registrable_domain(cookie.domain) != \
                registrable_domain(cookie.page_domain):
            count += 1
    return count


def _tracker_domains(log: CrawlLog) -> Set[str]:
    """Registrable domains that stored third-party ID cookies or ran
    fingerprinting scripts."""
    domains: Set[str] = set()
    for cookie in log.cookies:
        if cookie.session or len(cookie.value) < MIN_ID_LENGTH:
            continue
        base = registrable_domain(cookie.domain)
        if base != registrable_domain(cookie.page_domain):
            domains.add(base)
    report = analyze_fingerprinting(log.js_calls)
    domains.update(report.canvas_services())
    return domains


def compare_protection(
    universe: Universe,
    vantage: VantagePoint,
    domains: Sequence[str],
    *,
    baseline_log: CrawlLog,
    classifier: ATSClassifier,
) -> AdblockComparison:
    """Run the protected crawl and compare against the unprotected one."""
    protected = crawl_with_adblocker(universe, vantage, domains, classifier)
    comparison = AdblockComparison(sites_crawled=len(domains))
    comparison.requests_blocked = getattr(protected, "blocked_requests", 0)
    comparison.baseline_third_party_cookies = \
        _third_party_id_cookie_count(baseline_log)
    comparison.protected_third_party_cookies = \
        _third_party_id_cookie_count(protected)
    comparison.baseline_canvas_sites = \
        analyze_fingerprinting(baseline_log.js_calls).canvas_sites
    comparison.protected_canvas_sites = \
        analyze_fingerprinting(protected.js_calls).canvas_sites
    comparison.baseline_tracker_domains = _tracker_domains(baseline_log)
    comparison.protected_tracker_domains = _tracker_domains(protected)
    return comparison
