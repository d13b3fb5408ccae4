"""Section 7.2 — age-verification mechanisms on the top-50 porn sites.

The interaction crawler inspects each site from several countries,
detects age gates (keyword + ancestor verification), attempts to click
through them, and records whether the gate was bypassable — the paper's
operational test of whether a mechanism is "verifiable" (if the crawler
passes, a child could too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ...crawler.selenium import SeleniumCrawler, SiteInspection
from ...crawler.vpn import VantagePointManager
from ...webgen.universe import Universe

__all__ = ["CountryGateSummary", "AgeVerificationReport", "study_age_verification"]


@dataclass
class CountryGateSummary:
    """Age-gate observations from one country."""

    country: str
    inspected: int = 0
    gated_sites: Set[str] = field(default_factory=set)
    bypassed_sites: Set[str] = field(default_factory=set)
    login_required_sites: Set[str] = field(default_factory=set)

    @property
    def gate_fraction(self) -> float:
        return len(self.gated_sites) / self.inspected if self.inspected else 0.0

    @property
    def bypass_fraction(self) -> float:
        """Of gated sites, how many the crawler passed (non-verifiable)."""
        if not self.gated_sites:
            return 0.0
        return len(self.bypassed_sites) / len(self.gated_sites)


@dataclass
class AgeVerificationReport:
    """Cross-country comparison over the same top-N sites."""

    sites: List[str] = field(default_factory=list)
    by_country: Dict[str, CountryGateSummary] = field(default_factory=dict)

    def gated_in(self, country: str) -> Set[str]:
        summary = self.by_country.get(country)
        return set(summary.gated_sites) if summary else set()

    def consistent_countries(self, countries: Sequence[str]) -> bool:
        """True when the given countries saw the identical gated site set."""
        sets = [frozenset(self.gated_in(country)) for country in countries]
        return len(set(sets)) <= 1

    def only_in(self, country: str, *, others: Sequence[str]) -> Set[str]:
        """Sites gated in ``country`` but in none of ``others``."""
        gated = self.gated_in(country)
        for other in others:
            gated -= self.gated_in(other)
        return gated

    def missing_in(self, country: str, *, others: Sequence[str]) -> Set[str]:
        """Sites gated in every other country but not in ``country``."""
        if not others:
            return set()
        common = self.gated_in(others[0])
        for other in others[1:]:
            common &= self.gated_in(other)
        return common - self.gated_in(country)


def study_age_verification(
    universe: Universe,
    top_sites: Sequence[str],
    *,
    countries: Sequence[str] = ("US", "UK", "ES", "RU"),
    vantage_points: Optional[VantagePointManager] = None,
) -> AgeVerificationReport:
    """Inspect the top sites from each requested country."""
    manager = vantage_points or VantagePointManager()
    report = AgeVerificationReport(sites=list(top_sites))
    for country in countries:
        crawler = SeleniumCrawler(universe, manager.point(country))
        summary = CountryGateSummary(country=country)
        for domain in top_sites:
            inspection: SiteInspection = crawler.inspect(domain)
            if not inspection.reachable:
                continue
            summary.inspected += 1
            gate = inspection.age_gate
            if not gate.detected:
                continue
            summary.gated_sites.add(domain)
            if gate.bypassed:
                summary.bypassed_sites.add(domain)
            if gate.requires_login:
                summary.login_required_sites.add(domain)
        report.by_country[country] = summary
    return report
