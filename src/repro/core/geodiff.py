"""Section 6 / Table 7 — geographical differences.

The same corpus is crawled from every vantage point; this module compares
the per-country sets of directly embedded third-party FQDNs, ATSes, the
country-unique populations, overlap with the regular web ecosystem, plus
per-country malware presence and site blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..net.url import registrable_domain
from .ats import ATSResult
from .malware import MalwareReport
from .partylabel import PartyLabels

__all__ = ["CountryObservation", "CountryRow", "GeoReport", "analyze_geography"]


@dataclass
class CountryObservation:
    """Inputs for one vantage point.

    ``blocked`` counts the crawl's blocked visits (the ``blocked`` field
    of :func:`~repro.core.mapmerge.map_visits`, summed over the run).
    """

    blocked: int
    labels: PartyLabels
    ats: ATSResult
    malware: Optional[MalwareReport] = None


@dataclass(frozen=True)
class CountryRow:
    """One Table 7 row."""

    country: str
    fqdn_count: int
    web_ecosystem_fraction: float
    unique_fqdns: int
    ats_count: int
    unique_ats: int
    blocked_sites: int


@dataclass
class GeoReport:
    rows: List[CountryRow] = field(default_factory=list)
    total_fqdns: int = 0
    total_unique: int = 0
    total_ats: int = 0
    total_unique_ats: int = 0
    #: country -> malicious third-party domains observed there.
    malicious_domains: Dict[str, Set[str]] = field(default_factory=dict)
    #: country -> porn sites hosting malicious content there.
    malicious_sites: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def malicious_domains_everywhere(self) -> Set[str]:
        sets = list(self.malicious_domains.values())
        if not sets:
            return set()
        common = set(sets[0])
        for entry in sets[1:]:
            common &= entry
        return common

    @property
    def malicious_sites_everywhere(self) -> Set[str]:
        sets = list(self.malicious_sites.values())
        if not sets:
            return set()
        common = set(sets[0])
        for entry in sets[1:]:
            common &= entry
        return common


def analyze_geography(
    observations: Dict[str, CountryObservation],
    *,
    regular_web_fqdns: Set[str],
) -> GeoReport:
    """Build Table 7 from per-country crawl observations."""
    report = GeoReport()
    per_country_fqdns: Dict[str, Set[str]] = {}
    per_country_ats: Dict[str, Set[str]] = {}
    regular_bases = {registrable_domain(f) for f in regular_web_fqdns}

    for country, observation in observations.items():
        per_country_fqdns[country] = set(observation.labels.all_third_party_fqdns)
        per_country_ats[country] = {
            fqdn for fqdn in observation.ats.ats_fqdns
            if fqdn in per_country_fqdns[country]
        }

    for country, observation in observations.items():
        fqdns = per_country_fqdns[country]
        ats = per_country_ats[country]
        others: Set[str] = set()
        other_ats: Set[str] = set()
        for other_country, other_fqdns in per_country_fqdns.items():
            if other_country != country:
                others |= other_fqdns
                other_ats |= per_country_ats[other_country]
        in_web = sum(
            1 for fqdn in fqdns if registrable_domain(fqdn) in regular_bases
        )
        report.rows.append(
            CountryRow(
                country=country,
                fqdn_count=len(fqdns),
                web_ecosystem_fraction=in_web / len(fqdns) if fqdns else 0.0,
                unique_fqdns=len(fqdns - others),
                ats_count=len(ats),
                unique_ats=len(ats - other_ats),
                blocked_sites=observation.blocked,
            )
        )
        if observation.malware is not None:
            report.malicious_domains[country] = set(
                observation.malware.malicious_third_parties
            )
            report.malicious_sites[country] = set(
                observation.malware.sites_with_malicious_third_parties
            )

    all_fqdns: Set[str] = set()
    all_ats: Set[str] = set()
    for fqdns in per_country_fqdns.values():
        all_fqdns |= fqdns
    for ats in per_country_ats.values():
        all_ats |= ats
    report.total_fqdns = len(all_fqdns)
    report.total_ats = len(all_ats)
    report.total_unique = sum(row.unique_fqdns for row in report.rows)
    report.total_unique_ats = sum(row.unique_ats for row in report.rows)
    return report
