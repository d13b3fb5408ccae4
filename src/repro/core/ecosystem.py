"""Section 4.2 — the porn third-party ecosystem versus the regular web.

Produces Table 2 (first/third-party/ATS counts and intersections),
Table 3 (third-party presence per popularity tier, with per-tier unique
domains and the all-tier core), and Figure 3 (top organizations by
prevalence in each ecosystem).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from ..net.url import registrable_domain
from ..webgen.config import TIER_NAMES
from .ats import ATSResult
from .attribution import AttributionResult
from .partylabel import PartyLabels
from .popularity import PopularityReport

__all__ = [
    "Table2",
    "TierRow",
    "Table3",
    "OrganizationPrevalence",
    "build_table2",
    "build_table3",
    "build_figure3",
]


@dataclass(frozen=True)
class Table2:
    """Table 2: domain counts per ecosystem."""

    porn_corpus: int
    regular_corpus: int
    porn_first_party: int
    regular_first_party: int
    porn_third_party: int
    regular_third_party: int
    fqdn_intersection: int
    porn_ats: int
    regular_ats: int
    ats_intersection: int

    @property
    def porn_ats_fraction(self) -> float:
        return self.porn_ats / self.porn_third_party if self.porn_third_party else 0.0

    @property
    def regular_ats_fraction(self) -> float:
        return self.regular_ats / self.regular_third_party \
            if self.regular_third_party else 0.0

    @property
    def porn_only_ats_fraction(self) -> float:
        """Fraction of porn ATSes absent from the regular web (the 84%)."""
        if not self.porn_ats:
            return 0.0
        return 1.0 - self.ats_intersection / self.porn_ats


def build_table2(
    *,
    porn_labels: PartyLabels,
    regular_labels: PartyLabels,
    porn_ats: ATSResult,
    regular_ats: ATSResult,
    porn_visited: int,
    regular_visited: int,
) -> Table2:
    porn_third = porn_labels.all_third_party_fqdns
    regular_third = regular_labels.all_third_party_fqdns
    porn_ats_set = porn_ats.ats_fqdns & porn_third
    regular_ats_set = regular_ats.ats_fqdns & regular_third
    # Intersections are computed at the registrable-domain level: the same
    # service often serves different hostnames to the two ecosystems.
    porn_bases = {registrable_domain(f) for f in porn_third}
    regular_bases = {registrable_domain(f) for f in regular_third}
    porn_ats_bases = {registrable_domain(f) for f in porn_ats_set}
    regular_ats_bases = {registrable_domain(f) for f in regular_ats_set}
    return Table2(
        porn_corpus=porn_visited,
        regular_corpus=regular_visited,
        porn_first_party=len(porn_labels.all_first_party_fqdns),
        regular_first_party=len(regular_labels.all_first_party_fqdns),
        porn_third_party=len(porn_third),
        regular_third_party=len(regular_third),
        fqdn_intersection=len(porn_bases & regular_bases),
        porn_ats=len(porn_ats_set),
        regular_ats=len(regular_ats_set),
        ats_intersection=len(porn_ats_bases & regular_ats_bases),
    )


@dataclass(frozen=True)
class TierRow:
    """One Table 3 row."""

    interval: str
    site_count: int
    third_party_total: int
    third_party_unique: int


@dataclass
class Table3:
    rows: List[TierRow]
    all_tier_domains: Set[str]

    @property
    def all_tier_fraction(self) -> float:
        total = len({d for row_set in self._tier_sets for d in row_set})
        return len(self.all_tier_domains) / total if total else 0.0

    _tier_sets: List[Set[str]] = field(default_factory=list)


def build_table3(
    porn_labels: PartyLabels, popularity: PopularityReport
) -> Table3:
    tier_of_page: Dict[str, int] = {
        site.domain: site.tier for site in popularity.sites
    }
    tier_fqdns: List[Set[str]] = [set(), set(), set(), set()]
    tier_sites: List[int] = [0, 0, 0, 0]
    for site in popularity.sites:
        tier_sites[site.tier] += 1
    for page, fqdns in porn_labels.third_party_direct.items():
        tier = tier_of_page.get(page)
        if tier is None:
            continue
        tier_fqdns[tier] |= fqdns
    rows = []
    for tier in range(4):
        others: Set[str] = set()
        for other_tier in range(4):
            if other_tier != tier:
                others |= tier_fqdns[other_tier]
        rows.append(
            TierRow(
                interval=TIER_NAMES[tier],
                site_count=tier_sites[tier],
                third_party_total=len(tier_fqdns[tier]),
                third_party_unique=len(tier_fqdns[tier] - others),
            )
        )
    all_tier = tier_fqdns[0] & tier_fqdns[1] & tier_fqdns[2] & tier_fqdns[3]
    table = Table3(rows=rows, all_tier_domains=all_tier)
    table._tier_sets = tier_fqdns
    return table


@dataclass(frozen=True)
class OrganizationPrevalence:
    """One Figure 3 bar: an organization's reach in each ecosystem."""

    organization: str
    porn_fraction: float
    regular_fraction: float
    porn_sites: int
    regular_sites: int


def _org_site_counts(
    labels: PartyLabels, attribution: AttributionResult
) -> Dict[str, Set[str]]:
    sites_of_org: Dict[str, Set[str]] = {}
    for page, fqdns in labels.third_party_direct.items():
        for fqdn in fqdns:
            organization = attribution.organization_of.get(fqdn)
            if organization is not None:
                sites_of_org.setdefault(organization, set()).add(page)
    return sites_of_org


def build_figure3(
    *,
    porn_labels: PartyLabels,
    regular_labels: PartyLabels,
    porn_attribution: AttributionResult,
    regular_attribution: AttributionResult,
    porn_visited: int,
    regular_visited: int,
    top_n: int = 19,
) -> List[OrganizationPrevalence]:
    """Most prevalent third-party organizations in the porn ecosystem."""
    porn_orgs = _org_site_counts(porn_labels, porn_attribution)
    regular_orgs = _org_site_counts(regular_labels, regular_attribution)
    ranked = sorted(porn_orgs.items(), key=lambda item: -len(item[1]))[:top_n]
    bars = []
    for organization, porn_pages in ranked:
        regular_pages = regular_orgs.get(organization, set())
        bars.append(
            OrganizationPrevalence(
                organization=organization,
                porn_fraction=len(porn_pages) / porn_visited if porn_visited else 0.0,
                regular_fraction=(
                    len(regular_pages) / regular_visited if regular_visited else 0.0
                ),
                porn_sites=len(porn_pages),
                regular_sites=len(regular_pages),
            )
        )
    return bars
