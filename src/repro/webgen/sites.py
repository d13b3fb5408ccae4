"""Website models: ground-truth specifications for porn and regular sites.

A site spec is everything the synthetic server needs to render the site's
landing page and ancillary pages deterministically, and everything the
evaluation needs as ground truth (never read by the analysis pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from .policytext import PolicySpec
from .rank import RankTrajectory

__all__ = [
    "BannerSpec",
    "AgeGateSpec",
    "PornSiteSpec",
    "RegularSiteSpec",
    "BANNER_TYPES",
    "DISCOVERY_AGGREGATOR",
    "DISCOVERY_ALEXA_CATEGORY",
    "DISCOVERY_KEYWORD",
    "banner_to_row",
    "banner_from_row",
    "age_gate_to_row",
    "age_gate_from_row",
]

#: Degeling et al. banner taxonomy as used in Table 8.
BANNER_TYPES = ("no_option", "confirmation", "binary", "slider", "checkbox")

DISCOVERY_AGGREGATOR = "aggregator"
DISCOVERY_ALEXA_CATEGORY = "alexa_category"
DISCOVERY_KEYWORD = "keyword"


@dataclass(frozen=True)
class BannerSpec:
    """A cookie-consent banner shown on the landing page."""

    banner_type: str  # one of BANNER_TYPES
    #: Only rendered for clients in EU jurisdictions (geo-fenced banners).
    eu_only: bool = False
    #: Only rendered for non-EU clients (observed, if rarely: misconfigured
    #: geo-fencing shows banners in the US but not the EU).
    non_eu_only: bool = False

    def shown_in(self, *, in_eu: bool) -> bool:
        if self.eu_only and not in_eu:
            return False
        if self.non_eu_only and in_eu:
            return False
        return True


@dataclass(frozen=True)
class AgeGateSpec:
    """An age-verification interstitial."""

    #: "button" — warning text plus an affirmative button (bypassable);
    #: "social_login" — verifiable login-based gate (pornhub-in-Russia).
    mode: str = "button"
    #: Countries where the gate is shown; ``None`` means everywhere.
    countries: Optional[FrozenSet[str]] = None
    #: Countries where the gate is suppressed.
    suppressed_countries: FrozenSet[str] = frozenset()

    def shown_in(self, country_code: str) -> bool:
        if country_code in self.suppressed_countries:
            return False
        if self.countries is not None:
            return country_code in self.countries
        return True


@dataclass(frozen=True)
class PornSiteSpec:
    """Ground truth for one pornographic website."""

    domain: str
    trajectory: RankTrajectory
    language: str = "en"
    content_category: str = "tube"   # tube | cams | proxy | gallery | premium

    # -- ownership ---------------------------------------------------------------
    owner: Optional[str] = None       # operator name (Table 1 clusters)
    cert_org: Optional[str] = None    # X.509 Subject O (often absent)

    # -- discovery / corpus (§3) ----------------------------------------------------
    discovered_by: str = DISCOVERY_KEYWORD
    has_adult_keyword: bool = True
    #: Unresponsive during sanitization — removed as a false positive.
    responsive: bool = True
    #: Responsive at sanitization but fails during the main crawl (497 sites).
    crawl_flaky: bool = False

    # -- transport -------------------------------------------------------------------
    https: bool = False
    extra_first_party_hosts: Tuple[str, ...] = ("www",)

    # -- embedded third parties ---------------------------------------------------------
    embedded_services: Tuple[str, ...] = ()
    #: Per-country additions (regional ad networks), keyed by country code.
    regional_services: Tuple[Tuple[str, str], ...] = ()

    # -- first-party behavior --------------------------------------------------------------
    first_party_cookies: int = 2
    first_party_id_cookie: bool = True
    #: Site embeds its own visitor ID in requests to its ad network
    #: (first-party cookie-sync origin).
    passes_id_to: Optional[str] = None
    first_party_canvas_fp: bool = False

    # -- compliance (§7) ---------------------------------------------------------------------
    policy: Optional[PolicySpec] = None
    banner: Optional[BannerSpec] = None
    age_gate: Optional[AgeGateSpec] = None
    rta_label: bool = False

    # -- business (§4.1) ----------------------------------------------------------------------
    subscription: Optional[str] = None   # None | "free" | "paid"

    # -- reputation / geography -----------------------------------------------------------------
    scanner_hits: int = 0
    blocked_countries: FrozenSet[str] = frozenset()

    @property
    def tier(self) -> int:
        return self.trajectory.tier

    @property
    def is_malicious(self) -> bool:
        return self.scanner_hits >= 4

    @property
    def has_subscription(self) -> bool:
        return self.subscription is not None


# ----------------------------------------------------------------------
# Row codecs (see webgen.lazyspecs)
#
# Frozen sets are stored as sorted tuples: set equality is order-blind,
# so ``frozenset(sorted(s)) == s`` and the decoded spec compares equal
# to the one it was encoded from.
# ----------------------------------------------------------------------

def banner_to_row(spec: BannerSpec) -> tuple:
    return (spec.banner_type, spec.eu_only, spec.non_eu_only)


def banner_from_row(row: tuple) -> BannerSpec:
    return BannerSpec(row[0], eu_only=row[1], non_eu_only=row[2])


def age_gate_to_row(spec: AgeGateSpec) -> tuple:
    countries = None if spec.countries is None else tuple(sorted(spec.countries))
    return (spec.mode, countries, tuple(sorted(spec.suppressed_countries)))


def age_gate_from_row(row: tuple) -> AgeGateSpec:
    mode, countries, suppressed = row
    return AgeGateSpec(
        mode=mode,
        countries=None if countries is None else frozenset(countries),
        suppressed_countries=frozenset(suppressed),
    )


@dataclass(frozen=True)
class RegularSiteSpec:
    """Ground truth for one regular (reference corpus) website."""

    domain: str
    trajectory: RankTrajectory
    category: str = "news"
    https: bool = True
    cert_org: Optional[str] = None
    extra_first_party_hosts: Tuple[str, ...] = ("www",)
    embedded_services: Tuple[str, ...] = ()
    first_party_cookies: int = 2
    responsive: bool = True
    #: Contains an adult keyword substring — a §3 false-positive candidate.
    has_adult_keyword: bool = False
    #: Member of the paper's 9,688-site reference corpus (top-10K sample);
    #: False for keyword-trap sites that only exist as §3 false positives.
    in_reference_corpus: bool = True

    @property
    def tier(self) -> int:
        return self.trajectory.tier
