"""Regulatory-compliance analyses (Section 7)."""

from .age_verification import (
    AgeVerificationReport,
    CountryGateSummary,
    study_age_verification,
)
from .banners import (
    BANNER_BINARY,
    BANNER_CONFIRMATION,
    BANNER_NO_OPTION,
    BANNER_OTHER,
    BannerObservation,
    BannerReport,
    analyze_banners,
    detect_banner,
)
from .policies import (
    CollectedPolicy,
    DisclosureSummary,
    PolicyReport,
    analyze_policies,
    extract_disclosures,
    pairwise_similarity_fractions,
)

__all__ = [
    "AgeVerificationReport",
    "CountryGateSummary",
    "study_age_verification",
    "BANNER_BINARY",
    "BANNER_CONFIRMATION",
    "BANNER_NO_OPTION",
    "BANNER_OTHER",
    "BannerObservation",
    "BannerReport",
    "analyze_banners",
    "detect_banner",
    "CollectedPolicy",
    "DisclosureSummary",
    "PolicyReport",
    "analyze_policies",
    "extract_disclosures",
    "pairwise_similarity_fractions",
]
