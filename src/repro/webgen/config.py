"""Calibration targets and universe configuration.

:class:`CalibrationTargets` collects every aggregate statistic the paper
publishes.  The generator samples ground truth from these targets; the
analysis pipeline *re-measures* them from crawl logs, and EXPERIMENTS.md
compares measured values against this table.

All fractions are of the sanitized porn corpus unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["CalibrationTargets", "UniverseConfig", "TIER_NAMES",
           "DEFAULT_TARGETS", "MAX_SCALE"]

#: Popularity tiers by best Alexa rank throughout 2018 (Table 3 / Table 6).
TIER_NAMES: Tuple[str, ...] = ("0-1k", "1k-10k", "10k-100k", "100k+")


@dataclass(frozen=True)
class CalibrationTargets:
    """The paper's published statistics, used to parameterize generation."""

    # --- Section 3: corpus ---------------------------------------------------
    candidates_total: int = 8_099
    from_aggregators: int = 342
    from_alexa_category: int = 22
    from_keyword_search: int = 7_735
    false_positives: int = 1_256
    sanitized_corpus: int = 6_843
    crawlable_corpus: int = 6_346          # §4.2: successfully crawled
    regular_corpus: int = 9_688            # reference dataset (§3)
    regular_crawlable: int = 8_511         # Table 2 corpus size
    always_top_1m: int = 1_103             # Fig. 1: 16% always in top-1M
    always_top_1k: int = 16

    # Of the 1,256 removed candidates, how many were unresponsive porn
    # sites vs. genuinely non-pornographic keyword matches.
    unresponsive_candidates: int = 700
    non_porn_keyword_matches: int = 556

    # --- Section 3/Table 3: per-tier site counts (crawlable porn corpus) ----
    tier_site_counts: Tuple[int, ...] = (73, 536, 3_668, 2_069)

    # --- Section 4.1: owners and business models ------------------------------
    #: Table 1 clusters: (company, number of sites, flagship site, best rank).
    owner_clusters: Tuple[Tuple[str, int, str, int], ...] = (
        ("Gamma Entertainment", 65, "evilangel.com", 5_301),
        ("MindGeek", 54, "pornhub.com", 22),
        ("PaperStreet Media", 38, "teamskeet.com", 10_171),
        ("Techpump", 25, "porn300.com", 2_366),
        ("PMG Entertainment", 15, "private.com", 7_758),
        ("SexMex", 12, "sexmex.xxx", 122_227),
        ("Docler Holding", 10, "livejasmin.com", 36),
        ("Mature.nl", 9, "mature.nl", 6_577),
        ("Liberty Media", 7, "corbinfisher.com", 26_436),
        ("WGCZ", 5, "xvideos.com", 32),
        ("AFS Media LTD", 5, "theclassicporn.com", 13_939),
        ("AEBN", 5, "pornotube.com", 31_148),
        ("Zero Tolerance", 5, "ztod.com", 40_676),
        ("Eurocreme", 5, "eurocreme.com", 110_012),
        ("JM Productions", 5, "jerkoffzone.com", 147_753),
        # Nine further small operators, completing the paper's 24 companies
        # owning 286 sites (names synthesized; the paper does not list them).
        ("Bang Bros Network", 4, "bangbros-hd.com", 18_400),
        ("Adult Time Group", 3, "adulttimehub.com", 27_500),
        ("FapHouse Media", 3, "faphouse-videos.com", 52_000),
        ("VCX Entertainment", 2, "vcxclassics.com", 88_000),
        ("Score Group", 2, "scorevideos.net", 95_000),
        ("Pink Visual", 2, "pinkvisualtube.com", 140_000),
        ("Digital Playground IP", 2, "dpclassics.net", 210_000),
        ("Homegrown Video", 2, "homegrownclips.com", 260_000),
        ("Vivid Corp", 1, "vividarchive.com", 310_000),
    )
    subscription_fraction: float = 0.14    # sites offering accounts
    paid_subscription_fraction: float = 0.23  # of those, behind a paywall
    privacy_policy_fraction: float = 0.16

    # --- Section 4.2 / Table 2: third-party ecosystem -------------------------
    porn_third_party_fqdns: int = 5_457
    porn_first_party_fqdns: int = 727
    regular_third_party_fqdns: int = 21_128
    regular_first_party_fqdns: int = 3_852
    porn_ats_fqdns: int = 663
    regular_ats_fqdns: int = 196
    fqdn_intersection: int = 889
    ats_intersection: int = 86
    attributable_fqdn_fraction: float = 0.74   # §4.2(3): parent company found
    disconnect_only_organizations: int = 142
    total_organizations: int = 1_014

    # --- Table 3: third-party domains per popularity tier ---------------------
    tier_third_party_totals: Tuple[int, ...] = (407, 1_327, 3_702, 2_363)
    tier_third_party_unique: Tuple[int, ...] = (119, 531, 2_115, 1_007)
    all_tier_fraction: float = 0.03        # TP domains present in all 4 tiers

    # --- Section 5.1.1 / Table 4: cookies --------------------------------------
    sites_with_cookies_fraction: float = 0.92
    total_cookies: int = 89_009
    id_cookies: int = 51_648
    third_party_id_cookies: int = 30_247
    cookie_setting_third_parties: int = 3_343
    sites_with_third_party_cookies_fraction: float = 0.72
    huge_cookie_fraction: float = 0.03     # ID cookies > 1,000 chars
    ip_embedding_cookies: int = 2_183
    ip_cookies_exoclick_share: float = 0.97
    geo_cookies: int = 28
    geo_cookie_sites: int = 15
    #: Table 4 rows: (domain, % of porn sites, cookies, % cookies w/ client IP).
    top_cookie_domains: Tuple[Tuple[str, float, int, float], ...] = (
        ("exosrv.com", 0.21, 2_095, 0.85),
        ("addthis.com", 0.17, 1_289, 0.0),
        ("exoclick.com", 0.14, 434, 0.29),
        ("yandex.ru", 0.04, 312, 0.0),
        ("juicyads.com", 0.04, 475, 0.0),
    )

    # --- Section 5.1.2 / Fig. 4: cookie syncing -------------------------------
    sync_sites: int = 2_867
    sync_pairs: int = 4_675
    sync_origins: int = 1_120
    sync_destinations: int = 727
    figure4_min_cookies: int = 75

    # --- Section 5.1.3 / Table 5: fingerprinting -------------------------------
    canvas_scripts: int = 245
    canvas_sites: int = 315
    canvas_third_party_services: int = 49
    canvas_scripts_third_party_fraction: float = 0.74
    canvas_scripts_unlisted_fraction: float = 0.91  # not in EasyList/EasyPrivacy
    font_fp_scripts: int = 1                        # online-metrix.net
    webrtc_scripts: int = 27
    webrtc_sites: int = 177
    webrtc_services: int = 13

    # --- Section 5.2 / Table 6: HTTPS -------------------------------------------
    tier_https_site_fraction: Tuple[float, ...] = (0.92, 0.63, 0.32, 0.22)
    tier_https_service_fraction: Tuple[float, ...] = (0.90, 0.48, 0.25, 0.16)
    not_fully_https_sites: int = 4_663     # 68% of corpus
    cleartext_sensitive_cookie_fraction: float = 0.08

    # --- Section 5.3: malware ----------------------------------------------------
    malicious_porn_sites: int = 7
    malicious_third_parties: int = 16
    sites_with_malicious_third_parties: int = 41
    miner_services: Tuple[str, ...] = ("coinhive.com", "jsecoin.com", "bitcoin-pay.eu")
    miner_sites: int = 8
    virustotal_threshold: int = 4
    virustotal_scanners: int = 70

    # --- Section 6 / Table 7: geography -----------------------------------------
    #: (country, FQDNs seen, unique to country, ATS seen, ATS unique).
    per_country_fqdns: Tuple[Tuple[str, int, int, int, int], ...] = (
        ("US", 5_483, 357, 635, 25),
        ("UK", 5_364, 231, 620, 20),
        ("ES", 5_494, 561, 592, 59),
        ("RU", 4_750, 373, 542, 27),
        ("IN", 5_340, 275, 607, 21),
        ("SG", 5_310, 233, 608, 16),
    )
    all_country_fqdn_total: int = 7_813
    blocked_sites_russia: int = 21
    blocked_sites_india: int = 168
    #: §6.2: malicious third-party domains seen per country (min RU, max IN).
    malicious_domains_by_country: Dict[str, int] = field(
        default_factory=lambda: {
            "US": 17, "UK": 17, "ES": 18, "RU": 15, "IN": 19, "SG": 16,
        }
    )
    malicious_domains_everywhere: int = 13
    malicious_sites_by_country: Dict[str, int] = field(
        default_factory=lambda: {
            "US": 36, "UK": 35, "ES": 42, "RU": 29, "IN": 40, "SG": 33,
        }
    )
    malicious_sites_everywhere: int = 26

    # --- Section 7.1 / Table 8: cookie banners -----------------------------------
    #: Fractions of the full sanitized corpus showing each banner type.
    banner_fractions_eu: Dict[str, float] = field(
        default_factory=lambda: {
            "no_option": 0.0136,
            "confirmation": 0.0282,
            "binary": 0.0020,
            "other": 0.0003,
        }
    )
    banner_fractions_us: Dict[str, float] = field(
        default_factory=lambda: {
            "no_option": 0.0139,
            "confirmation": 0.0230,
            "binary": 0.0006,
            "other": 0.0001,
        }
    )

    # --- Section 7.2: age verification ---------------------------------------------
    age_gate_top50_fraction: float = 0.20
    age_gate_top50_fraction_russia: float = 0.14
    age_gate_only_russia_fraction: float = 0.08
    age_gate_except_russia_fraction: float = 0.12

    # --- Section 7.3: privacy policies -----------------------------------------------
    policy_gdpr_mention_fraction: float = 0.20
    policy_mean_length: int = 17_159
    policy_min_length: int = 1_088
    policy_max_length: int = 243_649
    policy_pairs_similar_fraction: float = 0.76   # cosine > 0.5
    policy_http_error_false_positives: int = 44
    #: §7.3 Polisis-style manual check of the top-25 tracking sites.
    policy_discloses_practices_fraction: float = 0.72


#: The largest corpus scale the repository documents (the memory
#: flatness check's full-size step; see ``benchmarks/scale_check.py``).
MAX_SCALE = 4.0


@dataclass(frozen=True)
class UniverseConfig:
    """Knobs controlling universe generation.

    ``scale`` shrinks every corpus count proportionally (1.0 = paper scale,
    6,843 porn sites).  Tests use small scales; benchmarks use 1.0.

    ``epoch`` selects a snapshot of the *evolving* ecosystem: epoch 0 is
    the classic single-snapshot universe, and every higher epoch is
    derived deterministically from the previous one by
    :func:`repro.webgen.evolve.evolve_universe` (trackers born, dying and
    consolidating; sites migrating to HTTPS; consent banners spreading;
    a ``churn`` fraction of sites changing content).  The epoch is part
    of the datastore run key, so each epoch's crawls pin their own store.
    """

    seed: int = 20191021            # IMC'19 started October 21, 2019
    scale: float = 1.0
    targets: CalibrationTargets = field(default_factory=CalibrationTargets)
    rank_days: int = 365
    epoch: int = 0
    #: Fraction of sites whose page content changes per evolution step.
    churn: float = 0.1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and 0.0 < self.scale <= MAX_SCALE):
            raise ValueError(
                f"scale must be a finite number in (0, {MAX_SCALE:g}], "
                f"got {self.scale!r}")
        if not (math.isfinite(self.churn) and 0.0 <= self.churn <= 1.0):
            raise ValueError(
                f"churn must be a finite number in [0, 1], got {self.churn!r}")
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch!r}")

    def scaled(self, count: int, *, minimum: int = 1) -> int:
        """Scale an absolute corpus count, keeping at least ``minimum``."""
        return max(minimum, round(count * self.scale))
