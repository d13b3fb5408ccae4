"""Deterministic construction of the synthetic universe.

The builder turns a :class:`~repro.webgen.config.UniverseConfig` into a
fully populated :class:`~repro.webgen.universe.Universe`: every porn site,
regular site, and third-party service, with ground-truth attributes drawn
from distributions calibrated to the paper's published statistics.

The construction follows the "service -> sites" direction for third-party
placement so that the *distinct-domain* counts of Tables 2, 3, and 7 are
direct generation targets rather than emergent accidents.
"""

from __future__ import annotations

import dataclasses
import marshal
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..blocklists.disconnect import DisconnectEntry, DisconnectList
from ..net.tls import Certificate
from ..net.whois import WhoisRegistry
from ..util import rng_for, stable_hash
from .config import UniverseConfig
from .lazyspecs import (
    LazyCertificates,
    LazyPolicyTexts,
    LazySpecMap,
    pack_porn_spec,
    pack_regular_spec,
    policy_to_row,
    porn_spec_from_packed,
    regular_spec_from_packed,
)
from .names import NameFactory
from .organizations import TailOrgAllocator, operators_from_targets
from .policytext import PolicyGenerator, TEMPLATE_COUNT
from .rank import RankModel, RankTrajectory, tier_of_rank
from .sites import (
    AgeGateSpec,
    BannerSpec,
    DISCOVERY_AGGREGATOR,
    DISCOVERY_ALEXA_CATEGORY,
    DISCOVERY_KEYWORD,
    PornSiteSpec,
    RegularSiteSpec,
)
from .thirdparty import (
    CATEGORY_ADS,
    CATEGORY_ANALYTICS,
    CATEGORY_CDN,
    CATEGORY_CONTENT,
    CATEGORY_SOCIAL,
    NAMED_SERVICES,
    ThirdPartyService,
)
from .universe import Universe

__all__ = ["build_universe"]

_LANGUAGES = ("en", "es", "fr", "pt", "ru", "it", "de", "ro")
_LANGUAGE_WEIGHTS = (0.70, 0.06, 0.05, 0.04, 0.05, 0.03, 0.04, 0.03)

#: Flaky (crawl-time failure) sites per tier: Table 6 minus Table 3 counts.
_FLAKY_PER_TIER = (2, 16, 218, 261)

_CONTENT_CATEGORIES = ("tube", "tube", "tube", "gallery", "cams", "proxy", "premium")

#: Geo-targeted malicious services: country sets solving §6.2's per-country
#: malicious-domain counts given 13 always-on services (see DESIGN.md).
_GEO_MALWARE_SETS: Tuple[frozenset, ...] = (
    frozenset({"US", "UK", "IN"}),
    frozenset({"US", "UK", "IN"}),
    frozenset({"US", "UK", "ES", "IN"}),
    frozenset({"US", "UK", "ES", "SG"}),
    frozenset({"IN", "RU", "SG"}),
    frozenset({"IN", "RU", "SG"}),
    frozenset({"ES", "IN"}),
)

_NON_ES_COUNTRIES = ("US", "UK", "IN", "SG")


class _Builder:
    def __init__(self, config: UniverseConfig) -> None:
        self.config = config
        self.targets = config.targets
        seed = config.seed
        self.rng_names = rng_for(seed, "names")
        self.rng_sites = rng_for(seed, "sites")
        self.rng_services = rng_for(seed, "services")
        self.rng_rank = rng_for(seed, "rank")
        self.rng_policy = rng_for(seed, "policy")
        self.names = NameFactory(self.rng_names)
        self.rank_model = RankModel(self.rng_rank, days=config.rank_days)
        self.policy_gen = PolicyGenerator(self.rng_policy)
        self.org_allocator = TailOrgAllocator(rng_for(seed, "orgs"))

        # Outputs under construction.
        self.porn_attrs: Dict[str, dict] = {}       # domain -> PornSiteSpec kwargs
        self.regular_attrs: Dict[str, dict] = {}    # domain -> RegularSiteSpec kwargs
        self.services: Dict[str, ThirdPartyService] = {}
        self.site_embeds: Dict[str, List[str]] = {}
        self.site_cdns: Dict[str, str] = {}
        self.dynamic_cdn_sites: Set[str] = set()
        self.rtb_bidders: List[str] = []
        self.full_list_site: Optional[str] = None
        self.sites_by_tier: List[List[str]] = [[], [], [], []]
        self.crawlable_by_tier: List[List[str]] = [[], [], [], []]
        self.cookie_free_sites: Set[str] = set()

    def scaled(self, count: int, *, minimum: int = 1) -> int:
        return self.config.scaled(count, minimum=minimum)

    # ------------------------------------------------------------------
    # Porn corpus
    # ------------------------------------------------------------------

    def build_porn_sites(self) -> None:
        targets = self.targets
        crawlable_counts = [self.scaled(c) for c in targets.tier_site_counts]
        flaky_counts = [self.scaled(c, minimum=0) for c in _FLAKY_PER_TIER]

        operators = operators_from_targets(targets)
        # Flagship sites first: pinned domains and published best ranks.
        flagship_slots: List[Tuple[str, Optional[str], Optional[int]]] = []
        for operator in operators:
            cluster_size = max(1, round(operator.site_count * self.config.scale))
            flagship_slots.append(
                (operator.name, operator.flagship_domain, operator.flagship_best_rank)
            )
            for _ in range(cluster_size - 1):
                flagship_slots.append((operator.name, None, None))

        total_sites = sum(crawlable_counts) + sum(flaky_counts)
        non_keyword_budget = self.scaled(
            targets.from_aggregators + targets.from_alexa_category
        )

        # Build the per-tier site list: operator sites claim slots first.
        slots: List[Tuple[int, bool]] = []  # (tier, flaky)
        for tier in range(4):
            slots.extend((tier, False) for _ in range(crawlable_counts[tier]))
            slots.extend((tier, True) for _ in range(flaky_counts[tier]))
        order = self.rng_sites.permutation(len(slots))
        slots = [slots[i] for i in order]

        owner_by_index: Dict[int, Tuple[str, Optional[str], Optional[int]]] = {}
        taken: Set[int] = set()
        for owner_name, flagship_domain, flagship_rank in flagship_slots:
            if flagship_rank is not None:
                wanted_tier = tier_of_rank(flagship_rank)
            else:
                wanted_tier = int(
                    self.rng_sites.choice(4, p=(0.03, 0.17, 0.50, 0.30))
                )
            index = self._claim_slot(slots, taken, wanted_tier, flaky=False)
            if index is None:
                continue
            owner_by_index[index] = (owner_name, flagship_domain, flagship_rank)
            taken.add(index)

        non_keyword_left = non_keyword_budget
        for index, (tier, flaky) in enumerate(slots):
            owner_info = owner_by_index.get(index)
            owner = owner_info[0] if owner_info else None
            pinned_domain = owner_info[1] if owner_info else None
            pinned_rank = owner_info[2] if owner_info else None

            if pinned_domain is not None:
                domain = self.names.reserve(pinned_domain)
                has_keyword = any(k in domain for k in
                                  ("porn", "tube", "sex", "gay", "lesbian",
                                   "mature", "xxx"))
            else:
                # Reserve the non-keyword budget for aggregator discovery.
                use_keyword = non_keyword_left <= 0 or self.rng_sites.random() > (
                    non_keyword_left / max(total_sites - index, 1)
                )
                domain = self.names.porn_domain(with_keyword=use_keyword)
                has_keyword = use_keyword
            if not has_keyword:
                non_keyword_left -= 1

            trajectory = self._porn_trajectory(tier, pinned_rank)
            language = _LANGUAGES[
                int(self.rng_sites.choice(len(_LANGUAGES), p=_LANGUAGE_WEIGHTS))
            ]
            https = self.rng_sites.random() < targets.tier_https_site_fraction[tier]
            self.porn_attrs[domain] = {
                "domain": domain,
                "trajectory": trajectory,
                "language": language,
                "content_category": _CONTENT_CATEGORIES[
                    int(self.rng_sites.integers(0, len(_CONTENT_CATEGORIES)))
                ],
                "owner": owner,
                "cert_org": None,
                "discovered_by": DISCOVERY_KEYWORD if has_keyword else DISCOVERY_AGGREGATOR,
                "has_adult_keyword": has_keyword,
                "responsive": True,
                "crawl_flaky": flaky,
                "https": https,
                "embedded_services": (),
                "first_party_cookies": 0,
                "first_party_id_cookie": True,
                "passes_id_to": None,
                "first_party_canvas_fp": False,
                "policy": None,
                "banner": None,
                "age_gate": None,
                "rta_label": self.rng_sites.random() < 0.05,
                "subscription": None,
                "scanner_hits": 0,
                "blocked_countries": frozenset(),
            }
            if owner is not None:
                operator = next(op for op in operators if op.name == owner)
                if https:
                    self.porn_attrs[domain]["cert_org"] = operator.legal_name
            self.sites_by_tier[tier].append(domain)
            if not flaky:
                self.crawlable_by_tier[tier].append(domain)
            self.site_embeds[domain] = []

        self._assign_cookie_profiles()
        self._assign_compliance()
        self._assign_unresponsive_candidates()

    def _claim_slot(
        self, slots: List[Tuple[int, bool]], taken: Set[int], tier: int, *, flaky: bool
    ) -> Optional[int]:
        for index, (slot_tier, slot_flaky) in enumerate(slots):
            if index in taken:
                continue
            if slot_tier == tier and slot_flaky == flaky:
                return index
        # Fall back to any free crawlable slot.
        for index, (_, slot_flaky) in enumerate(slots):
            if index not in taken and not slot_flaky:
                return index
        return None

    def _porn_trajectory(self, tier: int, pinned_rank: Optional[int]) -> RankTrajectory:
        if pinned_rank is not None and tier_of_rank(pinned_rank) == tier:
            trajectory = self.rank_model.sample(tier, best_rank=pinned_rank)
        else:
            trajectory = self.rank_model.sample(tier)
        # Keyword discovery requires at least one day in the top-1M; resample
        # tier-3 outliers that never made the list.
        attempts = 0
        while not trajectory.ever_present and attempts < 8:
            trajectory = self.rank_model.sample(tier)
            attempts += 1
        if not trajectory.ever_present:
            trajectory = self.rank_model.sample(tier, best_rank=900_000)
        return trajectory

    def _assign_cookie_profiles(self) -> None:
        """Pick which sites stay free of third-party cookies (28%) and of
        any cookies at all (8%), then sample first-party cookie counts."""
        domains = list(self.porn_attrs)
        self.rng_sites.shuffle(domains)
        n = len(domains)
        free_count = round(n * (1.0 - self.targets.sites_with_third_party_cookies_fraction))
        no_cookie_count = round(n * (1.0 - self.targets.sites_with_cookies_fraction))
        # Weight the cookie-free set toward the unpopular tiers.
        ranked = sorted(domains, key=lambda d: (
            -self.porn_attrs[d]["trajectory"].tier, stable_hash(d, "free")
        ))
        self.cookie_free_sites = set(ranked[:free_count])
        for domain in ranked[:no_cookie_count]:
            self.porn_attrs[domain]["first_party_cookies"] = 0
            self.porn_attrs[domain]["first_party_id_cookie"] = False
        for domain in domains:
            if domain in self.cookie_free_sites and \
                    not self.porn_attrs[domain]["first_party_id_cookie"]:
                continue
            count = 1 + int(self.rng_sites.poisson(2.4))
            self.porn_attrs[domain]["first_party_cookies"] = min(count, 6)

    def _assign_compliance(self) -> None:
        targets = self.targets
        domains = list(self.porn_attrs)

        # --- Cookie banners (Table 8): decompose EU/US fractions into
        # globally shown banners plus geo-fenced extras.
        eu = targets.banner_fractions_eu
        us = targets.banner_fractions_us
        plan: List[Tuple[str, bool, bool, float]] = []
        for banner_type in ("no_option", "confirmation", "binary", "other"):
            shared = min(eu[banner_type], us[banner_type])
            plan.append((banner_type, False, False, shared))
            if eu[banner_type] > shared:
                plan.append((banner_type, True, False, eu[banner_type] - shared))
            if us[banner_type] > shared:
                plan.append((banner_type, False, True, us[banner_type] - shared))
        shuffled = list(domains)
        self.rng_sites.shuffle(shuffled)
        cursor = 0
        for banner_type, eu_only, non_eu_only, fraction in plan:
            count = round(fraction * len(domains))
            for domain in shuffled[cursor:cursor + count]:
                concrete = banner_type
                if banner_type == "other":
                    concrete = "slider" if self.rng_sites.random() < 0.5 else "checkbox"
                self.porn_attrs[domain]["banner"] = BannerSpec(
                    concrete, eu_only=eu_only, non_eu_only=non_eu_only
                )
            cursor += count

        # --- Privacy policies (§7.3).
        operator_template: Dict[str, int] = {}
        policy_count = 0
        policy_budget = round(targets.privacy_policy_fraction * len(domains))
        operator_sites = [d for d in domains if self.porn_attrs[d]["owner"]]
        independent_sites = [d for d in domains if not self.porn_attrs[d]["owner"]]
        for domain in operator_sites:
            owner = self.porn_attrs[domain]["owner"]
            if owner not in operator_template:
                operator_template[owner] = stable_hash(owner, "tpl") % TEMPLATE_COUNT
            if self.rng_sites.random() < 0.85:
                spec = self.policy_gen.sample_spec(
                    operator_template=operator_template[owner],
                    heavy_tracker=self.porn_attrs[domain]["trajectory"].tier <= 1,
                )
                self.porn_attrs[domain]["policy"] = spec
                policy_count += 1
        remaining = max(0, policy_budget - policy_count)
        self.rng_sites.shuffle(independent_sites)
        for domain in independent_sites[:remaining]:
            spec = self.policy_gen.sample_spec(
                heavy_tracker=self.porn_attrs[domain]["trajectory"].tier <= 1
            )
            self.porn_attrs[domain]["policy"] = spec

        # Broken policy links: HTTP-error pages the naive crawler miscounts.
        with_policy = [d for d in domains if self.porn_attrs[d]["policy"]]
        self.rng_sites.shuffle(with_policy)
        for domain in with_policy[: self.scaled(
                targets.policy_http_error_false_positives, minimum=0)]:
            spec = self.porn_attrs[domain]["policy"]
            self.porn_attrs[domain]["policy"] = dataclasses.replace(
                spec, link_broken=True
            )

        # One site discloses its complete third-party list (§7.3).
        if "pornhub.com" in self.porn_attrs and \
                self.porn_attrs["pornhub.com"]["policy"] is not None:
            self.full_list_site = "pornhub.com"
        elif with_policy:
            self.full_list_site = with_policy[-1]
        if self.full_list_site is not None:
            spec = self.porn_attrs[self.full_list_site]["policy"]
            if spec is None:
                spec = self.policy_gen.sample_spec(heavy_tracker=True)
            self.porn_attrs[self.full_list_site]["policy"] = dataclasses.replace(
                spec, full_third_party_list=True, link_broken=False,
                discloses_cookies=True, discloses_data_types=True,
                discloses_third_parties=True,
            )

        # --- Age gates (§7.2): general population, then top-50 overrides.
        for domain in domains:
            if self.rng_sites.random() < 0.18:
                self.porn_attrs[domain]["age_gate"] = AgeGateSpec(mode="button")
            else:
                self.porn_attrs[domain]["age_gate"] = None
        crawlable = [d for tier in self.crawlable_by_tier for d in tier]
        ranked = sorted(
            crawlable,
            key=lambda d: self.porn_attrs[d]["trajectory"].observed_best or 10**9,
        )
        top_n = ranked[: min(50, len(ranked))]
        gates_everywhere = max(1, round(0.20 * len(top_n)))
        ru_suppressed = round(0.12 * len(top_n))
        ru_only = round(0.06 * len(top_n))
        for domain in top_n:
            self.porn_attrs[domain]["age_gate"] = None
        for index, domain in enumerate(top_n[:gates_everywhere]):
            suppressed = frozenset({"RU"}) if index < ru_suppressed else frozenset()
            self.porn_attrs[domain]["age_gate"] = AgeGateSpec(
                mode="button", suppressed_countries=suppressed
            )
        for domain in top_n[gates_everywhere:gates_everywhere + ru_only]:
            self.porn_attrs[domain]["age_gate"] = AgeGateSpec(
                mode="button", countries=frozenset({"RU"})
            )
        social_site = "pornhub.com" if "pornhub.com" in self.porn_attrs else (
            top_n[0] if top_n else None
        )
        if social_site is not None:
            self.porn_attrs[social_site]["age_gate"] = AgeGateSpec(
                mode="social_login", countries=frozenset({"RU"})
            )

        # --- Business models (§4.1).
        for domain in domains:
            if self.rng_sites.random() < targets.subscription_fraction:
                paid = self.rng_sites.random() < targets.paid_subscription_fraction
                self.porn_attrs[domain]["subscription"] = "paid" if paid else "free"

        # --- Malicious porn sites and country blocking.
        shuffled = list(domains)
        self.rng_sites.shuffle(shuffled)
        for domain in shuffled[: self.scaled(targets.malicious_porn_sites)]:
            self.porn_attrs[domain]["scanner_hits"] = 4 + int(
                self.rng_sites.integers(0, 20)
            )
        blocked_ru = shuffled[-self.scaled(targets.blocked_sites_russia):]
        for domain in blocked_ru:
            self.porn_attrs[domain]["blocked_countries"] = frozenset({"RU"})
        start = len(shuffled) - self.scaled(targets.blocked_sites_russia)
        blocked_in = shuffled[start - self.scaled(targets.blocked_sites_india):start]
        for domain in blocked_in:
            current = self.porn_attrs[domain]["blocked_countries"]
            self.porn_attrs[domain]["blocked_countries"] = current | {"IN"}

        # --- First-party canvas fingerprinting (the 26% of §5.1.3 scripts).
        candidates = [d for d in crawlable
                      if self.porn_attrs[d]["trajectory"].tier >= 2]
        self.rng_sites.shuffle(candidates)
        for domain in candidates[: self.scaled(64)]:
            self.porn_attrs[domain]["first_party_canvas_fp"] = True

        # --- Own-CDN domains (the §4.2 first-party FQDNs) and dynamic hosts.
        cdn_budget = self.scaled(self.targets.porn_first_party_fqdns)
        eligible = [d for d in domains if len(d.split(".")[0]) >= 7]
        self.rng_sites.shuffle(eligible)
        for domain in eligible[:cdn_budget]:
            stem, _, tld = domain.rpartition(".")
            cdn_domain = self.names.reserve(f"{stem}-cdn.{tld}")
            self.site_cdns[cdn_domain] = domain
        for domain in eligible[cdn_budget:cdn_budget + self.scaled(35)]:
            self.dynamic_cdn_sites.add(domain)

    def _assign_unresponsive_candidates(self) -> None:
        """Porn candidates that were dead at sanitization time (§3)."""
        for _ in range(self.scaled(self.targets.unresponsive_candidates)):
            domain = self.names.porn_domain(with_keyword=True)
            trajectory = self._porn_trajectory(3, None)
            self.porn_attrs[domain] = {
                "domain": domain,
                "trajectory": trajectory,
                "language": "en",
                "content_category": "tube",
                "owner": None,
                "cert_org": None,
                "discovered_by": DISCOVERY_KEYWORD,
                "has_adult_keyword": True,
                "responsive": False,
                "crawl_flaky": False,
                "https": False,
                "embedded_services": (),
                "first_party_cookies": 0,
                "first_party_id_cookie": False,
                "passes_id_to": None,
                "first_party_canvas_fp": False,
                "policy": None,
                "banner": None,
                "age_gate": None,
                "rta_label": False,
                "subscription": None,
                "scanner_hits": 0,
                "blocked_countries": frozenset(),
            }
            self.site_embeds[domain] = []

    # ------------------------------------------------------------------
    # Third-party services
    # ------------------------------------------------------------------

    def build_services(self) -> None:
        self._place_named_services()
        self._build_porn_tail()
        self._build_country_unique_services()
        self._build_rtb_bidders()
        self._apply_geo_exclusions()
        self._ensure_minimum_embeds()
        self._assign_first_party_sync()

    def _eligible_sites(self, tier: int, *, sets_cookies: bool,
                        https_service: bool = True,
                        crawlable_only: bool = False) -> List[str]:
        pool = self.crawlable_by_tier[tier] if crawlable_only \
            else self.sites_by_tier[tier]
        if sets_cookies:
            pool = [d for d in pool if d not in self.cookie_free_sites]
        if not https_service:
            # HTTPS publishers avoid plain-HTTP embeds (mixed content), so
            # non-TLS services concentrate on non-TLS sites — that is what
            # keeps the paper's fully-HTTPS population clean (§5.2).
            pool = [d for d in pool if not self.porn_attrs[d]["https"]]
        return list(pool)

    def _place_service_on_sites(
        self, service: ThirdPartyService, counts_per_tier: Sequence[int],
        *, crawlable_only: bool = False,
    ) -> int:
        """Attach the service to randomly chosen sites; returns placements."""
        placed = 0
        for tier, count in enumerate(counts_per_tier):
            if count <= 0:
                continue
            pool = self._eligible_sites(tier, sets_cookies=service.sets_cookies,
                                        https_service=service.https,
                                        crawlable_only=crawlable_only)
            if not pool:
                continue
            count = min(count, len(pool))
            chosen = self.rng_services.choice(len(pool), size=count, replace=False)
            for index in chosen:
                domain = pool[int(index)]
                self.site_embeds[domain].append(service.domain)
                placed += 1
        return placed

    def _place_named_services(self) -> None:
        sanitized_total = sum(len(t) for t in self.sites_by_tier)
        tier_sizes = [len(t) for t in self.sites_by_tier]
        for service in NAMED_SERVICES:
            self.names.reserve(service.domain)
            self.services[service.domain] = service
            if service.prevalence_porn <= 0:
                continue
            total = max(1, round(service.prevalence_porn * sanitized_total))
            weights = [service.tier_weights[t] * tier_sizes[t] for t in range(4)]
            weight_sum = sum(weights) or 1.0
            counts = [round(total * w / weight_sum) for w in weights]
            self._place_service_on_sites(service, counts)

    def _tail_service(
        self,
        domain: str,
        *,
        home_tier: int,
        is_ats: bool,
        listed: bool,
        countries: Optional[frozenset] = None,
        category: Optional[str] = None,
    ) -> dict:
        """Sampled attribute dict for one long-tail service."""
        rng = self.rng_services
        if category is None:
            category = [CATEGORY_ADS, CATEGORY_ADS, CATEGORY_ANALYTICS,
                        CATEGORY_CDN, CATEGORY_CONTENT, CATEGORY_SOCIAL][
                int(rng.integers(0, 6))]
        if is_ats and category in (CATEGORY_CDN, CATEGORY_CONTENT, CATEGORY_SOCIAL):
            category = CATEGORY_ADS
        https = rng.random() < self.targets.tier_https_service_fraction[home_tier]
        attributable = rng.random() < self.targets.attributable_fqdn_fraction
        organization = self.org_allocator.next_org() if attributable else None
        sets_cookies = rng.random() < 0.61 and category != CATEGORY_CDN
        names_pool = ("uid", "id", "sid", "visitor", "tuid", "cid")
        n_names = 1 + int(rng.integers(0, 3))
        cookie_names = tuple(
            names_pool[int(rng.integers(0, len(names_pool)))] for _ in range(n_names)
        )
        return {
            "domain": domain,
            "organization": organization,
            "category": category,
            "is_ats": is_ats,
            "https": https,
            "cert_org": organization if attributable else None,
            "in_easylist": listed,
            "in_easyprivacy": False,
            "in_disconnect": False,
            "sets_cookies": sets_cookies,
            "cookie_rate": float(np.exp(rng.normal(0.45, 0.35))),
            "cookie_names": tuple(dict.fromkeys(cookie_names)),
            "session_cookie_fraction": float(rng.uniform(0.1, 0.5)),
            "huge_cookie_fraction": 0.035 if rng.random() < 0.5 else 0.0,
            "embeds_client_ip_fraction": 0.2 if rng.random() < 0.01 else 0.0,
            "countries": countries,
        }

    def _build_porn_tail(self) -> None:
        """Tail services hitting the Table 2/3 distinct-domain targets."""
        targets = self.targets
        rng = self.rng_services
        tier_sizes = [len(t) for t in self.sites_by_tier]

        # Which named services landed in which tiers.
        named_tiers: Dict[str, Set[int]] = {}
        for tier, sites in enumerate(self.sites_by_tier):
            for site in sites:
                for svc in self.site_embeds[site]:
                    named_tiers.setdefault(svc, set()).add(tier)
        named_per_tier = [
            sum(1 for tiers in named_tiers.values() if t in tiers) for t in range(4)
        ]
        named_all_tiers = sum(1 for tierss in named_tiers.values() if len(tierss) == 4)
        named_unique = [
            sum(1 for tiers in named_tiers.values() if tiers == {t}) for t in range(4)
        ]

        total_target = self.scaled(targets.porn_third_party_fqdns)
        all_tier_target = max(
            0, round(targets.all_tier_fraction * total_target) - named_all_tiers
        )
        totals = [self.scaled(c) for c in targets.tier_third_party_totals]
        uniques = [self.scaled(c) for c in targets.tier_third_party_unique]

        # Listed-ATS budget for the tail.
        named_listed = sum(
            1 for s in NAMED_SERVICES
            if (s.in_easylist or s.in_easyprivacy) and s.prevalence_porn > 0
        )
        ats_budget = max(0, self.scaled(targets.porn_ats_fqdns) - named_listed)
        tail_planned = max(1, total_target - len(named_tiers))
        listed_p = min(1.0, ats_budget / tail_planned)

        created: List[str] = []
        all_tier_tail: List[str] = []
        shared_tail: List[str] = []

        def make_tail(home_tier: int) -> ThirdPartyService:
            domain = (self.names.obscure_domain() if rng.random() < 0.25
                      else self.names.adtech_domain())
            listed = rng.random() < listed_p
            attrs = self._tail_service(domain, home_tier=home_tier,
                                       is_ats=listed or rng.random() < 0.3,
                                       listed=listed)
            service = ThirdPartyService(**attrs)
            self.services[domain] = service
            created.append(domain)
            return service

        # All-tier pool.
        for _ in range(all_tier_target):
            service = make_tail(0)
            all_tier_tail.append(service.domain)
            share = float(np.exp(rng.uniform(np.log(0.001), np.log(0.02))))
            counts = [max(1, round(tier_sizes[t] * share)) for t in range(4)]
            self._place_service_on_sites(service, counts)

        # Tier-unique pools.
        for tier in range(4):
            need = max(0, uniques[tier] - named_unique[tier])
            for _ in range(need):
                service = make_tail(tier)
                count = 1 + min(int(rng.geometric(0.65)) - 1, 4)
                counts = [0, 0, 0, 0]
                counts[tier] = count
                self._place_service_on_sites(service, counts, crawlable_only=True)

        # Shared pool: consume the per-tier remainders pairwise/triple-wise.
        remainders = [
            max(0, totals[t] - named_per_tier[t] - all_tier_target
                - max(0, uniques[t] - named_unique[t]))
            for t in range(4)
        ]
        while sum(1 for r in remainders if r > 0) >= 2:
            open_tiers = [t for t in range(4) if remainders[t] > 0]
            k = 2 if len(open_tiers) == 2 or rng.random() < 0.6 else 3
            chosen = rng.choice(len(open_tiers), size=min(k, len(open_tiers)),
                                replace=False)
            tiers = [open_tiers[int(i)] for i in chosen]
            service = make_tail(min(tiers))
            shared_tail.append(service.domain)
            counts = [0, 0, 0, 0]
            for t in tiers:
                counts[t] = 1 + min(int(rng.geometric(0.7)) - 1, 3)
                remainders[t] -= 1
            self._place_service_on_sites(service, counts, crawlable_only=True)

        self._upgrade_tail_trackers(created)
        self._assign_tail_sync(created, all_tier_tail, shared_tail)
        self._assign_disconnect_coverage(created)

    def _upgrade_tail_trackers(self, created: List[str]) -> None:
        """Give a sample of tail services fingerprinting / WebRTC / malware."""
        from .thirdparty import _EVASIVE_CANVAS, _MEASURE_TEXT_PROBE  # noqa: E501 — behavior templates

        rng = self.rng_services
        pool = [d for d in created if self.services[d].category
                in (CATEGORY_ADS, CATEGORY_ANALYTICS)]
        rng.shuffle(pool)
        cursor = 0

        canvas_count = self.scaled(39)
        for domain in pool[cursor:cursor + canvas_count]:
            self.services[domain] = dataclasses.replace(
                self.services[domain],
                canvas_fp=_EVASIVE_CANVAS,
                font_probe=_MEASURE_TEXT_PROBE,
                fp_script_variants=1 + int(rng.integers(0, 2)),
                in_easylist=False,
            )
        cursor += canvas_count

        webrtc_count = self.scaled(10)
        for domain in pool[cursor:cursor + webrtc_count]:
            self.services[domain] = dataclasses.replace(
                self.services[domain],
                webrtc=True,
                webrtc_script_variants=1 + int(rng.integers(0, 3)),
            )
        cursor += webrtc_count

        malware_count = self.scaled(9)
        for domain in pool[cursor:cursor + malware_count]:
            self.services[domain] = dataclasses.replace(
                self.services[domain], scanner_hits=4 + int(rng.integers(0, 30))
            )
        cursor += malware_count

        for country_set in _GEO_MALWARE_SETS[: self.scaled(len(_GEO_MALWARE_SETS))]:
            if cursor >= len(pool):
                break
            domain = pool[cursor]
            cursor += 1
            self.services[domain] = dataclasses.replace(
                self.services[domain],
                scanner_hits=4 + int(rng.integers(0, 10)),
                malicious_countries=country_set,
            )

    def _assign_tail_sync(
        self, created: List[str], all_tier_tail: List[str],
        shared_tail: List[str],
    ) -> None:
        """Cookie-sync graph (§5.1.2 / Fig. 4).

        Origins must be services present on *many* sites to generate the
        paper's 4,675 distinct (origin, destination) pairs — each origin
        rotates through its partner pool site by site — so syncing is
        concentrated on the all-tier core and the multi-tier shared pool,
        plus the named ad networks (whose pools are widened here).
        """
        rng = self.rng_services
        cookie_setters = [d for d in created if self.services[d].sets_cookies]
        destinations = [d for d in cookie_setters if self.services[d].is_ats]
        named_receivers = [s.domain for s in NAMED_SERVICES
                           if s.accepts_first_party_sync]
        destination_pool = destinations[: self.scaled(650)] + named_receivers
        if not destination_pool:
            return

        def sample_partners(domain: str, pool_size: int) -> Tuple[str, ...]:
            chosen = rng.choice(len(destination_pool),
                                size=min(pool_size, len(destination_pool)),
                                replace=False)
            return tuple(
                destination_pool[int(i)] for i in chosen
                if destination_pool[int(i)] != domain
            )

        # Named ad networks: widen the hand-written pools.
        for service in NAMED_SERVICES:
            if not service.sync_partners:
                continue
            extra = sample_partners(service.domain, 9)
            merged = tuple(dict.fromkeys(service.sync_partners + extra))
            self.services[service.domain] = dataclasses.replace(
                self.services[service.domain], sync_partners=merged
            )

        origins: List[str] = []
        for domain in all_tier_tail:
            if self.services[domain].sets_cookies and rng.random() < 0.9:
                origins.append(domain)
        for domain in shared_tail:
            if self.services[domain].sets_cookies and rng.random() < 0.35:
                origins.append(domain)
        for domain in origins:
            pool_size = 14 + int(rng.integers(0, 10))
            self.services[domain] = dataclasses.replace(
                self.services[domain],
                sync_partners=sample_partners(domain, pool_size),
                sync_probability=float(rng.uniform(0.7, 1.0)),
            )

    def _assign_disconnect_coverage(self, created: List[str]) -> None:
        """Disconnect knows only ~142 organizations (§4.2(3))."""
        rng = self.rng_services
        named_disconnect_orgs = {
            s.organization for s in NAMED_SERVICES if s.in_disconnect and s.organization
        }
        budget = max(0, self.scaled(self.targets.disconnect_only_organizations)
                     - len(named_disconnect_orgs))
        orgs = sorted({
            self.services[d].organization for d in created
            if self.services[d].organization
        })
        rng.shuffle(orgs)
        covered = set(orgs[:budget])
        for domain in created:
            service = self.services[domain]
            if service.organization in covered:
                self.services[domain] = dataclasses.replace(service,
                                                            in_disconnect=True)

    def _build_country_unique_services(self) -> None:
        """Regional services seen from exactly one vantage point (Table 7)."""
        rng = self.rng_services
        crawlable = [d for tier in self.crawlable_by_tier for d in tier]
        per_country_unique = {c: u for c, _, u, _, _ in self.targets.per_country_fqdns}
        per_country_ats = {c: a for c, _, _, _, a in self.targets.per_country_fqdns}
        for country, unique_total in per_country_unique.items():
            service_count = self.scaled(round(unique_total * 0.9))
            ats_count = self.scaled(per_country_ats[country])
            for index in range(service_count):
                tld = "ru" if country == "RU" else None
                domain = self.names.adtech_domain(tld=tld) \
                    if rng.random() < 0.7 else self.names.obscure_domain()
                listed = index < ats_count
                attrs = self._tail_service(
                    domain, home_tier=2, is_ats=listed or rng.random() < 0.4,
                    listed=listed, countries=frozenset({country}),
                )
                service = ThirdPartyService(**attrs)
                self.services[domain] = service
                pool = crawlable if service.https else [
                    d for d in crawlable if not self.porn_attrs[d]["https"]
                ]
                if not pool:
                    continue
                count = 1 + int(rng.integers(0, 4))
                chosen = rng.choice(len(pool), size=min(count, len(pool)),
                                    replace=False)
                for i in chosen:
                    self.site_embeds[pool[int(i)]].append(domain)

    def _build_rtb_bidders(self) -> None:
        """Dynamically loaded bidders (reached only through ad iframes)."""
        rng = self.rng_services
        for _ in range(self.scaled(120)):
            domain = self.names.adtech_domain()
            attrs = self._tail_service(domain, home_tier=2, is_ats=True,
                                       listed=rng.random() < 0.3)
            self.services[domain] = ThirdPartyService(**attrs)
            self.rtb_bidders.append(domain)

    def _apply_geo_exclusions(self) -> None:
        """Russia misses ~700 services; others miss a few at random (§6)."""
        rng = self.rng_services
        global_tails = [
            d for d, s in self.services.items()
            if s.countries is None and s.prevalence_porn == 0.0
            and d not in self.rtb_bidders
        ]
        rng.shuffle(global_tails)
        ru_excluded = self.scaled(700)
        for domain in global_tails[:ru_excluded]:
            self.services[domain] = dataclasses.replace(
                self.services[domain], excluded_countries=frozenset({"RU"})
            )
        for domain in global_tails[ru_excluded:]:
            if rng.random() < 0.05:
                country = _NON_ES_COUNTRIES[int(rng.integers(0, 4))]
                self.services[domain] = dataclasses.replace(
                    self.services[domain],
                    excluded_countries=frozenset({country}),
                )

    def _ensure_minimum_embeds(self) -> None:
        """Every crawlable porn site references at least two third parties."""
        fillers = [
            s.domain for s in NAMED_SERVICES
            if s.prevalence_porn > 0 and not s.sets_cookies
            and not s.miner and not s.webrtc and not s.fingerprints
        ]
        if not fillers:
            return
        for tier in self.crawlable_by_tier:
            for domain in tier:
                embeds = self.site_embeds[domain]
                index = 0
                while len(embeds) < 2 and index < len(fillers):
                    if fillers[index] not in embeds:
                        embeds.append(fillers[index])
                    index += 1

    def _assign_first_party_sync(self) -> None:
        """Sites that forward their own visitor ID to an ad network."""
        rng = self.rng_sites
        for tier in self.crawlable_by_tier:
            for domain in tier:
                if domain in self.cookie_free_sites:
                    continue
                accepting = [
                    svc for svc in self.site_embeds[domain]
                    if self.services[svc].accepts_first_party_sync
                ]
                if accepting and rng.random() < 0.33:
                    choice = accepting[int(rng.integers(0, len(accepting)))]
                    self.porn_attrs[domain]["passes_id_to"] = choice

    # ------------------------------------------------------------------
    # Regular corpus
    # ------------------------------------------------------------------

    def build_regular_sites(self) -> None:
        targets = self.targets
        rng = self.rng_sites
        total = self.scaled(targets.regular_corpus)
        crawlable = self.scaled(targets.regular_crawlable)
        categories = ("news", "tech", "shopping", "sports", "finance", "travel",
                      "games", "health", "education", "entertainment")

        regular_domains: List[str] = []
        for index in range(total):
            domain = self.names.regular_domain()
            tier = 0 if rng.random() < 0.1 else 1
            trajectory = self.rank_model.sample(tier)
            self.regular_attrs[domain] = {
                "domain": domain,
                "trajectory": trajectory,
                "category": categories[int(rng.integers(0, len(categories)))],
                "https": rng.random() < (0.95 if tier == 0 else 0.85),
                "cert_org": None,
                "embedded_services": (),
                "first_party_cookies": 2,
                "responsive": index < crawlable,
                "has_adult_keyword": False,
                "in_reference_corpus": True,
            }
            regular_domains.append(domain)

        # Own CDNs (first-party FQDNs of Table 2's regular column).
        eligible = [d for d in regular_domains if len(d.split(".")[0]) >= 7]
        rng.shuffle(eligible)
        for domain in eligible[: self.scaled(targets.regular_first_party_fqdns)]:
            stem, _, tld = domain.rpartition(".")
            cdn_domain = self.names.reserve(f"{stem}-cdn.{tld}")
            self.site_cdns[cdn_domain] = domain

        self._place_regular_named(regular_domains)
        self._build_regular_tail(regular_domains)
        self._build_false_positive_sites()

    def _place_regular_named(self, regular_domains: List[str]) -> None:
        rng = self.rng_services
        crawlable = [d for d in regular_domains
                     if self.regular_attrs[d]["responsive"]]
        for service in NAMED_SERVICES:
            if service.prevalence_regular <= 0:
                continue
            count = max(1, round(service.prevalence_regular * len(crawlable)))
            count = min(count, len(crawlable))
            chosen = rng.choice(len(crawlable), size=count, replace=False)
            for index in chosen:
                domain = crawlable[int(index)]
                embeds = self.regular_attrs[domain].setdefault("_embeds", [])
                embeds.append(service.domain)

    def _build_regular_tail(self, regular_domains: List[str]) -> None:
        rng = self.rng_services
        targets = self.targets
        crawlable = [d for d in regular_domains
                     if self.regular_attrs[d]["responsive"]]

        # Crossover services: porn tails that also appear on regular sites.
        porn_tails = [
            d for d, s in self.services.items()
            if s.prevalence_porn == 0.0 and s.countries is None
            and d not in self.rtb_bidders
        ]
        named_cross = sum(
            1 for s in NAMED_SERVICES
            if s.prevalence_porn > 0 and s.prevalence_regular > 0
        )
        cross_budget = max(0, self.scaled(targets.fqdn_intersection) - named_cross)
        cross_ats_budget = max(
            0,
            self.scaled(targets.ats_intersection)
            - sum(1 for s in NAMED_SERVICES
                  if s.prevalence_porn > 0 and s.prevalence_regular > 0
                  and (s.in_easylist or s.in_easyprivacy)),
        )
        listed_tails = [d for d in porn_tails if self.services[d].in_easylist]
        unlisted_tails = [d for d in porn_tails if not self.services[d].in_easylist]
        rng.shuffle(listed_tails)
        rng.shuffle(unlisted_tails)
        crossover = listed_tails[:cross_ats_budget] + \
            unlisted_tails[: max(0, cross_budget - cross_ats_budget)]
        for domain in crossover:
            count = 1 + int(rng.integers(0, 5))
            chosen = rng.choice(len(crawlable), size=min(count, len(crawlable)),
                                replace=False)
            for index in chosen:
                site = crawlable[int(index)]
                self.regular_attrs[site].setdefault("_embeds", []).append(domain)

        # Regular-only tail: the bulk of the 21k distinct domains.
        regular_only = max(
            0,
            self.scaled(targets.regular_third_party_fqdns)
            - len(crossover) - named_cross
            - sum(1 for s in NAMED_SERVICES if s.prevalence_regular > 0
                  and s.prevalence_porn <= 0),
        )
        ats_quota = max(0, self.scaled(targets.regular_ats_fqdns)
                        - self.scaled(targets.ats_intersection))
        for index in range(regular_only):
            domain = self.names.adtech_domain() if rng.random() < 0.3 \
                else self.names.cdn_domain()
            listed = index < ats_quota
            attrs = self._tail_service(domain, home_tier=0,
                                       is_ats=listed, listed=listed)
            if not listed and attrs["category"] == CATEGORY_ADS:
                attrs["category"] = CATEGORY_CDN
                attrs["is_ats"] = False
                attrs["sets_cookies"] = False
            self.services[domain] = ThirdPartyService(**attrs)
            count = 1 + min(int(rng.geometric(0.55)) - 1, 6)
            chosen = rng.choice(len(crawlable), size=min(count, len(crawlable)),
                                replace=False)
            for i in chosen:
                site = crawlable[int(i)]
                self.regular_attrs[site].setdefault("_embeds", []).append(domain)

    def _build_false_positive_sites(self) -> None:
        """Non-porn sites whose domains contain adult keywords (§3)."""
        rng = self.rng_sites
        for _ in range(self.scaled(self.targets.non_porn_keyword_matches)):
            domain = self.names.false_positive_domain()
            tier = int(rng.choice(4, p=(0.01, 0.09, 0.40, 0.50)))
            trajectory = self._porn_trajectory(tier, None)
            self.regular_attrs[domain] = {
                "domain": domain,
                "trajectory": trajectory,
                "category": "news",
                "https": rng.random() < 0.6,
                "cert_org": None,
                "embedded_services": (),
                "first_party_cookies": 2,
                "responsive": True,
                "has_adult_keyword": True,
                "in_reference_corpus": False,
            }

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self, *, fetch_cache_size: Optional[int] = None) -> Universe:
        """Assemble the universe.

        Specs are stored as packed rows decoded on access, certificates
        are derived from the specs on lookup, and policy texts are
        rendered on first read (see :mod:`repro.webgen.lazyspecs`), so
        what stays resident is the routing tables plus small hot caches.
        """
        aggregators, category_sites = self._plan_discovery_sources()

        porn_packed: Dict[str, bytes] = {}
        for domain, attrs in self.porn_attrs.items():
            attrs["embedded_services"] = tuple(
                dict.fromkeys(self.site_embeds.get(domain, ()))
            )
            porn_packed[domain] = pack_porn_spec(PornSiteSpec(**attrs))
        regular_packed: Dict[str, bytes] = {}
        for domain, attrs in self.regular_attrs.items():
            embeds = attrs.pop("_embeds", [])
            attrs["embedded_services"] = tuple(dict.fromkeys(embeds))
            regular_packed[domain] = pack_regular_spec(RegularSiteSpec(**attrs))
        porn_sites = LazySpecMap(porn_packed, porn_spec_from_packed)
        regular_sites = LazySpecMap(regular_packed, regular_spec_from_packed)
        certificates = LazyCertificates(
            self._build_service_certificates(),
            porn_sites, regular_sites, self.site_cdns,
        )
        policy_texts = self._plan_policy_texts()

        easylist_text, easyprivacy_text = self._build_filter_lists()
        disconnect = self._build_disconnect()
        # The WHOIS pass draws from ``rng_sites`` once per operator-owned
        # site, in porn-site insertion order.
        whois = self._build_whois(
            (domain, attrs.get("owner"))
            for domain, attrs in self.porn_attrs.items()
        )

        return Universe(
            self.config,
            porn_sites=porn_sites,
            regular_sites=regular_sites,
            services=self.services,
            site_cdns=self.site_cdns,
            dynamic_cdn_sites=self.dynamic_cdn_sites,
            rtb_bidders=self.rtb_bidders,
            certificates=certificates,
            easylist_text=easylist_text,
            easyprivacy_text=easyprivacy_text,
            disconnect=disconnect,
            aggregator_listings=aggregators,
            alexa_category_sites=category_sites,
            policy_texts=policy_texts,
            full_list_site=self.full_list_site,
            whois=whois,
            fetch_cache_size=fetch_cache_size,
        )

    def _build_service_certificates(self) -> Dict[str, Certificate]:
        certificates: Dict[str, Certificate] = {}
        for domain, service in self.services.items():
            if not service.https:
                continue
            certificates[domain] = Certificate(
                subject_cn=domain,
                subject_o=service.cert_org,
                san=frozenset({domain, f"*.{domain}"}),
            )
        return certificates

    def _build_filter_lists(self) -> Tuple[str, str]:
        easylist = ["[Adblock Plus 2.0]", "! Title: Synthetic EasyList",
                    "! Adult advertising section"]
        easyprivacy = ["[Adblock Plus 2.0]", "! Title: Synthetic EasyPrivacy"]
        for domain, service in sorted(self.services.items()):
            if service.in_easylist:
                if service.easylist_path_only:
                    easylist.append(f"||{domain}/ad/")
                    easylist.append(f"||{domain}/px")
                else:
                    easylist.append(f"||{domain}^$third-party")
            if service.in_easyprivacy:
                easyprivacy.append(f"||{domain}^$third-party")
        return "\n".join(easylist), "\n".join(easyprivacy)

    def _build_whois(
        self, porn_owners: Iterable[Tuple[str, Optional[str]]]
    ) -> WhoisRegistry:
        """WHOIS records: ad-tech registers openly, porn sites hide.

        Attributable services expose their organization; porn-site records
        are privacy-redacted except for a fraction of operator-owned sites
        (§4.1 could attribute only 4% of sites to a company).

        ``porn_owners`` yields ``(domain, owner)`` in porn-site insertion
        order — the RNG draw per owned site makes the order part of the
        deterministic contract.
        """
        registry = WhoisRegistry()
        for domain, service in self.services.items():
            registry.register(domain, organization=service.cert_org)
        operators = {op.name: op.legal_name
                     for op in operators_from_targets(self.targets)}
        for domain, owner in porn_owners:
            organization = None
            if owner is not None and \
                    self.rng_sites.random() < 0.6:
                organization = operators.get(owner)
            registry.register(domain, organization=organization)
        return registry

    def _build_disconnect(self) -> DisconnectList:
        by_org: Dict[str, List[str]] = {}
        categories: Dict[str, str] = {}
        for domain, service in self.services.items():
            if not service.in_disconnect or not service.organization:
                continue
            by_org.setdefault(service.organization, []).append(domain)
            categories[service.organization] = (
                "analytics" if service.category == CATEGORY_ANALYTICS
                else "advertising"
            )
        entries = [
            DisconnectEntry(org, categories[org], tuple(sorted(domains)))
            for org, domains in sorted(by_org.items())
        ]
        return DisconnectList(entries)

    def _plan_discovery_sources(
        self,
    ) -> Tuple[Tuple[Tuple[str, ...], ...], Tuple[str, ...]]:
        non_keyword = [d for d, attrs in self.porn_attrs.items()
                       if attrs["responsive"] and not attrs["has_adult_keyword"]]
        self.rng_sites.shuffle(non_keyword)
        category_count = self.scaled(self.targets.from_alexa_category)
        category_sites = tuple(non_keyword[:category_count])
        aggregator_sites = non_keyword[category_count:]
        for domain in category_sites:
            self.porn_attrs[domain]["discovered_by"] = DISCOVERY_ALEXA_CATEGORY
        # Spread over three aggregator listings with overlap.
        listings: List[List[str]] = [[], [], []]
        for index, domain in enumerate(aggregator_sites):
            listings[index % 3].append(domain)
            if self.rng_sites.random() < 0.3:
                listings[(index + 1) % 3].append(domain)
        return tuple(tuple(listing) for listing in listings), category_sites

    def _plan_policy_texts(self) -> LazyPolicyTexts:
        """One packed render plan per site with a reachable policy.

        The text (mean ~17k chars, tail ~240k) is produced from the plan
        on first read.  Requires ``porn_attrs[domain]["embedded_services"]``
        to be final.
        """
        operators = {op.name: op for op in operators_from_targets(self.targets)}
        plans: Dict[str, bytes] = {}
        for domain, attrs in self.porn_attrs.items():
            policy = attrs.get("policy")
            if policy is None or policy.link_broken:
                continue
            company = None
            owner = attrs.get("owner")
            if owner is not None and owner in operators:
                company = operators[owner].legal_name
            third_parties: Tuple[str, ...] = ()
            if policy.full_third_party_list:
                third_parties = tuple(attrs["embedded_services"])
            plans[domain] = marshal.dumps(
                (policy_to_row(policy), company, third_parties)
            )
        return LazyPolicyTexts(plans, self.policy_gen)


def build_universe(
    config: Optional[UniverseConfig] = None,
    *,
    fetch_cache_size: Optional[int] = None,
    ancestor: Optional[Universe] = None,
) -> Universe:
    """Build the complete synthetic web from a configuration.

    Site specs are kept as packed rows decoded on access, so the
    universe holds O(routing tables + hot LRU) instead of O(corpus);
    ``tests/golden/universe.json`` pins what it serves.
    ``fetch_cache_size`` bounds the response cache
    (:attr:`Universe.fetch_cache`).

    ``config.epoch > 0`` builds the epoch-0 universe first, then applies
    that many deterministic evolution steps
    (:func:`repro.webgen.evolve.evolve_universe`), so any epoch is
    reachable from the configuration alone — which is what lets a stored
    epoch's universe be reconstructed for delta-crawl hash comparison.

    ``ancestor`` shortens that chain: when it is an epoch of the same
    chain no later than ``config`` (its config with ``config.epoch``
    swapped in equals ``config``), only the missing steps are applied to
    it, and an ancestor already at ``config.epoch`` is returned as is.
    Evolution is pure, so the result serves what a build from scratch
    serves.  Any other ``ancestor`` is ignored.
    """
    from .evolve import evolve_universe

    config = config or UniverseConfig()
    if ancestor is not None and ancestor.config.epoch <= config.epoch \
            and dataclasses.replace(ancestor.config,
                                    epoch=config.epoch) == config:
        universe = ancestor
    else:
        builder = _Builder(dataclasses.replace(config, epoch=0))
        builder.build_porn_sites()
        builder.build_services()
        builder.build_regular_sites()
        universe = builder.finalize(fetch_cache_size=fetch_cache_size)
    while universe.config.epoch < config.epoch:
        universe = evolve_universe(universe, fetch_cache_size=fetch_cache_size)
    return universe
