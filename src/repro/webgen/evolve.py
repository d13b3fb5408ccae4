"""Deterministic epoch evolution of an assembled universe.

The paper measures a single snapshot; longitudinal studies (Clash of the
Trackers, WhoTracks.Me) need the ecosystem to *change over time*.
:func:`evolve_universe` derives epoch ``N+1`` from epoch ``N`` with the
churn patterns those studies report:

- a ``config.churn`` fraction of sites change page content (their embed
  order rotates, or their RTA labeling flips),
- trackers die (tail services are delisted from the pages that embedded
  them), are born (new unlisted ad-tech domains appear and spread), and
  consolidate (one organization absorbs another — a pure attribution
  change that does not alter a single page),
- sites migrate to HTTPS, and consent banners spread post-GDPR.

Everything is a pure function of ``(seed, epoch)``: evolving the same
universe twice yields byte-identical successors, and
``build_universe(UniverseConfig(epoch=N))`` reaches the same epoch by
applying N evolution steps to the epoch-0 build.

The **domain corpus is invariant** across epochs — no site is born or
dies, only content and the third-party ecosystem change.  That gives
every epoch the same corpus ``domains_hash`` so delta crawls
(:mod:`repro.datastore.delta`) can map site slices 1:1 between epochs.

**Lineage.**  Each evolved universe records which sites it changed
(``Universe.content_changed_since``): the overlay keys of every step
since each earlier epoch of its chain.  Consolidation rewrites only
attribution metadata (``organization`` / ``cert_org`` /
``in_disconnect``) and changes no response byte, so it adds no site;
every other operation reaches a page only through its overlay entry.
Delta crawls splice every site outside that set
(:meth:`Universe.changed_domains_since`).

**Site hashes.**  :class:`AnalysisHashIndex` fingerprints everything a
visit to a site could observe and every per-site analysis could read:
the packed site spec, the site's CDN assignment, and the transitive
service closure (embedded services, their sync partners, the RTB
bidders reachable through any ad frame), with every behavioral field
of each service *and* its attribution fields, which party labeling
reads.  It keys the aggregate cache of sanitize verdicts and
inspections (:mod:`repro.datastore.incremental`); a hash match means a
cached result still holds, a mismatch merely forces a recompute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..net.tls import Certificate
from ..net.whois import WhoisRegistry
from ..util import stable_hash
from .lazyspecs import LazyCertificates, porn_spec_to_row, regular_spec_to_row
from .sites import BANNER_TYPES, BannerSpec, PornSiteSpec
from .thirdparty import (
    CATEGORY_ADS,
    CATEGORY_ANALYTICS,
    CATEGORY_CDN,
    ThirdPartyService,
)
from .universe import Universe

__all__ = [
    "evolve_universe",
    "AnalysisHashIndex",
    "analysis_hash_index",
]

#: Per-epoch probability that a non-HTTPS porn site migrates to HTTPS.
HTTPS_MIGRATION_RATE = 0.02
#: Per-epoch probability that a bannerless responsive porn site gains one.
BANNER_SPREAD_RATE = 0.02
#: Fraction of the service catalog delisted per epoch (tail services only).
TRACKER_DEATH_FRACTION = 0.02
#: Per-epoch probability that one organization absorbs another.
CONSOLIDATION_RATE = 0.7
#: Fraction of porn sites that pick up a newly-born tracker.
BIRTH_SPREAD_FRACTION = 0.01

#: Service fields that consolidation rewrites; everything else is part of
#: the behavioral fingerprint.  Keep in sync with ``evolve_universe``.
ATTRIBUTION_ONLY_FIELDS = frozenset({"organization", "cert_org", "in_disconnect"})


class _OverlayMap(Mapping):
    """Base spec mapping plus a small dict of per-epoch overrides.

    Iteration preserves base key order (evolution never adds or removes
    sites), so routing tables and RNG-free scans stay order-identical to
    the base epoch.  The base is a ``LazySpecMap`` (or an earlier
    epoch's overlay); consumers only use the ``Mapping`` interface.
    """

    def __init__(self, base: Mapping, changed: Dict[str, object]) -> None:
        self._base = base
        self._changed = changed

    def __getitem__(self, domain: str):
        spec = self._changed.get(domain)
        if spec is not None:
            return spec
        return self._base[domain]

    def get(self, domain, default=None):
        spec = self._changed.get(domain)
        if spec is not None:
            return spec
        return self._base.get(domain, default)

    def __contains__(self, domain: object) -> bool:
        return domain in self._base

    def __iter__(self) -> Iterator[str]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def items(self):  # type: ignore[override]
        changed = self._changed
        for domain, spec in self._base.items():
            override = changed.get(domain)
            yield domain, (override if override is not None else spec)

    def values(self):  # type: ignore[override]
        for _, spec in self.items():
            yield spec


def _service_fingerprint(service: ThirdPartyService) -> bytes:
    """Canonical bytes of every field that can influence a served byte.

    Excludes exactly ``ATTRIBUTION_ONLY_FIELDS`` plus generation-time
    ground truth (``is_ats``, prevalences, tier weights, scanner
    reputation) that no response handler reads.
    """
    row = (
        service.domain,
        service.category,
        service.https,
        tuple(service.host_prefixes),
        service.wildcard_subdomains,
        service.in_easylist,
        service.easylist_path_only,
        service.in_easyprivacy,
        service.sets_cookies,
        service.cookie_rate,
        tuple(service.cookie_names),
        service.cookie_id_length,
        service.session_cookie_fraction,
        service.huge_cookie_fraction,
        service.embeds_client_ip_fraction,
        service.embeds_geo,
        service.geo_includes_isp,
        tuple(service.sync_partners),
        service.sync_probability,
        service.accepts_first_party_sync,
        repr(service.canvas_fp),
        repr(service.font_probe),
        service.fp_probability,
        service.fp_script_variants,
        service.webrtc,
        service.webrtc_probability,
        service.webrtc_script_variants,
        service.miner,
        service.miner_pool,
        None if service.countries is None else tuple(sorted(service.countries)),
        tuple(sorted(service.excluded_countries)),
    )
    return repr(row).encode()


class AnalysisHashIndex:
    """Per-site hashes over everything a visit and its analyses can read.

    ``hash_of(domain)`` is vantage-independent by design: it covers the
    full service closure for every country (conservative — a geo-fenced
    change hashes differently even for countries that never see it).
    Each service's fingerprint folds in the attribution-only fields
    (``ATTRIBUTION_ONLY_FIELDS``) that serving never reads but party
    labeling does (``share_organization`` inside ``_is_first_party``):
    a consolidation epoch rewrites certificate organizations without
    changing a served byte.

    A cached sanitize or inspection pass hashes *every* site it looks
    up (the lookup key), so each service's transitive sync-partner
    closure and its 32-byte digest are memoized once, and a site's hash
    folds the *sorted union* of its root services' closures.  Order
    insensitivity is sound: the site's own packed row already pins the
    embed order, and the closure contributes only which services are
    reachable and what each serves.
    """

    def __init__(self, universe: Universe) -> None:
        self.universe = universe
        self._hashes: Dict[str, Optional[str]] = {}
        self._service_digests: Dict[str, bytes] = {}
        # name -> (closure member frozenset, closure reaches ads)
        self._closures: Dict[str, Tuple[frozenset, bool]] = {}
        self._bidders_digest: Optional[bytes] = None

    def hash_of(self, domain: str) -> Optional[str]:
        """The site's hash, or ``None`` for unknown domains."""
        try:
            return self._hashes[domain]
        except KeyError:
            value = self._compute(domain)
            self._hashes[domain] = value
            return value

    def _service_digest(self, name: str) -> bytes:
        digest = self._service_digests.get(name)
        if digest is None:
            service = self.universe.services.get(name)
            if service is None:
                # Delisted or never existed: pages that still reference it
                # get failed embeds, which is observable — hash the absence.
                blob = b"dead\x1f" + name.encode()
            else:
                blob = _service_fingerprint(service) + b"\x1fattr\x1f" + repr(
                    (service.organization, service.cert_org,
                     service.in_disconnect)
                ).encode()
            digest = hashlib.sha256(name.encode() + b"\x1f" + blob).digest()
            self._service_digests[name] = digest
        return digest

    def _closure(self, name: str) -> Tuple[frozenset, bool]:
        """One service's transitive sync-partner closure (memoized)."""
        cached = self._closures.get(name)
        if cached is not None:
            return cached
        seen: set = set()
        queue: List[str] = [name]
        reaches_ads = False
        cursor = 0
        while cursor < len(queue):
            current = queue[cursor]
            cursor += 1
            if current in seen:
                continue
            sub = self._closures.get(current)
            if sub is not None:
                # A fully-computed closure subsumes its whole subgraph.
                seen.update(sub[0])
                reaches_ads = reaches_ads or sub[1]
                continue
            seen.add(current)
            service = self.universe.services.get(current)
            if service is None:
                continue
            queue.extend(service.sync_partners)
            if service.category == CATEGORY_ADS:
                reaches_ads = True
        result = (frozenset(seen), reaches_ads)
        self._closures[name] = result
        return result

    def _bidders(self) -> bytes:
        """One digest over the RTB bidder closure, computed once."""
        if self._bidders_digest is None:
            members: set = set()
            for bidder in self.universe.rtb_bidders:
                members.update(self._closure(bidder)[0])
            digest = hashlib.sha256(b"bidders")
            for name in sorted(members):
                digest.update(self._service_digest(name))
            self._bidders_digest = digest.digest()
        return self._bidders_digest

    def _compute(self, domain: str) -> Optional[str]:
        universe = self.universe
        spec = universe.porn_sites.get(domain)
        roots: List[str]
        if spec is not None:
            kind = b"porn"
            # repr of the canonical row, not marshal: marshal encodes the
            # *interning state* of strings, which varies with decode path.
            packed = repr(porn_spec_to_row(spec)).encode()
            roots = list(spec.embedded_services)
            roots.extend(partner for _, partner in spec.regional_services)
            if spec.passes_id_to:
                roots.append(spec.passes_id_to)
        else:
            spec = universe.regular_sites.get(domain)
            if spec is None:
                return None
            kind = b"regular"
            packed = repr(regular_spec_to_row(spec)).encode()
            roots = list(spec.embedded_services)
        digest = hashlib.sha256()
        digest.update(kind)
        digest.update(b"\x1f")
        digest.update(packed)
        digest.update(
            repr(
                (
                    universe._cdn_of_site.get(domain),
                    domain in universe.dynamic_cdn_sites,
                    domain == universe.full_list_site,
                )
            ).encode()
        )
        members: set = set()
        reaches_ads = False
        for root in roots:
            closure, ads = self._closure(root)
            members.update(closure)
            reaches_ads = reaches_ads or ads
        for name in sorted(members):
            digest.update(self._service_digest(name))
        if reaches_ads:
            digest.update(b"\x1fbidders\x1f")
            digest.update(self._bidders())
        return digest.hexdigest()


def analysis_hash_index(universe: Universe) -> AnalysisHashIndex:
    """The universe's :class:`AnalysisHashIndex`, built once per universe.

    Cached on the universe object so every run a study analyzes
    incrementally shares one fingerprint/hash memo.
    """
    index = getattr(universe, "_analysis_hash_index", None)
    if index is None:
        index = AnalysisHashIndex(universe)
        universe._analysis_hash_index = index
    return index


def _consolidate(
    rng: random.Random, services: Dict[str, ThirdPartyService]
) -> Dict[str, ThirdPartyService]:
    """One organization absorbs another; page bytes are untouched."""
    organizations = sorted(
        {svc.organization for svc in services.values() if svc.organization}
    )
    if len(organizations) < 2 or rng.random() >= CONSOLIDATION_RATE:
        return services
    absorbed, absorber = rng.sample(organizations, 2)
    absorber_cert = next(
        (
            svc.cert_org
            for svc in services.values()
            if svc.organization == absorber and svc.cert_org
        ),
        absorber,
    )
    merged = {}
    for domain, svc in services.items():
        if svc.organization == absorbed:
            svc = dataclasses.replace(
                svc,
                organization=absorber,
                # DV certificates stay DV; OV subjects move to the absorber.
                cert_org=absorber_cert if svc.cert_org else None,
            )
        merged[domain] = svc
    return merged


def _born_services(rng: random.Random, epoch: int) -> List[ThirdPartyService]:
    """One or two new unlisted tail trackers per epoch."""
    count = 1 if rng.random() < 0.5 else 2
    born = []
    for index in range(count):
        born.append(
            ThirdPartyService(
                domain=f"adnet-e{epoch}{'abcdef'[index]}.com",
                organization=None,
                category=CATEGORY_ADS,
                is_ats=True,
                tier_weights=(0.2, 0.5, 1.0, 1.5),
                https=rng.random() < 0.5,
                cert_org=None,
                in_easylist=False,
                in_easyprivacy=False,
                in_disconnect=False,
                sets_cookies=True,
                cookie_names=("uid",),
                cookie_id_length=24,
            )
        )
    return born


def _filter_lists(services: Dict[str, ThirdPartyService]) -> Tuple[str, str]:
    """Mirror of ``_Builder._build_filter_lists`` over an evolved catalog."""
    easylist = ["[Adblock Plus 2.0]", "! Title: Synthetic EasyList",
                "! Adult advertising section"]
    easyprivacy = ["[Adblock Plus 2.0]", "! Title: Synthetic EasyPrivacy"]
    for domain, service in sorted(services.items()):
        if service.in_easylist:
            if service.easylist_path_only:
                easylist.append(f"||{domain}/ad/")
                easylist.append(f"||{domain}/px")
            else:
                easylist.append(f"||{domain}^$third-party")
        if service.in_easyprivacy:
            easyprivacy.append(f"||{domain}^$third-party")
    return "\n".join(easylist), "\n".join(easyprivacy)


def _disconnect_list(services: Dict[str, ThirdPartyService]):
    """Mirror of ``_Builder._build_disconnect`` over an evolved catalog."""
    from ..blocklists.disconnect import DisconnectEntry, DisconnectList

    by_org: Dict[str, List[str]] = {}
    categories: Dict[str, str] = {}
    for domain, service in services.items():
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


def _service_certificates(
    services: Dict[str, ThirdPartyService]
) -> Dict[str, Certificate]:
    """Mirror of ``_Builder._build_service_certificates``."""
    certificates: Dict[str, Certificate] = {}
    for domain, service in services.items():
        if not service.https:
            continue
        certificates[domain] = Certificate(
            subject_cn=domain,
            subject_o=service.cert_org,
            san=frozenset({domain, f"*.{domain}"}),
        )
    return certificates


def _evolved_whois(
    base: WhoisRegistry, services: Dict[str, ThirdPartyService]
) -> WhoisRegistry:
    """Copy site records verbatim; re-register the service catalog.

    ``_Builder._build_whois`` draws an RNG per owned porn site, so it must
    never re-run — porn-site attribution is carried over record-by-record.
    Service records are pure functions of ``cert_org`` and are refreshed
    so consolidation and births show up in WHOIS.
    """
    registry = base.clone()
    for domain, service in services.items():
        registry.register(domain, organization=service.cert_org)
    return registry


def evolve_universe(
    universe: Universe,
    *,
    epoch: Optional[int] = None,
    fetch_cache_size: Optional[int] = None,
) -> Universe:
    """Derive the next epoch's universe deterministically.

    ``epoch`` optionally asserts which epoch ``universe`` is (it must
    equal ``universe.config.epoch``); the result is always epoch
    ``universe.config.epoch + 1``.  The returned universe shares the
    site-spec storage of its parent through copy-on-write overlays and
    gets a **fresh fetch cache** — the memo key does not include the
    universe epoch, so sharing one would serve stale bytes.
    """
    config = universe.config
    if epoch is not None and epoch != config.epoch:
        raise ValueError(
            f"universe is at epoch {config.epoch}, not {epoch}"
        )
    new_epoch = config.epoch + 1
    rng = random.Random(stable_hash(config.seed, "evolve", new_epoch))

    services = _consolidate(rng, dict(universe.services))

    # Tracker death: delist tail services from every embedding page.  The
    # service object *stays* in the catalog (and DNS) so RTB bidders and
    # sync chains of unchanged pages keep resolving identically.
    bidder_set = set(universe.rtb_bidders)
    tail = sorted(
        domain
        for domain, svc in services.items()
        if domain not in bidder_set
        and svc.category != CATEGORY_CDN
        and svc.prevalence_porn < 0.005
        and svc.prevalence_regular < 0.005
    )
    death_count = min(len(tail), max(1, round(len(services) * TRACKER_DEATH_FRACTION)), 2)
    dead = frozenset(rng.sample(tail, death_count)) if death_count else frozenset()

    born = _born_services(rng, new_epoch)
    for svc in born:
        if svc.domain in services or svc.domain in universe.porn_sites \
                or svc.domain in universe.regular_sites:
            raise RuntimeError(f"evolved service domain collides: {svc.domain}")
        services[svc.domain] = svc
    born_domains = tuple(svc.domain for svc in born)
    porn_domains = list(universe.porn_sites)
    spread = max(2, round(len(porn_domains) * BIRTH_SPREAD_FRACTION))
    birth_targets = set(rng.sample(porn_domains, min(spread, len(porn_domains))))

    # Per-site pass, porn then regular, in base map order.  Three RNG
    # draws per porn site and one per regular site are made
    # unconditionally so the stream never depends on prior epochs' state.
    changed_porn: Dict[str, PornSiteSpec] = {}
    for domain, spec in universe.porn_sites.items():
        r_churn, r_https, r_banner = rng.random(), rng.random(), rng.random()
        updates: Dict[str, object] = {}
        embeds = spec.embedded_services
        new_embeds = tuple(d for d in embeds if d not in dead)
        if domain in birth_targets and spec.responsive:
            new_embeds = new_embeds + born_domains
        if r_churn < config.churn:
            if len(new_embeds) >= 2:
                new_embeds = new_embeds[1:] + new_embeds[:1]
            else:
                updates["rta_label"] = not spec.rta_label
        if new_embeds != embeds:
            updates["embedded_services"] = new_embeds
        if not spec.https and r_https < HTTPS_MIGRATION_RATE:
            updates["https"] = True
        if spec.banner is None and spec.responsive \
                and r_banner < BANNER_SPREAD_RATE:
            updates["banner"] = BannerSpec(
                BANNER_TYPES[
                    stable_hash(config.seed, "evolve-banner", new_epoch, domain) % 3
                ],
                eu_only=stable_hash(
                    config.seed, "evolve-banner-geo", new_epoch, domain
                ) % 2 == 0,
            )
        if updates:
            changed_porn[domain] = dataclasses.replace(spec, **updates)

    changed_regular: Dict[str, object] = {}
    for domain, spec in universe.regular_sites.items():
        r_churn = rng.random()
        updates = {}
        embeds = spec.embedded_services
        new_embeds = tuple(d for d in embeds if d not in dead)
        if r_churn < config.churn and len(new_embeds) >= 2:
            new_embeds = new_embeds[1:] + new_embeds[:1]
        if new_embeds != embeds:
            updates["embedded_services"] = new_embeds
        if updates:
            changed_regular[domain] = dataclasses.replace(spec, **updates)

    porn_sites = _OverlayMap(universe.porn_sites, changed_porn)
    regular_sites = _OverlayMap(universe.regular_sites, changed_regular)
    easylist_text, easyprivacy_text = _filter_lists(services)
    certificates = LazyCertificates(
        _service_certificates(services),
        porn_sites,
        regular_sites,
        universe.site_cdns,
    )
    evolved = Universe(
        dataclasses.replace(config, epoch=new_epoch),
        porn_sites=porn_sites,
        regular_sites=regular_sites,
        services=services,
        site_cdns=universe.site_cdns,
        dynamic_cdn_sites=universe.dynamic_cdn_sites,
        rtb_bidders=universe.rtb_bidders,
        certificates=certificates,
        easylist_text=easylist_text,
        easyprivacy_text=easyprivacy_text,
        disconnect=_disconnect_list(services),
        aggregator_listings=universe.aggregator_listings,
        alexa_category_sites=universe.alexa_category_sites,
        # Policies are rarely updated in the wild; texts are carried over.
        # Only Selenium inspections read them, and those re-run per epoch
        # identically in full and delta studies alike.
        policy_texts=universe._policy_texts,
        full_list_site=universe.full_list_site,
        whois=_evolved_whois(universe.whois, services),
        fetch_cache_size=fetch_cache_size or universe.fetch_cache.maxsize,
    )
    # Lineage for the delta-crawl fast path: the overlay keys are exactly
    # the sites whose served content can differ from the base epoch —
    # every other evolution op either edits attribution-only fields
    # (consolidation) or reaches pages only *through* an overlay entry
    # (births/deaths edit embed lists, which live in the overlays).
    changed = frozenset(changed_porn) | frozenset(changed_regular)
    evolved.content_changed_since = {
        base: prior | changed
        for base, prior in universe.content_changed_since.items()
    }
    evolved.content_changed_since[config.epoch] = changed
    return evolved
