"""Streaming site generation: packed spec rows decoded on demand.

Holding one :class:`PornSiteSpec` / :class:`RegularSiteSpec` dataclass
per domain would make ``Universe`` memory O(corpus) — at scale 10 that
is ~170k spec objects plus their certificates and policy texts, most of
which a crawl worker never looks at twice.  The builder samples site
attributes from globally coupled RNG streams (so per-domain derivation
happens once, in order) and stores the finished attributes as compact
``marshal``-packed rows instead of live dataclasses:

``porn_spec_to_row`` / ``porn_spec_from_row``
    Lossless codecs between a spec dataclass and a tuple of primitives.
    ``from_row(to_row(spec)) == spec`` exactly: every field is either
    carried verbatim or stored as a sorted tuple standing in for a
    frozenset (set equality is order-blind).  A decoded spec therefore
    equals the one the builder packed, structurally.

:class:`LazySpecMap`
    A read-only :class:`~collections.abc.Mapping` from domain to spec
    that unpacks rows on access and keeps a small LRU of hot specs.
    Iteration (``items()`` / ``values()``) stream-decodes without
    touching the LRU so a full scan does not evict the working set.

:class:`LazyPolicyTexts`
    Policy pages rendered on first read.  ``PolicyGenerator.render`` is
    a pure function of (spec, domain, company, third-party list), so
    deferring it changes no bytes.

:class:`LazyCertificates`
    Site and CDN leaf certificates derived from the spec on access;
    only the (small) third-party service certificates are built up front.
"""

from __future__ import annotations

import marshal
import threading
from collections import OrderedDict
from collections.abc import Mapping
from typing import Any, Callable, Dict, Iterator, Optional

from ..net.tls import Certificate
from .policytext import PolicyGenerator, PolicySpec
from .rank import RankTrajectory
from .sites import (
    PornSiteSpec,
    RegularSiteSpec,
    age_gate_from_row,
    age_gate_to_row,
    banner_from_row,
    banner_to_row,
)

__all__ = [
    "LazyCertificates",
    "LazyPolicyTexts",
    "LazySpecMap",
    "pack_porn_spec",
    "pack_regular_spec",
    "policy_to_row",
    "policy_from_row",
    "porn_spec_from_packed",
    "porn_spec_from_row",
    "porn_spec_to_row",
    "regular_spec_from_packed",
    "regular_spec_from_row",
    "regular_spec_to_row",
    "trajectory_to_row",
    "trajectory_from_row",
]


# ----------------------------------------------------------------------
# Nested codecs
# ----------------------------------------------------------------------

def trajectory_to_row(trajectory: RankTrajectory) -> tuple:
    return (
        trajectory.best_rank,
        trajectory.sigma,
        trajectory.observed_best,
        trajectory.observed_median,
        trajectory.observed_worst,
        trajectory.days_present,
        trajectory.days_total,
    )


def trajectory_from_row(row: tuple) -> RankTrajectory:
    return RankTrajectory(*row)


def policy_to_row(spec: PolicySpec) -> tuple:
    return (
        spec.template_id,
        spec.target_length,
        spec.mentions_gdpr,
        spec.discloses_cookies,
        spec.discloses_data_types,
        spec.discloses_third_parties,
        spec.full_third_party_list,
        spec.link_broken,
    )


def policy_from_row(row: tuple) -> PolicySpec:
    return PolicySpec(*row)


def _opt(value: Any, encode: Callable[[Any], tuple]) -> Optional[tuple]:
    return None if value is None else encode(value)


def _opt_decode(row: Optional[tuple], decode: Callable[[tuple], Any]) -> Any:
    return None if row is None else decode(row)


# ----------------------------------------------------------------------
# Spec codecs
# ----------------------------------------------------------------------

def porn_spec_to_row(spec: PornSiteSpec) -> tuple:
    return (
        spec.domain,
        trajectory_to_row(spec.trajectory),
        spec.language,
        spec.content_category,
        spec.owner,
        spec.cert_org,
        spec.discovered_by,
        spec.has_adult_keyword,
        spec.responsive,
        spec.crawl_flaky,
        spec.https,
        tuple(spec.extra_first_party_hosts),
        tuple(spec.embedded_services),
        tuple(spec.regional_services),
        spec.first_party_cookies,
        spec.first_party_id_cookie,
        spec.passes_id_to,
        spec.first_party_canvas_fp,
        _opt(spec.policy, policy_to_row),
        _opt(spec.banner, banner_to_row),
        _opt(spec.age_gate, age_gate_to_row),
        spec.rta_label,
        spec.subscription,
        spec.scanner_hits,
        tuple(sorted(spec.blocked_countries)),
    )


def porn_spec_from_row(row: tuple) -> PornSiteSpec:
    return PornSiteSpec(
        domain=row[0],
        trajectory=trajectory_from_row(row[1]),
        language=row[2],
        content_category=row[3],
        owner=row[4],
        cert_org=row[5],
        discovered_by=row[6],
        has_adult_keyword=row[7],
        responsive=row[8],
        crawl_flaky=row[9],
        https=row[10],
        extra_first_party_hosts=row[11],
        embedded_services=row[12],
        regional_services=row[13],
        first_party_cookies=row[14],
        first_party_id_cookie=row[15],
        passes_id_to=row[16],
        first_party_canvas_fp=row[17],
        policy=_opt_decode(row[18], policy_from_row),
        banner=_opt_decode(row[19], banner_from_row),
        age_gate=_opt_decode(row[20], age_gate_from_row),
        rta_label=row[21],
        subscription=row[22],
        scanner_hits=row[23],
        blocked_countries=frozenset(row[24]),
    )


def regular_spec_to_row(spec: RegularSiteSpec) -> tuple:
    return (
        spec.domain,
        trajectory_to_row(spec.trajectory),
        spec.category,
        spec.https,
        spec.cert_org,
        tuple(spec.extra_first_party_hosts),
        tuple(spec.embedded_services),
        spec.first_party_cookies,
        spec.responsive,
        spec.has_adult_keyword,
        spec.in_reference_corpus,
    )


def regular_spec_from_row(row: tuple) -> RegularSiteSpec:
    return RegularSiteSpec(
        domain=row[0],
        trajectory=trajectory_from_row(row[1]),
        category=row[2],
        https=row[3],
        cert_org=row[4],
        extra_first_party_hosts=row[5],
        embedded_services=row[6],
        first_party_cookies=row[7],
        responsive=row[8],
        has_adult_keyword=row[9],
        in_reference_corpus=row[10],
    )


def pack_porn_spec(spec: PornSiteSpec) -> bytes:
    """Spec -> compact bytes (marshal avoids per-element object headers)."""
    return marshal.dumps(porn_spec_to_row(spec))


def porn_spec_from_packed(blob: bytes) -> PornSiteSpec:
    return porn_spec_from_row(marshal.loads(blob))


def pack_regular_spec(spec: RegularSiteSpec) -> bytes:
    return marshal.dumps(regular_spec_to_row(spec))


def regular_spec_from_packed(blob: bytes) -> RegularSiteSpec:
    return regular_spec_from_row(marshal.loads(blob))


# ----------------------------------------------------------------------
# Lazy containers
# ----------------------------------------------------------------------

class LazySpecMap(Mapping):
    """Read-only domain -> spec mapping over packed rows with an LRU.

    Point lookups (``map[domain]`` / ``map.get``) go through the LRU so
    the specs a crawl is actively serving stay decoded; full scans
    (``items()`` / ``values()``) stream transient decodes and leave the
    LRU alone.
    """

    def __init__(
        self,
        packed: Dict[str, bytes],
        decode: Callable[[bytes], Any],
        *,
        hot_size: int = 1024,
    ) -> None:
        self._packed = packed
        self._decode = decode
        self._hot_size = hot_size
        self._hot: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __getitem__(self, domain: str) -> Any:
        with self._lock:
            spec = self._hot.get(domain)
            if spec is not None:
                self._hot.move_to_end(domain)
                return spec
        spec = self._decode(self._packed[domain])
        with self._lock:
            self._hot[domain] = spec
            self._hot.move_to_end(domain)
            while len(self._hot) > self._hot_size:
                self._hot.popitem(last=False)
        return spec

    def __contains__(self, domain: object) -> bool:
        return domain in self._packed

    def __iter__(self) -> Iterator[str]:
        return iter(self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def items(self):  # type: ignore[override]
        decode = self._decode
        for domain, blob in self._packed.items():
            yield domain, decode(blob)

    def values(self):  # type: ignore[override]
        for _, spec in self.items():
            yield spec


class LazyPolicyTexts(Mapping):
    """Domain -> rendered privacy-policy text, rendered on first read.

    Holds one packed ``(policy_row, company, third_parties)`` plan per
    site that publishes a reachable policy; the text itself (up to 240k
    characters per site) is produced on demand.  Rendering is pure, so
    the text depends on the plan alone (``tests/golden/universe.json``
    pins it).
    """

    def __init__(
        self,
        plans: Dict[str, bytes],
        generator: PolicyGenerator,
        *,
        hot_size: int = 128,
    ) -> None:
        self._plans = plans
        self._generator = generator
        self._hot_size = hot_size
        self._hot: "OrderedDict[str, str]" = OrderedDict()
        self._lock = threading.Lock()

    def __getitem__(self, domain: str) -> str:
        with self._lock:
            text = self._hot.get(domain)
            if text is not None:
                self._hot.move_to_end(domain)
                return text
        policy_row, company, third_parties = marshal.loads(self._plans[domain])
        text = self._generator.render(
            policy_from_row(policy_row),
            site_domain=domain,
            company=company,
            third_parties=third_parties,
        )
        with self._lock:
            self._hot[domain] = text
            self._hot.move_to_end(domain)
            while len(self._hot) > self._hot_size:
                self._hot.popitem(last=False)
        return text

    def plan(self, domain: str) -> Optional[bytes]:
        """The packed plan the site's text renders from (``None`` when
        the site publishes no policy): everything site-specific the text
        depends on, in far fewer bytes than the text (up to 240k
        characters)."""
        return self._plans.get(domain)

    def __contains__(self, domain: object) -> bool:
        return domain in self._plans

    def __iter__(self) -> Iterator[str]:
        return iter(self._plans)

    def __len__(self) -> int:
        return len(self._plans)


class LazyCertificates(Mapping):
    """Host -> leaf certificate, deriving site/CDN certs from specs.

    Third-party service certificates are built up front (``base``);
    porn/regular site and own-CDN certificates are a pure function of
    the site spec and are built on access.
    """

    def __init__(
        self,
        base: Dict[str, Certificate],
        porn_sites: Mapping,
        regular_sites: Mapping,
        site_cdns: Dict[str, str],
    ) -> None:
        self._base = base
        self._porn = porn_sites
        self._regular = regular_sites
        self._site_cdns = site_cdns

    def __getitem__(self, domain: str) -> Certificate:
        cert = self._base.get(domain)
        if cert is not None:
            return cert
        site = self._porn.get(domain)
        if site is not None:
            if not site.https:
                raise KeyError(domain)
            return Certificate(
                subject_cn=domain,
                subject_o=site.cert_org,
                san=frozenset({domain, f"*.{domain}"}),
            )
        site = self._regular.get(domain)
        if site is not None:
            if not site.https:
                raise KeyError(domain)
            return Certificate(
                subject_cn=domain, subject_o=None,
                san=frozenset({domain, f"*.{domain}"}),
            )
        owner_domain = self._site_cdns.get(domain)
        if owner_domain is not None:
            owner = self._porn.get(owner_domain) or self._regular.get(owner_domain)
            if owner is not None and owner.https:
                # SAN bridging: the CDN certificate also covers the parent.
                return Certificate(
                    subject_cn=domain,
                    subject_o=getattr(owner, "cert_org", None),
                    san=frozenset({domain, f"*.{domain}", owner_domain}),
                )
        raise KeyError(domain)

    def __contains__(self, domain: object) -> bool:
        try:
            self[domain]  # type: ignore[index]
        except KeyError:
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        seen = set(self._base)
        yield from self._base
        for maps in (self._porn, self._regular):
            for domain, site in maps.items():
                if site.https and domain not in seen:
                    seen.add(domain)
                    yield domain
        for cdn_domain, owner_domain in self._site_cdns.items():
            if cdn_domain in seen:
                continue
            owner = self._porn.get(owner_domain) or self._regular.get(owner_domain)
            if owner is not None and owner.https:
                seen.add(cdn_domain)
                yield cdn_domain

    def __len__(self) -> int:
        return sum(1 for _ in self)
