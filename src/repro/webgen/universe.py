"""The synthetic web: assembly (builder) and serving (server side).

:func:`build_universe` deterministically constructs every website and
third-party service from a :class:`~repro.webgen.config.UniverseConfig`.
:class:`Universe` then acts as the *server side* of the web: the browser
sends it :class:`~repro.net.http.Request` objects and receives responses
whose cookies, redirects, and script behaviors reproduce — in aggregate —
the behaviors the paper measured.

Ground truth (site specs, service specs) lives here and is used only by
the generator and by evaluation code that validates the analysis pipeline;
the analysis itself consumes crawl logs exclusively.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..blocklists.disconnect import DisconnectList
from ..cache import FetchCache
from ..js.runtime import CanvasBehavior, FontProbeBehavior, ScriptBehavior
from ..net.dns import DNSResolver
from ..net.geo import COUNTRIES, GeoIPDatabase, IPAllocator
from ..net.http import Headers, Request, Response
from ..net.tls import Certificate
from ..net.whois import WhoisRegistry
from ..net.url import URL, parse_url, registrable_domain
from ..util import stable_hash, token_for
from .config import UniverseConfig
from .lazyspecs import LazyPolicyTexts
from .render import (
    page_manifest,
    render_error_page,
    render_policy_page,
    render_porn_landing,
    render_regular_landing,
)
from .sites import PornSiteSpec, RegularSiteSpec
from .thirdparty import (
    CATEGORY_ANALYTICS,
    CATEGORY_CDN,
    CATEGORY_SOCIAL,
    ThirdPartyService,
)

__all__ = [
    "ClientContext",
    "FetchError",
    "SiteUnresponsiveError",
    "SiteTimeoutError",
    "TLSUnsupportedError",
    "Universe",
    "build_universe",
]

_COUNTRY_CODES = ("US", "UK", "ES", "RU", "IN", "SG")

#: Canvas/measureText behavior templates for tail and first-party scripts.
_TAIL_CANVAS = CanvasBehavior(width=260, height=80, colors=2, reads_back=True,
                              uses_save_restore=True)
_TAIL_PROBE = FontProbeBehavior(fonts=5, repeats_per_font=13)


class FetchError(Exception):
    """The request could not be served at all (network-level failure)."""


class SiteUnresponsiveError(FetchError):
    """The host never responds (dead site — a §3 sanitization false positive)."""


class SiteTimeoutError(FetchError):
    """The site exceeded the crawler's 120 s page-load timeout."""


class TLSUnsupportedError(FetchError):
    """The host refused the TLS handshake (HTTP-only server).

    The one failure mode where the crawler's HTTPS-first policy should
    retry over plain HTTP (§5.2); every other :class:`FetchError` —
    dead site, timeout, no route, geo-excluded service — fails the same
    way on both schemes, so downgrading would only mint a second failed
    request record.
    """


@dataclass(frozen=True)
class ClientContext:
    """Who is asking: a vantage point plus the crawl phase.

    ``epoch`` distinguishes the sanitization crawl from the main crawl so
    that the 497 flaky sites succeed in the former and fail in the latter,
    as in the paper's corpus accounting.
    """

    country_code: str = "ES"
    client_ip: str = "31.0.0.1"
    epoch: str = "crawl"  # "sanitization" | "crawl"

    @property
    def in_eu(self) -> bool:
        return COUNTRIES[self.country_code].in_eu


def _fraction(*parts) -> float:
    """A deterministic uniform [0,1) value derived from the parts."""
    return (stable_hash(*parts) % 10_000_000) / 10_000_000.0


class Universe:
    """The assembled synthetic web (server side + data sources)."""

    def __init__(
        self,
        config: UniverseConfig,
        *,
        porn_sites: Mapping[str, PornSiteSpec],
        regular_sites: Mapping[str, RegularSiteSpec],
        services: Dict[str, ThirdPartyService],
        site_cdns: Dict[str, str],
        dynamic_cdn_sites: Set[str],
        rtb_bidders: List[str],
        certificates: Mapping[str, Certificate],
        easylist_text: str,
        easyprivacy_text: str,
        disconnect: DisconnectList,
        aggregator_listings: Tuple[Tuple[str, ...], ...],
        alexa_category_sites: Tuple[str, ...],
        policy_texts: LazyPolicyTexts,
        full_list_site: Optional[str],
        whois: Optional[WhoisRegistry] = None,
        fetch_cache_size: Optional[int] = None,
    ) -> None:
        self.config = config
        self.targets = config.targets
        self.porn_sites = porn_sites
        self.regular_sites = regular_sites
        self.services = services
        self.site_cdns = site_cdns          # cdn registrable domain -> site domain
        self.dynamic_cdn_sites = dynamic_cdn_sites
        self.rtb_bidders = rtb_bidders
        self.certificates = certificates
        self.easylist_text = easylist_text
        self.easyprivacy_text = easyprivacy_text
        self.disconnect = disconnect
        self.aggregator_listings = aggregator_listings
        self.alexa_category_sites = alexa_category_sites
        self._policy_texts = policy_texts
        self.full_list_site = full_list_site
        self.whois = whois if whois is not None else WhoisRegistry()
        #: Evolution lineage: base epoch -> frozenset of site domains whose
        #: *content* changed between that epoch and this universe's.
        #: Populated by ``evolve_universe`` (epoch-0 universes have no
        #: lineage); ``changed_domains_since`` is the accessor.
        self.content_changed_since: Dict[int, frozenset] = {}

        self.geoip = GeoIPDatabase()
        self.dns = DNSResolver()
        self._cdn_of_site = {site: cdn for cdn, site in site_cdns.items()}
        self._site_for_host: Dict[str, Tuple[str, str]] = {}
        self._build_routing()
        #: Render cache: serving is a pure function of (URL, referrer,
        #: client), so identical requests — the same ad pixel embedded on
        #: the same page, a bidder script recurring across frames — are
        #: served from memory.  Deterministic failures are cached too.
        #: The cap bounds resident response bytes independently of scale
        #: (memory-sensitive callers pass a smaller ``fetch_cache_size``).
        self.fetch_cache = FetchCache(
            maxsize=fetch_cache_size if fetch_cache_size else 200_000
        )

    # ------------------------------------------------------------------
    # Routing / DNS
    # ------------------------------------------------------------------

    #: Hosting countries for the synthetic servers (weights approximate the
    #: adult-hosting market: US and Dutch datacenters dominate).
    _HOSTING = ("US", "US", "US", "NL", "NL", "DE", "SG")

    def changed_domains_since(
        self, config: UniverseConfig
    ) -> Optional[frozenset]:
        """Sites whose content changed since the universe ``config``
        describes, if that universe is this one's ancestor.

        It is when ``config`` equals this universe's config with only
        ``epoch`` changed (an epoch-0 universe never reads ``churn``, so
        an epoch-0 ``config`` may differ in ``churn`` too), and this
        universe's evolution chain passed through that epoch.  Evolution
        changes nothing else, so any other ``config`` gets ``None``: its
        universe is not on this chain, and the caller must not splice
        from it.  A returned set covers every site whose served content
        can differ: evolution only alters serve-relevant state through
        the site-spec overlays it records, so splicing everything outside
        it is safe.
        """
        ancestor = replace(self.config, epoch=config.epoch)
        if config.epoch == 0:
            ancestor = replace(ancestor, churn=config.churn)
        if config != ancestor:
            return None
        return self.content_changed_since.get(config.epoch)

    def _hosting_country(self, domain: str) -> str:
        if domain.endswith(".ru"):
            return "RU"
        return self._HOSTING[stable_hash(domain, "hosting") % len(self._HOSTING)]

    def _build_routing(self) -> None:
        allocator = IPAllocator()
        for domain, site in self.porn_sites.items():
            address = allocator.allocate(self._hosting_country(domain))
            self.dns.add_record(domain, address)
            for prefix in site.extra_first_party_hosts:
                self.dns.add_record(f"{prefix}.{domain}", address)
            if domain in self.dynamic_cdn_sites:
                self.dns.add_wildcard(domain, address)
            self._site_for_host[domain] = (domain, "porn")
        for domain, site in self.regular_sites.items():
            address = allocator.allocate(self._hosting_country(domain))
            self.dns.add_record(domain, address)
            for prefix in site.extra_first_party_hosts:
                self.dns.add_record(f"{prefix}.{domain}", address)
            self._site_for_host[domain] = (domain, "regular")
        for cdn_domain, site_domain in self.site_cdns.items():
            address = allocator.allocate(self._hosting_country(cdn_domain))
            self.dns.add_wildcard(cdn_domain, address)
            self._site_for_host[cdn_domain] = (site_domain, "cdn")
        for domain, service in self.services.items():
            address = allocator.allocate(self._hosting_country(domain))
            self.dns.add_wildcard(domain, address)

    # ------------------------------------------------------------------
    # Data-source APIs (stand-ins for Alexa / VirusTotal / EasyList feeds)
    # ------------------------------------------------------------------

    def alexa_top1m_domains(self) -> List[str]:
        """Every domain that appeared in the top-1M at least once in 2018."""
        domains = [
            domain
            for domain, site in self.porn_sites.items()
            if site.trajectory.ever_present
        ]
        domains.extend(
            domain
            for domain, site in self.regular_sites.items()
            if site.trajectory.ever_present
        )
        return sorted(domains)

    def reference_regular_corpus(self) -> List[str]:
        """The 9,688-site regular reference dataset (§3, Alexa top-10K)."""
        return sorted(
            domain
            for domain, site in self.regular_sites.items()
            if site.in_reference_corpus
        )

    def rank_history(self, domain: str):
        """The site's 2018 rank-list summary (public Alexa-style data).

        Returns a :class:`~repro.webgen.rank.RankTrajectory` or ``None``
        for domains never tracked.  This is a *data source* (the paper's
        longitudinal Alexa dataset), not crawl ground truth.
        """
        site = self.porn_sites.get(domain) or self.regular_sites.get(domain)
        return site.trajectory if site is not None else None

    def scanner_hits(self, domain: str, country_code: str = "ES") -> int:
        """VirusTotal-style aggregated detections for a domain.

        Geo-targeted distributors are only flagged by scanners probing from
        (or simulating) the targeted countries.
        """
        key = registrable_domain(domain)
        service = self.services.get(key)
        if service is not None:
            if service.scanner_hits and service.malicious_countries is not None:
                return (
                    service.scanner_hits
                    if country_code in service.malicious_countries
                    else 0
                )
            return service.scanner_hits
        site = self.porn_sites.get(key)
        if site is not None:
            return site.scanner_hits
        return 0

    def policy_text(self, site_domain: str) -> Optional[str]:
        return self._policy_texts.get(site_domain)

    def policy_source(self, site_domain: str) -> Optional[bytes]:
        """Bytes that determine the site's policy text, without rendering
        it: the packed render plan (see
        :meth:`~repro.webgen.lazyspecs.LazyPolicyTexts.plan`); ``None``
        when the site publishes no policy."""
        return self._policy_texts.plan(site_domain)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def fetch(self, request: Request, client: ClientContext) -> Response:
        """Serve one HTTP request from the given client (memoized).

        Responses depend only on the URL, the ``Referer`` header, and the
        client context — never on request cookies — so the render cache
        key captures the full input space and hits are bit-identical to
        recomputation.
        """
        key = (str(request.url), request.referrer, client.country_code,
               client.client_ip, client.epoch)
        return self.fetch_cache.fetch(
            key, lambda: self._fetch_uncached(request, client)
        )

    def _fetch_uncached(self, request: Request, client: ClientContext) -> Response:
        host = request.url.host
        base = registrable_domain(host)

        service = self.services.get(base)
        if service is not None:
            return self._serve_service(service, request, client)

        routed = self._site_for_host.get(base)
        if routed is None:
            raise FetchError(f"no route to host {host}")
        site_domain, kind = routed
        if kind == "cdn":
            return self._serve_asset(request)
        if kind == "regular":
            return self._serve_regular(self.regular_sites[site_domain], request, client)
        return self._serve_porn(self.porn_sites[site_domain], request, client)

    # -- porn sites ------------------------------------------------------------

    def _serve_porn(
        self, site: PornSiteSpec, request: Request, client: ClientContext
    ) -> Response:
        if not site.responsive:
            raise SiteUnresponsiveError(site.domain)
        if site.crawl_flaky and client.epoch == "crawl":
            raise SiteTimeoutError(site.domain)
        if client.country_code in site.blocked_countries:
            return Response(request.url, 451,
                            body=render_error_page(451, "Unavailable For Legal Reasons"),
                            manifest=())
        if request.url.scheme == "https" and not site.https:
            raise TLSUnsupportedError(f"{site.domain} does not support HTTPS")

        path = request.url.path
        if path == "/":
            return self._porn_landing(site, request, client)
        if path == "/privacy":
            return self._porn_policy(site, request)
        if path.startswith("/js/fp"):
            return self._script_response(request)
        return self._serve_asset(request)

    def _porn_landing(
        self, site: PornSiteSpec, request: Request, client: ClientContext
    ) -> Response:
        verified = request.url.query_params().get("verified") == "1"
        show_gate = (
            site.age_gate is not None and site.age_gate.shown_in(client.country_code)
        )
        if verified and site.age_gate is not None and site.age_gate.mode == "button":
            show_gate = False
        show_banner = site.banner is not None and site.banner.shown_in(
            in_eu=client.in_eu
        )
        embeds = self._embeds_for(site, client)
        body = render_porn_landing(
            site,
            embeds=embeds,
            show_age_gate=show_gate,
            show_banner=show_banner,
            policy_available=site.policy is not None,
            verified=verified,
        )
        headers = Headers()
        headers.add("Content-Type", "text/html")
        for header in self._first_party_cookies(site, client):
            headers.add("Set-Cookie", header)
        return Response(request.url, 200, headers, body,
                        manifest=page_manifest(embeds))

    def _porn_policy(self, site: PornSiteSpec, request: Request) -> Response:
        policy = site.policy
        if policy is None or policy.link_broken or site.domain not in self._policy_texts:
            headers = Headers([("Content-Type", "text/html")])
            return Response(request.url, 404, headers,
                            render_error_page(404, "Not Found"), manifest=())
        body = render_policy_page(site.domain, self._policy_texts[site.domain])
        return Response(request.url, 200, Headers([("Content-Type", "text/html")]),
                        body, manifest=())

    def _first_party_cookies(
        self, site: PornSiteSpec, client: ClientContext
    ) -> List[str]:
        """Set-Cookie headers the landing page issues."""
        if site.first_party_cookies <= 0:
            return []
        seed = self.config.seed
        headers = [
            # Session cookie: excluded by the paper's session filter.
            f"PHPSESSID={token_for(26, seed, site.domain, 'sess', client.client_ip)}; Path=/",
            # Short preference cookies: excluded by the 6-character filter.
            "theme=drk; Path=/; Max-Age=31536000",
            f"lang={site.language[:3]}; Path=/; Max-Age=31536000",
            "vol=80; Path=/",
        ]
        id_names = ("uid", "vid", "tid", "pid", "cid", "nid")
        for index in range(min(site.first_party_cookies, len(id_names))):
            name = id_names[index]
            value = token_for(24, seed, site.domain, "fp", name, client.client_ip)
            # A small share of first-party identifier cookies are enormous
            # serialized blobs (§5.1.1: values up to 3,600 characters).
            if _fraction(site.domain, name, "fphuge") < 0.03:
                filler = 1_100 + stable_hash(site.domain, name, "fphugelen") % 2_500
                value += token_for(filler, seed, site.domain, name, "fphuge")
            headers.append(f"{name}={value}; Path=/; Max-Age=31536000")
        return headers

    def first_party_uid(self, site_domain: str, client: ClientContext) -> str:
        """The site's own visitor identifier (also its ``uid`` cookie value)."""
        return token_for(24, self.config.seed, site_domain, "fp", "uid",
                         client.client_ip)

    # -- regular sites ------------------------------------------------------------

    def _serve_regular(
        self, site: RegularSiteSpec, request: Request, client: ClientContext
    ) -> Response:
        if not site.responsive:
            raise SiteUnresponsiveError(site.domain)
        if request.url.scheme == "https" and not site.https:
            raise TLSUnsupportedError(f"{site.domain} does not support HTTPS")
        if request.url.path != "/":
            return self._serve_asset(request)
        embeds = self._regular_embeds(site, client)
        body = render_regular_landing(site, embeds=embeds)
        headers = Headers([("Content-Type", "text/html")])
        if site.first_party_cookies > 0:
            seed = self.config.seed
            headers.add(
                "Set-Cookie",
                f"session={token_for(20, seed, site.domain, 'sess')}; Path=/",
            )
            headers.add(
                "Set-Cookie",
                f"uid={token_for(24, seed, site.domain, 'fp', 'uid', client.client_ip)};"
                " Path=/; Max-Age=31536000",
            )
        return Response(request.url, 200, headers, body,
                        manifest=page_manifest(embeds))

    # -- embeds ----------------------------------------------------------------------

    def _service_host(
        self, service: ThirdPartyService, site_domain: str, client: ClientContext
    ) -> str:
        if service.wildcard_subdomains:
            if service.category == CATEGORY_CDN:
                # Per-customer distribution hosts (dxxxx.cloudfront.net),
                # bucketized so the FQDN population stays bounded.
                bucket = stable_hash(site_domain, service.domain, "dist") % 64
                return f"d{token_for(6, self.config.seed, service.domain, bucket)}{bucket}.{service.domain}"
            # Ad-serving pools rotated per country (srvN.exdynsrv.com).
            pool_slot = 1 + stable_hash(site_domain, service.domain,
                                        client.country_code) % 8
            return f"srv{pool_slot}-{client.country_code.lower()}.{service.domain}"
        hosts = service.hosts
        return hosts[stable_hash(site_domain, service.domain, "host") % len(hosts)]

    def _embed_for(
        self,
        service: ThirdPartyService,
        site_domain: str,
        client: ClientContext,
        *,
        page_https: bool = True,
        pub_value: Optional[str] = None,
    ) -> Tuple[str, str]:
        """Decide (kind, url) for one service embedded on one site.

        Pages reference third parties with their own scheme (HTTP pages use
        ``http://`` embeds to avoid mixed-content blocking), so a resource
        travels over TLS only when both the page and the service support it.
        """
        scheme = "https" if (service.https and page_https) else "http"
        host = self._service_host(service, site_domain, client)
        base = f"{scheme}://{host}"
        token = token_for(8, self.config.seed, site_domain, service.domain)

        if service.miner:
            return ("script", f"{base}/miner.js")
        if service.fingerprints and _fraction(site_domain, service.domain, "fp") \
                < service.fp_probability:
            variant = stable_hash(site_domain, service.domain, "fpv") \
                % max(service.fp_script_variants, 1)
            return ("script", f"{base}/fp/fp-{variant}.js")
        if service.webrtc and _fraction(site_domain, service.domain, "rtc") \
                < service.webrtc_probability:
            variant = stable_hash(site_domain, service.domain, "rtcv") \
                % max(service.webrtc_script_variants, 1)
            return ("script", f"{base}/rtc/check-{variant}.js")

        if service.category == CATEGORY_ANALYTICS:
            return ("script", f"{base}/analytics.js")
        if service.category == CATEGORY_SOCIAL:
            return ("script", f"{base}/widget.js")
        if service.category == CATEGORY_CDN:
            choice = stable_hash(site_domain, service.domain, "cdnkind") % 3
            if choice == 0:
                return ("script", f"{base}/lib/app-{token}.js")
            if choice == 1:
                return ("link", f"{base}/css/base-{token}.css")
            return ("img", f"{base}/img/sprite-{token}.png")

        # Advertising: mix of script tags, tracking pixels, and ad iframes.
        suffix = f"?pub={pub_value}" if pub_value else ""
        choice = stable_hash(site_domain, service.domain, "adkind") % 100
        if choice < 60:
            return ("script", f"{base}/ad/banner-{token}.js{suffix}")
        if choice < 85:
            if suffix:
                return ("img", f"{base}/px{suffix}&cb={token}")
            return ("img", f"{base}/px?cb={token}")
        return ("iframe", f"{base}/ad/frame-{token}.html{suffix}")

    def _embeds_for(
        self, site: PornSiteSpec, client: ClientContext
    ) -> List[Tuple[str, str]]:
        embeds: List[Tuple[str, str]] = []
        pub_value = (
            self.first_party_uid(site.domain, client)
            if site.passes_id_to is not None and site.first_party_id_cookie
            else None
        )
        for domain in site.embedded_services:
            service = self.services.get(domain)
            if service is None or not service.serves_country(client.country_code):
                continue
            value = pub_value if domain == site.passes_id_to else None
            embed = self._embed_for(service, site.domain, client,
                                    page_https=site.https, pub_value=value)
            embeds.append(embed)
            # Some services load several distinct fingerprinting scripts on
            # one page (Table 5: adnium.com serves 41 scripts on 26 sites).
            if "/fp/fp-" in embed[1] and service.fp_script_variants > 1 \
                    and _fraction(site.domain, domain, "fp2") < 0.6:
                variant = (stable_hash(site.domain, domain, "fpv") + 1
                           + stable_hash(site.domain, domain, "fpv2")) \
                    % service.fp_script_variants
                base = embed[1].rsplit("/fp/", 1)[0]
                embeds.append(("script", f"{base}/fp/fp-{variant}.js"))
        # First-party resources.
        cdn = self._cdn_of_site.get(site.domain)
        if cdn is not None:
            scheme = "https" if site.https else "http"
            embeds.append(("img", f"{scheme}://static.{cdn}/img/logo.png"))
        if site.domain in self.dynamic_cdn_sites:
            scheme = "https" if site.https else "http"
            first = 100 + stable_hash(site.domain, client.country_code, "a") % 100
            second = 500 + stable_hash(site.domain, client.country_code, "b") % 100
            embeds.append(
                ("img", f"{scheme}://img{first}-{second}.{site.domain}/th.jpg")
            )
        if site.first_party_canvas_fp:
            scheme = "https" if site.https else "http"
            embeds.append(("script", f"{scheme}://{site.domain}/js/fp.js"))
        return embeds

    def _regular_embeds(
        self, site: RegularSiteSpec, client: ClientContext
    ) -> List[Tuple[str, str]]:
        embeds = []
        for domain in site.embedded_services:
            service = self.services.get(domain)
            if service is None or not service.serves_country(client.country_code):
                continue
            embeds.append(self._embed_for(service, site.domain, client,
                                          page_https=site.https))
        cdn = self._cdn_of_site.get(site.domain)
        if cdn is not None:
            scheme = "https" if site.https else "http"
            embeds.append(("img", f"{scheme}://static.{cdn}/img/logo.png"))
        return embeds

    # -- third-party service endpoints --------------------------------------------------

    def _serve_service(
        self, service: ThirdPartyService, request: Request, client: ClientContext
    ) -> Response:
        if not service.serves_country(client.country_code):
            raise FetchError(f"{service.domain} unavailable in {client.country_code}")
        if request.url.scheme == "https" and not service.https:
            raise TLSUnsupportedError(f"{service.domain} does not support HTTPS")

        path = request.url.path
        site_context = self._referrer_site(request)

        if path.startswith("/ad/frame"):
            return self._serve_ad_frame(service, request, client, site_context)
        if path.endswith(".js"):
            return self._script_response(request)
        if path.endswith(".css") or path.endswith(".png") or path.endswith(".jpg"):
            return self._serve_asset(request)
        if path == "/px" or path == "/collect":
            return self._serve_beacon(service, request, client, site_context)
        if path == "/sync":
            return self._serve_sync(service, request, client, site_context)
        if path == "/ws":
            # Miner pool websocket handshake.
            return Response(request.url, 200,
                            Headers([("Content-Type", "application/json")]),
                            '{"pool":"ok"}')
        return self._serve_asset(request)

    def _referrer_site(self, request: Request) -> str:
        referrer = request.referrer
        if not referrer:
            return "direct"
        try:
            return registrable_domain(parse_url(referrer).host)
        except Exception:
            return "direct"

    def service_cookie_value(
        self,
        service: ThirdPartyService,
        name: str,
        client: ClientContext,
        *,
        site_context: str,
    ) -> str:
        """The deterministic cookie value ``service`` stores for this browser.

        The base identifier is stable per (service, name, client) — a real
        tracker recognizes a returning browser — but the *encoding* varies
        per site for services that embed the client IP or geolocation.
        """
        seed = self.config.seed
        base = token_for(service.cookie_id_length, seed, service.domain, name,
                         client.client_ip)
        if service.embeds_geo and name in ("geo", "loc"):
            coords = self.geoip.coordinates_of(client.client_ip) or (0.0, 0.0)
            value = f"lat%3D{coords[0]:.4f}%26lon%3D{coords[1]:.4f}"
            if service.geo_includes_isp:
                asn = 64_000 + stable_hash(client.client_ip) % 1000
                value += f"%26isp%3DAS{asn}%20SynthNet%20Telecom"
            return value
        if _fraction(service.domain, site_context, name, "ip") \
                < service.embeds_client_ip_fraction:
            raw = f"{base}:{client.client_ip}".encode()
            return base64.b64encode(raw).decode().rstrip("=")
        if _fraction(service.domain, site_context, name, "huge") \
                < service.huge_cookie_fraction:
            filler_len = 1_100 + stable_hash(service.domain, name, "hugelen") % 2_500
            return base + token_for(filler_len, seed, service.domain, name, "huge")
        return base

    def _service_set_cookies(
        self,
        service: ThirdPartyService,
        request: Request,
        client: ClientContext,
        site_context: str,
    ) -> List[str]:
        if not service.sets_cookies or not service.cookie_names:
            return []
        headers = []
        per_name_p = min(1.0, service.cookie_rate / len(service.cookie_names))
        for name in service.cookie_names:
            if _fraction(service.domain, site_context, name, "set") >= per_name_p:
                continue
            value = self.service_cookie_value(service, name, client,
                                              site_context=site_context)
            attributes = f"Domain={service.domain}; Path=/"
            if _fraction(service.domain, name, "sessiontype") \
                    < service.session_cookie_fraction:
                pass  # session cookie: no Max-Age
            else:
                attributes += "; Max-Age=31536000"
            if service.https:
                attributes += "; Secure"
            headers.append(f"{name}={value}; {attributes}")
        return headers

    def _sync_location(
        self,
        service: ThirdPartyService,
        client: ClientContext,
        site_context: str,
        *,
        hop: int,
    ) -> Optional[str]:
        """Where (if anywhere) this service redirects to sync its cookie."""
        if not service.sync_partners:
            return None
        if _fraction(service.domain, site_context, "sync") >= service.sync_probability:
            return None
        candidates = [
            partner
            for partner in service.sync_partners
            if partner in self.services
            and self.services[partner].serves_country(client.country_code)
        ]
        if not candidates:
            return None
        partner = candidates[
            stable_hash(service.domain, site_context, "partner") % len(candidates)
        ]
        partner_service = self.services[partner]
        scheme = "https" if partner_service.https else "http"
        # The value shipped is the service's own primary cookie value.
        name = service.cookie_names[0] if service.cookie_names else "uid"
        value = self.service_cookie_value(service, name, client,
                                          site_context=site_context)
        return (
            f"{scheme}://{partner}/sync?uid={value}&src={service.domain}&hop={hop}"
        )

    def _serve_beacon(
        self,
        service: ThirdPartyService,
        request: Request,
        client: ClientContext,
        site_context: str,
    ) -> Response:
        headers = Headers([("Content-Type", "image/gif")])
        for cookie_header in self._service_set_cookies(service, request, client,
                                                       site_context):
            headers.add("Set-Cookie", cookie_header)
        location = self._sync_location(service, client, site_context, hop=1)
        if location is not None:
            headers.set("Location", location)
            return Response(request.url, 302, headers, "")
        return Response(request.url, 200, headers, "GIF89a")

    def _serve_sync(
        self,
        service: ThirdPartyService,
        request: Request,
        client: ClientContext,
        site_context: str,
    ) -> Response:
        """Receiving end of a cookie-sync redirect: store the mapping."""
        headers = Headers([("Content-Type", "image/gif")])
        for cookie_header in self._service_set_cookies(service, request, client,
                                                       site_context):
            headers.add("Set-Cookie", cookie_header)
        params = request.url.query_params()
        hop = int(params.get("hop", "1") or "1")
        if hop < 2 and _fraction(service.domain, site_context, "chain") < 0.25:
            location = self._sync_location(service, client, site_context, hop=hop + 1)
            if location is not None:
                headers.set("Location", location)
                return Response(request.url, 302, headers, "")
        return Response(request.url, 200, headers, "GIF89a")

    def _serve_ad_frame(
        self,
        service: ThirdPartyService,
        request: Request,
        client: ClientContext,
        site_context: str,
    ) -> Response:
        """An ad iframe: loads RTB bidders *dynamically* (not publisher-called)."""
        parts = ["<html><body>"]
        scripts: List[Tuple[str, str]] = []
        if self.rtb_bidders:
            count = 1 + stable_hash(service.domain, site_context, "nbid") % 2
            for index in range(count):
                bidder = self.rtb_bidders[
                    stable_hash(service.domain, site_context, "bid", index)
                    % len(self.rtb_bidders)
                ]
                bidder_service = self.services[bidder]
                if not bidder_service.serves_country(client.country_code):
                    continue
                scheme = "https" if bidder_service.https else "http"
                token = token_for(6, self.config.seed, site_context, bidder)
                src = f"{scheme}://{bidder}/ad/bid-{token}.js"
                parts.append(f'<script src="{src}"></script>')
                scripts.append(("script", src))
        parts.append("<div class='ad'>sponsored</div></body></html>")
        headers = Headers([("Content-Type", "text/html")])
        for cookie_header in self._service_set_cookies(service, request, client,
                                                       site_context):
            headers.add("Set-Cookie", cookie_header)
        return Response(request.url, 200, headers, "\n".join(parts),
                        manifest=tuple(scripts))

    def _script_response(self, request: Request) -> Response:
        headers = Headers([("Content-Type", "application/javascript")])
        return Response(request.url, 200, headers,
                        f"/* synthetic script {request.url.path} */")

    def _serve_asset(self, request: Request) -> Response:
        content_type = "text/css" if request.url.path.endswith(".css") else "image/png"
        return Response(request.url, 200,
                        Headers([("Content-Type", content_type)]), "")

    # -- script behaviors ------------------------------------------------------------------

    def script_behavior(self, url: URL) -> Optional[ScriptBehavior]:
        """What the script fetched from ``url`` does when executed."""
        base = registrable_domain(url.host)
        path = url.path
        scheme_host = f"{url.scheme}://{url.host}"

        service = self.services.get(base)
        if service is None:
            # First-party fingerprinting script (§5.1.3: 26% of canvas
            # scripts are served first party).
            if path.startswith("/js/fp"):
                return ScriptBehavior(canvas=_TAIL_CANVAS, font_probe=_TAIL_PROBE,
                                      reads_navigator=True)
            return None

        if path == "/miner.js":
            return ScriptBehavior(is_miner=True, miner_pool=service.miner_pool)
        if path.startswith("/fp/"):
            beacons = (f"{scheme_host}/px?cb=fp",) if service.sets_cookies else ()
            return ScriptBehavior(
                canvas=service.canvas_fp,
                font_probe=service.font_probe,
                uses_webrtc=service.webrtc,
                beacons=beacons,
                reads_navigator=True,
            )
        if path.startswith("/rtc/"):
            beacons = (f"{scheme_host}/px?cb=rtc",) if service.sets_cookies else ()
            return ScriptBehavior(uses_webrtc=True, beacons=beacons,
                                  reads_navigator=True)
        if path.startswith("/ad/banner") or path.startswith("/ad/bid"):
            return ScriptBehavior(beacons=(f"{scheme_host}/px?cb=ad",),
                                  reads_navigator=True)
        if path == "/analytics.js":
            # Analytics snippets store their visitor ID as a *first-party*
            # cookie via document.cookie (the `_ga` pattern); the value is
            # minted by the executing browser per page.
            first_party_cookie = None
            if not service.sets_cookies:
                first_party_cookie = (f"_{service.domain[:2]}", "")
            return ScriptBehavior(beacons=(f"{scheme_host}/collect?v=1",),
                                  reads_navigator=True,
                                  sets_document_cookie=first_party_cookie)
        if path == "/widget.js":
            return ScriptBehavior(beacons=(f"{scheme_host}/px?cb=w",))
        return None

    # -- certificates --------------------------------------------------------------------------

    def certificate_for(self, host: str) -> Optional[Certificate]:
        """The leaf certificate presented for ``host`` (HTTPS hosts only)."""
        return self.certificates.get(registrable_domain(host))

    def whois_organization(self, host: str) -> Optional[str]:
        """WHOIS registrant organization for the host's registrable domain.

        A data-source API (the paper's WHOIS queries); returns ``None``
        for privacy-redacted or unregistered records.
        """
        return self.whois.organization_of(host)
