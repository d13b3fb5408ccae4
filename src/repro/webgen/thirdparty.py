"""Third-party services: the model and the catalog of named actors.

Every advertising, analytics, CDN, social, and mining service in the
synthetic universe is a :class:`ThirdPartyService`.  The named catalog
reproduces every third-party actor the paper mentions explicitly
(ExoClick, AddThis, DoubleClick, adsco.re, xcvgdf.party, coinhive.com,
rlcdn.com, ...) with its published behavior; the long tail is generated
procedurally by :mod:`repro.webgen.universe` to hit the corpus-level counts
in :class:`repro.webgen.config.CalibrationTargets`.

``prevalence_porn`` / ``prevalence_regular`` are the fraction of sites in
each corpus that embed the service — the generator's levers for Figure 3
and Tables 2-5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from ..js.runtime import CanvasBehavior, FontProbeBehavior

__all__ = [
    "ThirdPartyService",
    "NAMED_SERVICES",
    "CATEGORY_ADS",
    "CATEGORY_ANALYTICS",
    "CATEGORY_CDN",
    "CATEGORY_SOCIAL",
    "CATEGORY_MINER",
    "CATEGORY_CONTENT",
]

CATEGORY_ADS = "advertising"
CATEGORY_ANALYTICS = "analytics"
CATEGORY_CDN = "cdn"
CATEGORY_SOCIAL = "social"
CATEGORY_MINER = "cryptomining"
CATEGORY_CONTENT = "content"

#: A canvas routine that *reads pixels back* but uses save/restore — it
#: fails Englehardt-Narayanan criterion (4), reproducing the paper's finding
#: that zero scripts pass the strict filters.
_EVASIVE_CANVAS = CanvasBehavior(
    width=280, height=60, colors=3, reads_back=True, uses_save_restore=True
)

#: The measureText pattern the paper's stricter rule catches: few fonts,
#: many same-text measurements (>= 50 total).
_MEASURE_TEXT_PROBE = FontProbeBehavior(fonts=4, repeats_per_font=16)

#: online-metrix.net's font-enumeration probe: many fonts, distinct texts.
_FONT_ENUMERATION_PROBE = FontProbeBehavior(
    fonts=120, repeats_per_font=1, distinct_texts=True
)


@dataclass(frozen=True)
class ThirdPartyService:
    """One third-party service (a registrable domain plus behavior)."""

    domain: str
    organization: Optional[str] = None
    category: str = CATEGORY_ADS
    #: Ground truth: is this an advertising/tracking service?
    is_ats: bool = True

    # -- reach ------------------------------------------------------------------
    prevalence_porn: float = 0.0
    prevalence_regular: float = 0.0
    #: Relative weight per popularity tier (0-1k, 1k-10k, 10k-100k, 100k+);
    #: scaled so mainstream services skew popular and shady ones skew tail.
    tier_weights: Tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    # -- transport / identity ------------------------------------------------------
    https: bool = True
    #: Organization string in the X.509 Subject O; ``None`` -> DV certificate
    #: that only repeats the domain name (not attributable, §4.2 footnote 7).
    cert_org: Optional[str] = None
    #: Additional hostnames (prefixes of ``domain``) used to serve content.
    host_prefixes: Tuple[str, ...] = ()
    #: Service mints arbitrary subdomains per request (img100-589.x.com).
    wildcard_subdomains: bool = False

    # -- list coverage ---------------------------------------------------------------
    in_easylist: bool = False
    #: When True the EasyList rule only matches specific ad paths, so other
    #: URLs (e.g. the fingerprinting script) escape full-URL matching.
    easylist_path_only: bool = False
    in_easyprivacy: bool = False
    in_disconnect: bool = False

    # -- cookie behavior ---------------------------------------------------------------
    sets_cookies: bool = True
    #: Expected number of distinct cookies stored per embedding site (can be
    #: below 1.0: some services only set cookies for certain ad types).
    cookie_rate: float = 1.0
    cookie_names: Tuple[str, ...] = ("uid",)
    cookie_id_length: int = 24
    #: Fraction of this service's cookies that are short session cookies.
    session_cookie_fraction: float = 0.2
    #: Fraction of cookies carrying values > 1,000 characters.
    huge_cookie_fraction: float = 0.0
    #: Fraction of ID cookies that embed the client IP (base64) — §5.1.1.
    embeds_client_ip_fraction: float = 0.0
    embeds_geo: bool = False
    geo_includes_isp: bool = False

    # -- cookie syncing -----------------------------------------------------------------
    #: Registrable domains this service redirects to with its cookie value.
    sync_partners: Tuple[str, ...] = ()
    #: Probability a given page visit triggers the sync redirect.
    sync_probability: float = 1.0
    #: Accepts first-party ID values appended by publisher pages.
    accepts_first_party_sync: bool = False

    # -- scripts -------------------------------------------------------------------------
    canvas_fp: Optional[CanvasBehavior] = None
    font_probe: Optional[FontProbeBehavior] = None
    #: Probability that a given embedding delivers the fingerprinting script
    #: (Table 5's per-service site counts are far below overall prevalence
    #: for CDNs like cloudfront.net that host fingerprinting for customers).
    fp_probability: float = 1.0
    #: Number of distinct fingerprinting script URLs this service serves
    #: (Table 5's script counts exceed site counts for e.g. adnium.com).
    fp_script_variants: int = 1
    webrtc: bool = False
    webrtc_probability: float = 1.0
    webrtc_script_variants: int = 1
    miner: bool = False
    miner_pool: str = ""

    # -- reputation -----------------------------------------------------------------------
    #: Number of VirusTotal-style scanners flagging the domain (>= 4 counts
    #: as malicious per §5.3).
    scanner_hits: int = 0
    #: When set, the service only serves malicious payloads (and is only
    #: flagged) for clients in these countries — §6.2's geo-targeting.
    malicious_countries: Optional[FrozenSet[str]] = None

    # -- geography -------------------------------------------------------------------------
    #: When set, the service is only embedded for clients in these countries.
    countries: Optional[FrozenSet[str]] = None
    #: The service refuses/fails for clients in these countries (§6: Russia
    #: sees ~700 fewer third-party services).
    excluded_countries: FrozenSet[str] = frozenset()

    @property
    def fingerprints(self) -> bool:
        return self.canvas_fp is not None or self.font_probe is not None

    @property
    def hosts(self) -> Tuple[str, ...]:
        """All static FQDNs this service serves from."""
        if not self.host_prefixes:
            return (self.domain,)
        return tuple(f"{prefix}.{self.domain}" for prefix in self.host_prefixes) + (
            self.domain,
        )

    def serves_country(self, country_code: str) -> bool:
        if country_code in self.excluded_countries:
            return False
        if self.countries is not None and country_code not in self.countries:
            return False
        return True


def _svc(**kwargs) -> ThirdPartyService:
    return ThirdPartyService(**kwargs)


#: Every third-party actor the paper names, with its published behavior.
NAMED_SERVICES: List[ThirdPartyService] = [
    # ---- Alphabet (74% of porn sites overall; GA 39%, DoubleClick 12%) ------
    _svc(domain="google-analytics.com", organization="Alphabet",
         category=CATEGORY_ANALYTICS, prevalence_porn=0.39, prevalence_regular=0.65,
         tier_weights=(3.0, 2.0, 1.0, 0.6), cert_org="Google LLC",
         in_easyprivacy=True, in_disconnect=True, sets_cookies=False),
    _svc(domain="doubleclick.net", organization="Alphabet",
         prevalence_porn=0.12, prevalence_regular=0.60,
         tier_weights=(4.0, 2.5, 1.0, 0.5), cert_org="Google LLC",
         in_easylist=True, in_disconnect=True, cookie_names=("IDE", "DSID"),
         sync_partners=("adsrvr.org", "criteo.com"), sync_probability=0.35),
    _svc(domain="googleapis.com", organization="Alphabet", category=CATEGORY_CDN,
         is_ats=False, prevalence_porn=0.30, prevalence_regular=0.55,
         cert_org="Google LLC", in_disconnect=True, sets_cookies=False),
    _svc(domain="gstatic.com", organization="Alphabet", category=CATEGORY_CDN,
         is_ats=False, prevalence_porn=0.25, prevalence_regular=0.45,
         cert_org="Google LLC", in_disconnect=True, sets_cookies=False),
    _svc(domain="googlesyndication.com", organization="Alphabet",
         prevalence_porn=0.05, prevalence_regular=0.35,
         tier_weights=(3.0, 2.0, 1.0, 0.4), cert_org="Google LLC",
         in_easylist=True, in_disconnect=True),

    # ---- ExoClick (the porn-specialist giant: 43% of porn, 6 regular sites) --
    _svc(domain="exosrv.com", organization="ExoClick",
         prevalence_porn=0.21, prevalence_regular=0.0004,
         tier_weights=(1.5, 1.5, 1.0, 0.8), cert_org="ExoClick S.L.",
         in_easylist=True, cookie_names=("uid", "zsess", "splash"),
         cookie_rate=2.0, huge_cookie_fraction=0.05,
         embeds_client_ip_fraction=0.85,
         sync_partners=("exoclick.com", "tsyndicate.com", "doublepimp.com"),
         sync_probability=0.9, accepts_first_party_sync=True),
    _svc(domain="exoclick.com", organization="ExoClick",
         prevalence_porn=0.14, prevalence_regular=0.0003,
         tier_weights=(1.5, 1.5, 1.0, 0.8), cert_org="ExoClick S.L.",
         in_easylist=True, cookie_names=("uid",), cookie_rate=0.5,
         embeds_client_ip_fraction=0.29,
         huge_cookie_fraction=0.15,
         sync_partners=("exosrv.com",), sync_probability=0.9,
         accepts_first_party_sync=True),
    _svc(domain="exdynsrv.com", organization="ExoClick",
         prevalence_porn=0.10, prevalence_regular=0.0,
         cert_org="ExoClick S.L.", in_easylist=True,
         wildcard_subdomains=True, cookie_names=("xdid",),
         cookie_rate=0.5, embeds_client_ip_fraction=0.3,
         sync_partners=("exosrv.com",), sync_probability=0.5),

    # ---- CDNs / infrastructure -----------------------------------------------
    _svc(domain="cloudflare.com", organization="Cloudflare",
         category=CATEGORY_CDN, is_ats=False,
         prevalence_porn=0.35, prevalence_regular=0.30, cert_org="Cloudflare, Inc.",
         in_easylist=True, easylist_path_only=True, in_disconnect=True,
         cookie_names=("__cfduid",), session_cookie_fraction=0.0,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_probability=0.0126, fp_script_variants=2),
    _svc(domain="cloudfront.net", organization="Amazon", category=CATEGORY_CDN,
         is_ats=False, prevalence_porn=0.08, prevalence_regular=0.25,
         cert_org="Amazon.com, Inc.", in_easylist=True, easylist_path_only=True,
         in_disconnect=True, wildcard_subdomains=True, sets_cookies=False,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_probability=0.061, fp_script_variants=8),
    _svc(domain="alexa.com", organization="Amazon", category=CATEGORY_ANALYTICS,
         prevalence_porn=0.04, prevalence_regular=0.05, cert_org="Amazon.com, Inc.",
         in_easyprivacy=True, in_disconnect=True, cookie_names=("aid",)),

    # ---- Oracle ------------------------------------------------------------------
    _svc(domain="addthis.com", organization="Oracle", category=CATEGORY_SOCIAL,
         prevalence_porn=0.17, prevalence_regular=0.10, cert_org="Oracle Corporation",
         in_easyprivacy=True, in_disconnect=True,
         cookie_names=("__atuvc", "uvc", "loc"), cookie_rate=1.2,
         session_cookie_fraction=0.0,
         sync_partners=("bluekai.com",), sync_probability=0.4),
    _svc(domain="bluekai.com", organization="Oracle", category=CATEGORY_ANALYTICS,
         prevalence_porn=0.01, prevalence_regular=0.06, cert_org="Oracle Corporation",
         in_easyprivacy=True, in_disconnect=True, cookie_names=("bku",),
         accepts_first_party_sync=True),

    # ---- Other mainstream actors ---------------------------------------------------
    _svc(domain="yandex.ru", organization="Yandex", category=CATEGORY_ANALYTICS,
         prevalence_porn=0.04, prevalence_regular=0.08, cert_org="Yandex LLC",
         in_easyprivacy=True, in_disconnect=True,
         cookie_names=("yandexuid", "i", "yp"), cookie_rate=1.2,
         session_cookie_fraction=0.0),
    _svc(domain="facebook.net", organization="Facebook", category=CATEGORY_SOCIAL,
         prevalence_porn=0.008, prevalence_regular=0.40, cert_org="Facebook, Inc.",
         in_easyprivacy=True, in_disconnect=True, cookie_names=("fr",)),
    _svc(domain="criteo.com", organization="Criteo", prevalence_porn=0.002,
         prevalence_regular=0.12, cert_org="Criteo SA", in_easylist=True,
         in_disconnect=True, accepts_first_party_sync=True),
    _svc(domain="scorecardresearch.com", organization="comScore",
         category=CATEGORY_ANALYTICS, prevalence_porn=0.002,
         prevalence_regular=0.10, cert_org="comScore, Inc.",
         in_easyprivacy=True, in_disconnect=True),
    _svc(domain="adsrvr.org", organization="The Trade Desk",
         prevalence_porn=0.001, prevalence_regular=0.08, cert_org="The Trade Desk Inc.",
         in_easylist=True, in_disconnect=True, accepts_first_party_sync=True),
    _svc(domain="amazon-adsystem.com", organization="Amazon",
         prevalence_porn=0.001, prevalence_regular=0.12, cert_org="Amazon.com, Inc.",
         in_easylist=True, in_disconnect=True),
    _svc(domain="rlcdn.com", organization="TowerData/Acxiom",
         category=CATEGORY_ANALYTICS,
         prevalence_porn=0.0006,  # 4 porn sites, one offering illegal content
         prevalence_regular=0.04, cert_org="Acxiom Corporation",
         in_easyprivacy=True, in_disconnect=True, accepts_first_party_sync=True),

    # ---- Porn-specialized ad networks -------------------------------------------------
    _svc(domain="trafficjunky.net", organization="TrafficJunky",
         prevalence_porn=0.08, prevalence_regular=0.0, cert_org="TrafficJunky Inc.",
         in_easylist=True, cookie_names=("tj_uid",),
         sync_partners=("exosrv.com", "doublepimp.com"), sync_probability=0.5,
         tier_weights=(4.0, 2.0, 0.8, 0.3)),
    _svc(domain="juicyads.com", organization="JuicyAds",
         prevalence_porn=0.04, prevalence_regular=0.0, cert_org="JuicyAds Media Inc.",
         in_easylist=True,
         cookie_names=("juicy_uid", "jad_session", "jad_freq"),
         cookie_rate=1.9, huge_cookie_fraction=0.30,
         sync_partners=("exosrv.com",), sync_probability=0.4),
    _svc(domain="ero-advertising.com", organization="EroAdvertising",
         prevalence_porn=0.04, prevalence_regular=0.0005, cert_org="Interwebs Media B.V.",
         in_easylist=True, easylist_path_only=True, cookie_names=("eroa_uid",),
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_probability=0.13, fp_script_variants=32,
         sync_partners=("doublepimp.com",), sync_probability=0.3),
    _svc(domain="doublepimp.com", organization="DoublePimp",
         prevalence_porn=0.06, prevalence_regular=0.0, cert_org="Double Pimp LLC",
         in_easylist=True, host_prefixes=("ssl",),
         cookie_names=("dp_uid",), accepts_first_party_sync=True,
         sync_partners=("exoclick.com",), sync_probability=0.4),
    _svc(domain="tsyndicate.com", organization="TrafficStars",
         prevalence_porn=0.05, prevalence_regular=0.0, cert_org="Traffic Stars Ltd",
         in_easylist=True, cookie_names=("ts_uid",), huge_cookie_fraction=0.25,
         accepts_first_party_sync=True,
         sync_partners=("exosrv.com",), sync_probability=0.5),
    _svc(domain="popads.net", organization="PopAds",
         prevalence_porn=0.03, prevalence_regular=0.002, cert_org="Tomksoft S.A.",
         in_easylist=True, tier_weights=(0.3, 0.8, 1.0, 1.3)),
    _svc(domain="propellerads.com", organization="PropellerAds",
         prevalence_porn=0.03, prevalence_regular=0.004, cert_org="Propeller Ads Ltd",
         in_easylist=True, tier_weights=(0.3, 0.8, 1.0, 1.3)),
    _svc(domain="adxpansion.com", organization="AdXpansion",
         prevalence_porn=0.02, prevalence_regular=0.0, cert_org="AdXpansion Inc.",
         in_easylist=True),
    _svc(domain="trafficfactory.biz", organization="Traffic Factory",
         prevalence_porn=0.05, prevalence_regular=0.0, cert_org="Traffic Factory SARL",
         in_easylist=True, wildcard_subdomains=True,
         tier_weights=(3.0, 2.0, 1.0, 0.5)),

    # ---- hprofits ad exchange (Fig. 4's same-organization sync triangle) -------
    _svc(domain="hprofits.com", organization="HProfits",
         prevalence_porn=0.015, prevalence_regular=0.0, cert_org="HProfits Ltd",
         accepts_first_party_sync=True),
    _svc(domain="hd100546b.com", organization="HProfits",
         prevalence_porn=0.012, prevalence_regular=0.0, cert_org="HProfits Ltd",
         sync_partners=("hprofits.com",), sync_probability=0.9),
    _svc(domain="bd202457b.com", organization="HProfits",
         prevalence_porn=0.012, prevalence_regular=0.0, cert_org="HProfits Ltd",
         sync_partners=("hprofits.com",), sync_probability=0.9),

    # ---- Table 5: fingerprinting services ------------------------------------------
    _svc(domain="adsco.re", organization="Adsco",
         prevalence_porn=0.024, prevalence_regular=0.001, cert_org=None,
         in_easylist=False, webrtc=True, webrtc_probability=0.8,
         webrtc_script_variants=1, sets_cookies=False),
    _svc(domain="adnium.com", organization="Adnium",
         prevalence_porn=0.0041, prevalence_regular=0.0, cert_org="Adnium Inc.",
         in_easylist=True, easylist_path_only=True,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_script_variants=41),
    _svc(domain="highwebmedia.com", organization="HighWebMedia",
         prevalence_porn=0.0035, prevalence_regular=0.0004,
         cert_org="Multi Media LLC",  # chaturbate.com's operator
         in_easylist=True, easylist_path_only=True,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_script_variants=1),
    _svc(domain="xcvgdf.party", organization=None,
         prevalence_porn=0.0028, prevalence_regular=0.0, cert_org=None,
         in_easylist=False, canvas_fp=_EVASIVE_CANVAS,
         font_probe=_MEASURE_TEXT_PROBE, fp_script_variants=18),
    _svc(domain="provers.pro", organization=None,
         prevalence_porn=0.0024, prevalence_regular=0.0, cert_org=None,
         in_easylist=True, easylist_path_only=True,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_script_variants=1),
    _svc(domain="montwam.top", organization=None,
         prevalence_porn=0.002, prevalence_regular=0.0, cert_org=None,
         in_easylist=True,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_script_variants=25),
    _svc(domain="dditscdn.com", organization=None,
         prevalence_porn=0.0016, prevalence_regular=0.0005, cert_org=None,
         in_easylist=True, easylist_path_only=True,
         canvas_fp=_EVASIVE_CANVAS, font_probe=_MEASURE_TEXT_PROBE,
         fp_script_variants=1),
    _svc(domain="online-metrix.net", organization="ThreatMetrix",
         category=CATEGORY_ANALYTICS,
         prevalence_porn=0.0008, prevalence_regular=0.01,
         cert_org="ThreatMetrix Inc.", in_easyprivacy=True,
         font_probe=_FONT_ENUMERATION_PROBE, webrtc=True),
    _svc(domain="traffichunt.com", organization="TraffiHunt",
         prevalence_porn=0.005, prevalence_regular=0.002,
         cert_org="Traffic Hunt Media", in_easylist=True, webrtc=True,
         webrtc_script_variants=2),

    # ---- Geo-cookie services (§5.1.1) ------------------------------------------------
    _svc(domain="fling.com", organization="Global Personals Media",
         prevalence_porn=0.0014, prevalence_regular=0.0,
         cert_org="Global Personals Media LLC",
         cookie_names=("geo", "loc"), cookie_rate=2.0, embeds_geo=True,
         geo_includes_isp=False),
    _svc(domain="playwithme.com", organization=None,
         prevalence_porn=0.0008, prevalence_regular=0.0, cert_org=None,
         cookie_names=("loc",), embeds_geo=True, geo_includes_isp=True),

    # ---- Long-tail actors named in §4.2.2 ---------------------------------------------
    _svc(domain="adultforce.com", organization=None,
         category=CATEGORY_ANALYTICS, prevalence_porn=0.003,
         prevalence_regular=0.0, cert_org=None, tier_weights=(0.0, 0.0, 0.6, 2.0)),
    _svc(domain="zingyads.com", organization=None,
         prevalence_porn=0.003, prevalence_regular=0.0, cert_org=None,
         tier_weights=(0.0, 0.0, 0.6, 2.0)),
    _svc(domain="betweendigital.ru", organization=None, prevalence_porn=0.0002,
         prevalence_regular=0.0, cert_org=None, tier_weights=(0.0, 0.0, 0.2, 2.0)),
    _svc(domain="datamind.ru", organization=None, prevalence_porn=0.0002,
         prevalence_regular=0.0, cert_org=None, tier_weights=(0.0, 0.0, 0.2, 2.0)),
    _svc(domain="adlabs.ru", organization=None, prevalence_porn=0.0002,
         prevalence_regular=0.0, cert_org=None, tier_weights=(0.0, 0.0, 0.2, 2.0)),
    _svc(domain="adx.com.ru", organization=None, prevalence_porn=0.0002,
         prevalence_regular=0.0, cert_org=None, tier_weights=(0.0, 0.0, 0.2, 2.0)),
    _svc(domain="itraffictrade.com", organization=None,
         prevalence_porn=0.002, prevalence_regular=0.0, cert_org=None,
         scanner_hits=9, tier_weights=(0.0, 0.2, 1.0, 2.0)),

    # ---- Cryptominers (§5.3) -------------------------------------------------------------
    _svc(domain="coinhive.com", organization="Coinhive",
         category=CATEGORY_MINER, prevalence_porn=0.0008,
         prevalence_regular=0.0002, cert_org=None, miner=True,
         miner_pool="wss://pool.coinhive.com/ws", scanner_hits=34,
         in_easylist=True, sets_cookies=False),
    _svc(domain="jsecoin.com", organization="JSEcoin",
         category=CATEGORY_MINER, prevalence_porn=0.0003,
         prevalence_regular=0.0001, cert_org="JSEcoin Ltd", miner=True,
         miner_pool="wss://pool.jsecoin.com/ws", scanner_hits=12,
         in_easylist=True, sets_cookies=False),
    _svc(domain="bitcoin-pay.eu", organization=None,
         category=CATEGORY_MINER, prevalence_porn=0.0002,
         prevalence_regular=0.0, cert_org=None, miner=True,
         miner_pool="wss://ws.crypto-webminer.com/ws", scanner_hits=8,
         sets_cookies=False),
]
