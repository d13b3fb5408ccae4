"""Section 7.1 / Table 8 — cookie-consent banner detection.

The detector walks the rendered DOM looking for floating elements whose
text discusses cookies (8 languages), then classifies the banner with the
Degeling et al. taxonomy.  As in the paper, the automated pipeline only
separates *No option* / *Confirmation* / *Binary*; slider and checkbox
banners land in *Others* because classifying them further would require
interacting with the controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...browser.events import CrawlLog
from ...cache import BoundedCache, content_key
from ...html.dom import Element
from ...html.parser import parse_html
from ...html.query import find_all
from ...text.langs import COOKIE_BANNER_KEYWORDS, all_keywords

__all__ = [
    "BANNER_NO_OPTION",
    "BANNER_CONFIRMATION",
    "BANNER_BINARY",
    "BANNER_OTHER",
    "BannerObservation",
    "BannerReport",
    "detect_banner",
    "analyze_banners",
]

BANNER_NO_OPTION = "no_option"
BANNER_CONFIRMATION = "confirmation"
BANNER_BINARY = "binary"
BANNER_OTHER = "other"

_COOKIE_WORDS = all_keywords(COOKIE_BANNER_KEYWORDS)

_ACCEPT_WORDS = frozenset({
    "accept", "ok", "agree", "got it", "aceptar", "accepter", "aceitar",
    "принять", "accetto", "akzeptieren",
})
_REJECT_WORDS = frozenset({
    "decline", "reject", "refuse", "rechazar", "refuser", "recusar",
    "отказ", "rifiuto", "ablehnen", "refuz",
})


@dataclass(frozen=True)
class BannerObservation:
    """One detected banner."""

    site_domain: str
    banner_type: str
    text: str


def _classify_banner(banner: Element) -> str:
    has_slider = any(
        element.get("type") == "range" for element in find_all(banner, "input")
    )
    has_checkbox = any(
        element.get("type") == "checkbox" for element in find_all(banner, "input")
    )
    if has_slider or has_checkbox:
        return BANNER_OTHER
    accept = False
    reject = False
    for button in find_all(banner, "button"):
        text = button.text().lower()
        if any(word in text for word in _ACCEPT_WORDS):
            accept = True
        if any(word in text for word in _REJECT_WORDS):
            reject = True
    if accept and reject:
        return BANNER_BINARY
    if accept:
        return BANNER_CONFIRMATION
    return BANNER_NO_OPTION


#: Detection outcome per distinct page content: landing pages repeat
#: across vantage points (roughly half the per-country pages at paper
#: scale are duplicates), and the outcome depends only on the markup.
_DETECTION_CACHE = BoundedCache(maxsize=16_384)


def detect_banner(html: str, site_domain: str = "") -> Optional[BannerObservation]:
    """Find and classify a cookie banner in a rendered landing page."""
    detection = _DETECTION_CACHE.get_or_create(
        content_key(html), lambda: _detect(html)
    )
    if detection is None:
        return None
    banner_type, text = detection
    return BannerObservation(
        site_domain=site_domain, banner_type=banner_type, text=text
    )


def _detect(html: str) -> Optional[tuple]:
    """``(banner type, banner text)`` for one page content, or ``None``."""
    # Raw-markup prefilter: a banner's element text must contain one of
    # the cookie keywords, and any keyword inside a text node is a
    # literal substring of the markup (text nodes join with spaces and
    # the renderer never entity-escapes), so a page whose lowered HTML
    # holds no keyword cannot yield a banner — skip the parse entirely.
    # Most landing pages carry no banner, which makes this the banner
    # detector's fast path; keyword-bearing pages fall through to the
    # identical DOM walk.
    lowered_html = html.lower()
    if not any(word in lowered_html for word in _COOKIE_WORDS):
        return None
    # Identical markup served to several vantage points is detected
    # once per process (``_DETECTION_CACHE``), so the DOM is not kept:
    # a crawl maps every landing page once and would only fill the
    # shared parse cache with pages nobody parses again.
    observation = _walk_for_banner(parse_html(html), "")
    if observation is None:
        return None
    return (observation.banner_type, observation.text)


def _walk_for_banner(document, site_domain: str) -> Optional[BannerObservation]:
    for element in document.iter():
        if not element.is_floating:
            continue
        text = element.text().lower()
        if not text:
            continue
        if not any(word in text for word in _COOKIE_WORDS):
            continue
        # Age gates also float and may mention a cookie policy link; require
        # the *cookie* wording to dominate rather than age warnings.
        if "18" in text and "cookie" not in text:
            continue
        return BannerObservation(
            site_domain=site_domain,
            banner_type=_classify_banner(element),
            text=text[:160],
        )
    return None


@dataclass
class BannerReport:
    """Table 8 aggregate for one vantage point."""

    observations: List[BannerObservation] = field(default_factory=list)
    sites_checked: int = 0

    def count(self, banner_type: str) -> int:
        return sum(1 for o in self.observations if o.banner_type == banner_type)

    def fraction(self, banner_type: str) -> float:
        return self.count(banner_type) / self.sites_checked \
            if self.sites_checked else 0.0

    @property
    def total_fraction(self) -> float:
        return len(self.observations) / self.sites_checked \
            if self.sites_checked else 0.0

    def as_row(self) -> Dict[str, float]:
        return {
            BANNER_NO_OPTION: self.fraction(BANNER_NO_OPTION),
            BANNER_CONFIRMATION: self.fraction(BANNER_CONFIRMATION),
            BANNER_BINARY: self.fraction(BANNER_BINARY),
            BANNER_OTHER: self.fraction(BANNER_OTHER),
            "total": self.total_fraction,
        }


def analyze_banners(log: CrawlLog, *, corpus_size: Optional[int] = None) -> BannerReport:
    """Detect banners on every successfully crawled landing page.

    ``corpus_size`` normalizes the Table 8 fractions over the full
    sanitized corpus (the paper's denominator, N = 6,843) rather than only
    the successfully crawled pages.  The merge of
    :func:`~repro.core.mapmerge.map_banners` over the log's per-site row
    groups (:meth:`~repro.browser.events.CrawlLog.site_groups`).
    """
    from ..mapmerge import map_banners, merge_banners

    return merge_banners([map_banners(site.visits)
                          for site in log.site_groups()],
                         corpus_size=corpus_size)
