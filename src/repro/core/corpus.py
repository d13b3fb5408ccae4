"""Section 3 — corpus compilation and sanitization.

Three discovery sources are combined (aggregator indexes, Alexa's Adult
category, and keyword matching against the 2018 Alexa top-1M), producing
candidates that are then crawled and classified; unresponsive sites and
non-pornographic keyword matches are removed as false positives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..browser.browser import Browser
from ..crawler.vpn import client_for
from ..html.parser import parse_html
from ..html.query import meta_tags
from ..net.geo import VantagePoint
from ..text.tokenize import tokenize
from ..webgen.names import ADULT_KEYWORDS
from ..webgen.universe import ClientContext, Universe

__all__ = [
    "CandidateSet",
    "SanitizedCorpus",
    "compile_candidates",
    "classify_adult_content",
    "sanitize_candidates",
    "sanitize_verdict",
    "build_corpus",
]

SOURCE_AGGREGATOR = "aggregator"
SOURCE_ALEXA_CATEGORY = "alexa_category"
SOURCE_KEYWORD = "keyword"

#: Tokens whose presence in page text marks adult content.  Token-level
#: matching (not substrings) is what keeps ``essexnews.co.uk`` out.
_ADULT_TOKENS = frozenset({
    "porn", "xxx", "sex", "adult", "hardcore", "milf", "anal", "lesbian",
    "webcam", "cams", "creampie", "cumshot", "18",
})

_MIN_ADULT_TOKENS = 3


@dataclass
class CandidateSet:
    """Candidates with the source that first discovered each of them."""

    sources: Dict[str, str] = field(default_factory=dict)  # domain -> source

    def add(self, domain: str, source: str) -> bool:
        """Record a candidate; returns False when already discovered."""
        if domain in self.sources:
            return False
        self.sources[domain] = source
        return True

    @property
    def domains(self) -> List[str]:
        return sorted(self.sources)

    def count_by_source(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for source in self.sources.values():
            counts[source] = counts.get(source, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.sources)


@dataclass
class SanitizedCorpus:
    """Outcome of the manual-inspection-style sanitization pass."""

    corpus: List[str]
    unresponsive: List[str]
    non_adult: List[str]

    @property
    def false_positives(self) -> int:
        return len(self.unresponsive) + len(self.non_adult)


def compile_candidates(universe: Universe) -> CandidateSet:
    """Combine the three §3 discovery sources (deduplicating in order)."""
    candidates = CandidateSet()
    for listing in universe.aggregator_listings:
        for domain in listing:
            candidates.add(domain, SOURCE_AGGREGATOR)
    for domain in universe.alexa_category_sites:
        candidates.add(domain, SOURCE_ALEXA_CATEGORY)
    for domain in universe.alexa_top1m_domains():
        if any(keyword in domain for keyword in ADULT_KEYWORDS):
            candidates.add(domain, SOURCE_KEYWORD)
    return candidates


def classify_adult_content(html: str) -> bool:
    """Decide whether a landing page serves adult content.

    Stand-in for the paper's manual inspection of DOMs and screenshots:
    counts distinct adult vocabulary tokens across the rendered text and
    ``<meta keywords>``.
    """
    document = parse_html(html)
    tokens: Set[str] = set(tokenize(document.text()))
    for meta in meta_tags(document, "keywords"):
        tokens.update(tokenize(meta.get("content") or ""))
    return len(tokens & _ADULT_TOKENS) >= _MIN_ADULT_TOKENS


def sanitize_verdict(universe: Universe, client: ClientContext,
                     domain: str) -> str:
    """One candidate's §3 verdict: ``unresponsive``, ``corpus`` (adult
    content on the landing page) or ``non_adult``."""
    visit = Browser(universe, client).visit(domain)
    if not visit.success:
        return "unresponsive"
    if classify_adult_content(visit.html):
        return "corpus"
    return "non_adult"


def sanitize_candidates(
    universe: Universe,
    candidates: Iterable[str],
    vantage: VantagePoint,
) -> SanitizedCorpus:
    """Crawl every candidate once and drop the false positives."""
    client = client_for(vantage, epoch="sanitization")
    buckets: Dict[str, List[str]] = {
        "corpus": [], "unresponsive": [], "non_adult": [],
    }
    for domain in candidates:
        buckets[sanitize_verdict(universe, client, domain)].append(domain)
    return SanitizedCorpus(**buckets)


def build_corpus(
    universe: Universe, vantage: VantagePoint
) -> Tuple[CandidateSet, SanitizedCorpus]:
    """The full §3 pipeline: discover, then sanitize."""
    candidates = compile_candidates(universe)
    sanitized = sanitize_candidates(universe, candidates.domains, vantage)
    return candidates, sanitized
