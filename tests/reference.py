"""Reference implementations the package's fast paths are tested against.

Each one is the historical, unoptimized form of a shipped function:
exhaustive where the shipped one indexes, dense where it streams,
parse-every-page where it prefilters.  Parity tests assert that both
give the same answer on the same input; nothing in ``repro`` calls
these.  :class:`ContentHashIndex` is the hash delta crawls used to
splice by, now the oracle the evolution lineage is checked against.
:func:`full_page_loads` runs the sanitize and Selenium passes with the
full page loads they made before they loaded documents alone.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.corpus
import repro.crawler.selenium
from repro.blocklists.easylist import FilterList, FilterRule, MatchContext
from repro.browser import Browser, PageVisit
from repro.core.compliance.banners import BannerObservation, _walk_for_banner
from repro.html.parser import parse_html
from repro.net.url import URL, parse_url, registrable_domain
from repro.text.tfidf import TfIdfVectorizer, cosine_similarity
from repro.text.tokenize import term_counts
from repro.webgen.evolve import _service_fingerprint
from repro.webgen.lazyspecs import porn_spec_to_row, regular_spec_to_row
from repro.webgen.sites import PornSiteSpec
from repro.webgen.thirdparty import CATEGORY_ADS


def pairwise_similarities_linear(
    documents: Sequence[str], *, vectorizer: Optional[TfIdfVectorizer] = None
) -> Iterable[Tuple[int, int, float]]:
    """The O(n²) dict-cosine pair stream behind
    :func:`repro.text.tfidf.pairwise_similarities`."""
    vectorizer = vectorizer or TfIdfVectorizer()
    vectors = vectorizer.fit_transform(documents)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            yield (i, j, cosine_similarity(vectors[i], vectors[j]))


def pairwise_similarity_fractions_dense(
    texts: Sequence[str], *, threshold: float = 0.5
) -> Tuple[float, int]:
    """Dense-matrix form of
    :func:`repro.core.compliance.policies.pairwise_similarity_fractions`:
    one full Gram product plus an ``np.triu_indices`` extraction."""
    n = len(texts)
    if n < 2:
        return (0.0, 0)
    counts = [term_counts(text) for text in texts]
    vocabulary: Dict[str, int] = {}
    document_frequency: Dict[str, int] = {}
    for count in counts:
        for term in count:
            if term not in vocabulary:
                vocabulary[term] = len(vocabulary)
            document_frequency[term] = document_frequency.get(term, 0) + 1
    idf = np.zeros(len(vocabulary))
    for term, index in vocabulary.items():
        idf[index] = np.log((1 + n) / (1 + document_frequency[term])) + 1.0
    matrix = np.zeros((n, len(vocabulary)))
    for row, count in enumerate(counts):
        for term, frequency in count.items():
            matrix[row, vocabulary[term]] = (1.0 + np.log(frequency)) * \
                idf[vocabulary[term]]
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    gram = matrix @ matrix.T
    upper = gram[np.triu_indices(n, k=1)]
    total_pairs = upper.size
    return (float((upper > threshold).sum()) / total_pairs, total_pairs)


def _policy_similarity_pairs_dense(
    sites: Sequence[str], texts: Sequence[str], *, threshold: float
) -> List[Tuple[int, int]]:
    """Dense-matrix form of the owner-discovery candidate pairs
    (:func:`repro.core.owners._policy_similarity_pairs`)."""
    n = len(texts)
    if n < 2:
        return []
    counts = [term_counts(text) for text in texts]
    vocabulary: Dict[str, int] = {}
    for count in counts:
        for term in count:
            vocabulary.setdefault(term, len(vocabulary))
    matrix = np.zeros((n, len(vocabulary)))
    for row, count in enumerate(counts):
        for term, frequency in count.items():
            matrix[row, vocabulary[term]] = 1.0 + np.log(frequency)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    matrix /= norms
    gram = matrix @ matrix.T
    pairs = np.argwhere(np.triu(gram > threshold, k=1))
    return [(int(i), int(j)) for i, j in pairs]


def detect_banner_unfiltered(
    html: str, site_domain: str = ""
) -> Optional[BannerObservation]:
    """:func:`repro.core.compliance.banners.detect_banner` without the
    keyword prefilter or the detection cache: a fresh parse of every
    page, walked in full."""
    return _walk_for_banner(parse_html(html), site_domain)


class LinearFilterList(FilterList):
    """A :class:`FilterList` that also keeps flat rule lists, so
    :meth:`matches_linear` can check every rule against a URL where
    :meth:`FilterList.matches` consults its token index."""

    def __init__(self, rules: Iterable[FilterRule] = ()) -> None:
        self._linear_by_domain: Dict[str, List[FilterRule]] = {}
        self._linear_generic: List[FilterRule] = []
        self._linear_exceptions: List[FilterRule] = []
        super().__init__(rules)

    def add_rule(self, rule: FilterRule) -> None:
        super().add_rule(rule)
        if rule.is_exception:
            self._linear_exceptions.append(rule)
        elif rule.anchor_domain is not None:
            key = registrable_domain(rule.anchor_domain)
            self._linear_by_domain.setdefault(key, []).append(rule)
        else:
            self._linear_generic.append(rule)

    def matches_linear(self, url, context: Optional[MatchContext] = None) -> bool:
        """The exhaustive scan: every generic rule, every rule anchored
        at the host's registrable domain, then every exception."""
        if not isinstance(url, URL):
            url = parse_url(str(url))
        context = context or MatchContext()
        candidates = self._linear_by_domain.get(registrable_domain(url.host),
                                                []) + self._linear_generic
        if not any(rule.matches(url, context) for rule in candidates):
            return False
        return not any(rule.matches(url, context)
                       for rule in self._linear_exceptions)


class ContentHashIndex:
    """Per-site content hashes that cover only what a visit can observe.

    The hash a delta crawl once spliced by, kept as the oracle of the
    evolution lineage (``Universe.changed_domains_since``): the packed
    site spec, the site's CDN assignment, and every service the visit
    can transitively reach (embedded services, their sync partners, the
    RTB bidders behind any ad frame), in BFS order.  Unlike
    :class:`repro.webgen.evolve.AnalysisHashIndex` it leaves out the
    attribution-only service fields, which serving never reads, just as
    the lineage leaves out consolidation.
    """

    def __init__(self, universe) -> None:
        self.universe = universe
        self._hashes: Dict[str, Optional[str]] = {}
        self._fingerprints: Dict[str, bytes] = {}

    def hash_of(self, domain: str) -> Optional[str]:
        """The site's content hash, or ``None`` for unknown domains."""
        if domain not in self._hashes:
            self._hashes[domain] = self._compute(domain)
        return self._hashes[domain]

    def _service_bytes(self, domain: str) -> bytes:
        blob = self._fingerprints.get(domain)
        if blob is None:
            service = self.universe.services.get(domain)
            blob = (b"dead\x1f" + domain.encode() if service is None
                    else _service_fingerprint(service))
            self._fingerprints[domain] = blob
        return blob

    def _walk(self, digest, queue: List[str], seen: set) -> bool:
        """Fold each service reachable from ``queue`` into ``digest``;
        whether any of them is an ad service."""
        reaches_ads = False
        cursor = 0
        while cursor < len(queue):
            name = queue[cursor]
            cursor += 1
            if name in seen:
                continue
            seen.add(name)
            digest.update(name.encode())
            digest.update(b"\x1f")
            digest.update(self._service_bytes(name))
            service = self.universe.services.get(name)
            if service is None:
                continue
            queue.extend(service.sync_partners)
            if service.category == CATEGORY_ADS:
                reaches_ads = True
        return reaches_ads

    def _compute(self, domain: str) -> Optional[str]:
        universe = self.universe
        spec = universe.porn_sites.get(domain)
        if spec is not None:
            kind = b"porn"
            packed = repr(porn_spec_to_row(spec)).encode()
        else:
            spec = universe.regular_sites.get(domain)
            if spec is None:
                return None
            kind = b"regular"
            packed = repr(regular_spec_to_row(spec)).encode()
        digest = hashlib.sha256()
        digest.update(kind + b"\x1f" + packed)
        digest.update(repr((
            universe._cdn_of_site.get(domain),
            domain in universe.dynamic_cdn_sites,
            domain == universe.full_list_site,
        )).encode())
        queue: List[str] = list(spec.embedded_services)
        if isinstance(spec, PornSiteSpec):
            queue.extend(partner for _, partner in spec.regional_services)
            if spec.passes_id_to:
                queue.append(spec.passes_id_to)
        seen: set = set()
        if self._walk(digest, queue, seen):
            # Any ad embed may open an RTB frame; fold in the bidders.
            digest.update(b"\x1fbidders\x1f")
            self._walk(digest, list(universe.rtb_bidders), seen)
        return digest.hexdigest()


class FullLoadBrowser(Browser):
    """A browser whose document loads are full page loads, subresources
    included."""

    def load_document(self, site_domain: str, *, path: str = "/") -> PageVisit:
        return self.visit(site_domain, path=path)


@contextmanager
def full_page_loads():
    """Within the block, :func:`~repro.core.corpus.sanitize_verdict` and
    :class:`~repro.crawler.selenium.SeleniumCrawler` browse with
    :class:`FullLoadBrowser`."""
    modules = (repro.core.corpus, repro.crawler.selenium)
    saved = [module.Browser for module in modules]
    for module in modules:
        module.Browser = FullLoadBrowser
    try:
        yield
    finally:
        for module, browser in zip(modules, saved):
            module.Browser = browser
