"""The paper's shape claims, one table of rows checked over the report's
route.

Every row of :data:`CLAIMS` is one metric of a paper table, figure or
section: its claim id (the ``EXPERIMENTS.md`` anchor it belongs to),
what it measures, the paper's value, and a reader that takes it from a
store-only study.  A row with a comparison is a claim: the measured
value must hold against its bound at every scale from ``min_scale`` up.
A row without one is reported only, so the table regenerates
``EXPERIMENTS.md``'s measured column too.

The readers follow the route ``repro report`` takes.  ``repro study
--store`` (``Study.run_all(geo=True)``) fills a 2-shard store, and
every reader reads a ``store_only=True`` study over it: a section
result by its :func:`~repro.reporting.sections.study_results` name, or
the study method where no section renders the result (``corpus``,
``policies``, ``business_models``, ``age_verification``, ``figure3``
with the paper's 19 organizations).  Only the §10 extensions and the
ablations read whole stored logs.

Under pytest the claims run at scale 0.1 (:data:`TIER1_SCALE`), the
largest ``min_scale`` in the table.  As a script the table is evaluated
at any scale and written to ``benchmarks/results/claims.txt``::

    PYTHONPATH=src python tests/test_paper_claims.py --scale 1.0

(``make claims``; it exits 1 when a claim fails at a scale it should
hold at.)
"""

from __future__ import annotations

import argparse
import operator
import sys
import tempfile
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import pytest

from repro import Study, UniverseConfig
from repro.browser.events import CookieRecord
from repro.core.business import MODEL_FREE, MODEL_NONE, MODEL_PAID
from repro.core.compliance.banners import (
    BANNER_BINARY,
    BANNER_CONFIRMATION,
    BANNER_NO_OPTION,
    BANNER_OTHER,
)
from repro.core.compliance.policies import pairwise_similarity_fractions
from repro.core.cookie_sync import MIN_VALUE_LENGTH, _url_tokens
from repro.core.owners import normalize_company
from repro.core.partylabel import label_parties
from repro.js.api import API
from repro.net.url import URLError, parse_url, registrable_domain
from repro.reporting.sections import study_results
from repro.webgen.builder import build_universe
from repro.webgen.config import CalibrationTargets

#: The scale tier-1 checks the claims at.
TIER1_SCALE = 0.1
RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"
P = CalibrationTargets()
COUNTRIES = ("US", "UK", "ES", "RU", "IN", "SG")
#: Tables 3 and 6's popularity tiers, by best rank.
TIERS = ("0-1k", "1k-10k", "10k-100k", "100k+")
WESTERN = ("US", "UK", "ES")


class Readings:
    """What the claims read from one store-only study, each once."""

    def __init__(self, study: Study) -> None:
        self.study = study
        self.scale = study.universe.config.scale
        self._results = dict(study_results(geo=True))
        self._read: Dict[Callable, object] = {}

    def __getitem__(self, name: str):
        """The section result ``name`` (memoized by the study)."""
        return self._results[name](self.study, None)

    def __call__(self, reader: Callable[["Readings"], object]):
        """``reader(self)``, computed once."""
        if reader not in self._read:
            self._read[reader] = reader(self)
        return self._read[reader]

    def scaled(self, count: int) -> int:
        """A paper count scaled to this corpus."""
        return max(1, round(count * self.scale))


OPS: Dict[str, Callable[[object, object], bool]] = {
    ">": operator.gt, ">=": operator.ge, "<": operator.lt,
    "<=": operator.le, "==": operator.eq,
    "in": lambda value, band: band[0] <= value <= band[1],
    "in()": lambda value, band: band[0] < value < band[1],
    "has": operator.contains,
    "descending": lambda value, _: value == sorted(value, reverse=True),
    "ascending": lambda value, _: value == sorted(value),
}


class Claim(NamedTuple):
    """One row: a metric, and with ``op`` a claim about it."""

    id: str
    what: str
    paper: object
    read: Callable[[Readings], object]
    #: A key of :data:`OPS`; ``None`` reports the value unchecked.
    op: Optional[str] = None
    #: The right-hand side: a value, or ``Readings -> value``.
    bound: object = None
    #: The smallest scale the claim holds at (small samples below it).
    min_scale: float = 0.05

    def bound_at(self, readings: Readings):
        return self.bound(readings) if callable(self.bound) else self.bound


# -- readers shared by several rows -------------------------------------

def _by_source(r):
    return r.study.corpus()[0].count_by_source()


def _corpus_band(r):
    """The scaled paper corpus, give or take 5%."""
    expected = r.scaled(P.sanitized_corpus)
    return (expected - expected * 0.05, expected + expected * 0.05)


def _owners_missing(r):
    """Paper top-10 clusters of 2+ scaled sites the discovery missed."""
    recovered = {normalize_company(cluster.company)
                 for cluster in r["owners"].clusters}
    return [company for company, count, _, _ in P.owner_clusters[:10]
            if r.scaled(count) >= 2
            and normalize_company(company) not in recovered]


def _mindgeek_flagship(r):
    mindgeek = next(cluster for cluster in r["owners"].clusters
                    if normalize_company(cluster.company) == "mindgeek")
    return mindgeek.most_popular(r.study.best_rank)[0]


def _presence(r):
    """Mean top-1M presence of the head and the tail fifth (Fig. 1)."""
    presence = r["popularity"].figure1_series()[2]
    fifth = len(presence) // 5
    return (sum(presence[:fifth]) / fifth, sum(presence[-fifth:]) / fifth)


def _bars(r):
    """Figure 3 with the paper's 19 organizations (the report draws 10)."""
    return r.study.figure3(top_n=19)


def _org(r, name):
    """The first Figure 3 bar whose organization contains ``name``."""
    return next((bar for bar in _bars(r) if name in bar.organization), None)


def _prevalence(name):
    def read(r):
        bar = _org(r, name)
        return (f"{bar.porn_fraction:.0%} / {bar.regular_fraction:.0%}"
                if bar else "absent")
    return read


def _top_cookie(r, domain):
    return next((d for d in r["cookie_stats"].top_domains
                 if d.domain == domain), None)


def _cookie_row(domain):
    def read(r):
        row = _top_cookie(r, domain)
        return (f"{row.site_fraction:.0%} / {row.cookie_count:,} / "
                f"{row.ip_cookie_fraction:.0%}" if row else "below top-5")
    return read


def _exo_ip_share(r):
    stats = r["cookie_stats"]
    exo = sum(count for domain, count in stats.ip_cookie_domains.items()
              if domain.startswith("ex"))
    return exo / max(1, stats.ip_cookies)


def _heavy(r):
    """Figure 4's edges: pairs exchanging 75 × scale cookies or more."""
    return r["cookie_sync"].heavy_pairs(
        max(2, round(P.figure4_min_cookies * r.scale)))


def _hprofits_triangle(r):
    origins = {origin for origin, destination in r["cookie_sync"].pair_counts
               if destination == "hprofits.com"}
    return sorted(origins & {"hd100546b.com", "bd202457b.com"})


def _canvas_tp_fraction(r):
    report = r["fingerprinting"]
    return (len(report.canvas_third_party_scripts())
            / max(1, len(report.canvas_scripts)))


def _https_sites(r):
    """Site HTTPS per tier, tiers of 10+ sites."""
    return [row.site_https_fraction for row in r["https"].rows
            if row.site_count >= 10]


def _geo_row(r, country):
    return next(row for row in r["geography"].rows if row.country == country)


def _fqdn_counts(r):
    return {row.country: row.fqdn_count for row in r["geography"].rows}


def _malicious_counts(r):
    return {country: len(domains) for country, domains
            in r["geography"].malicious_domains.items()}


def _banner(country, kind):
    return lambda r: r[f"banners:{country}"].fraction(kind)


def _age(r):
    return r.study.age_verification(top_n=50,
                                    countries=("US", "UK", "ES", "RU"))


def _subscriptions(r):
    return r.study.subscription_tracking()


# -- the ablations: sweeps over whole stored logs ------------------------

LEVENSHTEIN = (0.5, 0.6, 0.7, 0.8, 0.9)


def _levenshtein_sweep(r):
    """threshold -> (site CDNs labeled first party, pages whose own CDN
    was labeled third party, genuine services merged into a first
    party), against the generator's ground truth."""
    universe = r.study.universe
    log = r.study.porn_log()
    cdn_of_site = {site: cdn for cdn, site in universe.site_cdns.items()}
    rows = {}
    for threshold in LEVENSHTEIN:
        labels = label_parties(log, cert_lookup=universe.certificate_for,
                               levenshtein_threshold=threshold)
        hits = sum(1 for page, fqdns in labels.first_party.items()
                   if page in cdn_of_site
                   and any(registrable_domain(f) == cdn_of_site[page]
                           for f in fqdns))
        misses = sum(1 for page, fqdns in labels.third_party_direct.items()
                     if cdn_of_site.get(page)
                     and any(registrable_domain(f) == cdn_of_site[page]
                             for f in fqdns))
        merges = sum(1 for fqdns in labels.first_party.values()
                     for fqdn in fqdns
                     if registrable_domain(fqdn) in universe.services)
        rows[threshold] = (hits, misses, merges)
    return rows


CANVAS = (10, 25, 50, 100, 200)


def _canvas_sweep(r):
    """measureText threshold -> (scripts the rule flags, true
    fingerprinting services among their domains), per execution
    context (script URL, page)."""
    truth = {domain for domain, service in r.study.universe.services.items()
             if service.fingerprints}
    grouped: Dict[tuple, list] = {}
    for call in r.study.porn_log().js_calls:
        grouped.setdefault((call.script_url, call.document_host),
                           []).append(call)
    rows = {}
    for threshold in CANVAS:
        scripts, services = set(), set()
        for (url, _page), calls in grouped.items():
            if not any(c.api == API.CONTEXT_SET_FONT for c in calls):
                continue
            per_text: Dict[str, int] = {}
            for call in calls:
                if call.api == API.CONTEXT_MEASURE_TEXT:
                    text = call.arg("text", "")
                    per_text[text] = per_text.get(text, 0) + 1
            if max(per_text.values(), default=0) >= threshold:
                scripts.add(url)
                try:
                    services.add(registrable_domain(parse_url(url).host))
                except URLError:
                    pass
        rows[threshold] = (len(scripts), len(services & truth))
    return rows


CUTOFFS = (1, 3, 6, 12, 24)
#: First-party preference cookies the generator plants (never identifiers).
PREFERENCE_NAMES = {"theme", "lang", "vol"}


def _cookie_filter_sweep(r):
    """Minimum value length -> (persistent cookies kept as identifiers,
    preference cookies among them), over unique cookies."""
    unique: Dict[tuple, CookieRecord] = {}
    for cookie in r.study.porn_log().cookies:
        unique.setdefault((cookie.page_domain, cookie.domain, cookie.name,
                           cookie.value), cookie)
    rows = {}
    for cutoff in CUTOFFS:
        kept = [c for c in unique.values()
                if not c.session and len(c.value) >= cutoff]
        rows[cutoff] = (len(kept),
                        sum(1 for c in kept if c.name in PREFERENCE_NAMES))
    return rows


def _split_sync_pairs(r):
    """Cookie-sync pairs when URL tokens are also split on delimiters."""
    log = r.study.porn_log()
    events = [(cookie.seq, cookie) for cookie in log.cookies
              if len(cookie.value) >= MIN_VALUE_LENGTH]
    events.extend((record.seq, record) for record in log.requests)
    events.sort(key=lambda item: item[0])
    values: Dict[str, str] = {}
    pairs = set()
    for _, event in events:
        if isinstance(event, CookieRecord):
            values.setdefault(event.value, registrable_domain(event.domain))
            continue
        destination = registrable_domain(event.fqdn)
        tokens = list(_url_tokens(event.url))
        tokens += [part for token in tokens for delimiter in "-_.:"
                   if delimiter in token for part in token.split(delimiter)
                   if len(part) >= MIN_VALUE_LENGTH]
        for token in tokens:
            origin = values.get(token)
            if origin and origin != destination:
                pairs.add((origin, destination))
    return pairs


def _exact_sync_pairs(r):
    return set(r["cookie_sync"].pair_counts)


TFIDF = (0.3, 0.5, 0.7, 0.9, 0.97)


def _policy_texts(r):
    """Fetched policies longer than 600 letters, at most 600 of them."""
    return [i.policy.text for i in r.study.inspections()
            if i.reachable and i.policy.link_found and i.policy.fetched_ok
            and len(i.policy.text) > 600][:600]


def _tfidf_sweep(r):
    """Similarity threshold -> fraction of policy pairs above it."""
    texts = r(_policy_texts)
    return {threshold: pairwise_similarity_fractions(
        texts, threshold=threshold)[0] for threshold in TFIDF}


def _sweep(reader, key, index=None):
    def read(r):
        row = r(reader)[key]
        return row if index is None else row[index]
    return read


def _column(reader, index=None):
    def read(r):
        return [row if index is None else row[index]
                for row in r(reader).values()]
    return read


# -- the table -----------------------------------------------------------

def _claims() -> Sequence[Claim]:
    C = Claim
    t2 = lambda r: r["table2"]  # noqa: E731
    cookies = lambda r: r["cookie_stats"]  # noqa: E731
    sync = lambda r: r["cookie_sync"]  # noqa: E731
    fp = lambda r: r["fingerprinting"]  # noqa: E731
    https = lambda r: r["https"]  # noqa: E731
    malware = lambda r: r["malware"]  # noqa: E731
    geo = lambda r: r["geography"]  # noqa: E731
    policies = lambda r: r.study.policies()  # noqa: E731
    business = lambda r: r.study.business_models()  # noqa: E731
    adblock = lambda r: r.study.adblock_comparison()  # noqa: E731
    border = lambda r: r.study.cross_border()  # noqa: E731
    rows = [
        # §3 -- corpus
        C("sec3", "candidate websites", P.candidates_total,
          lambda r: len(r.study.corpus()[0])),
        C("sec3", "  from aggregators", P.from_aggregators,
          lambda r: _by_source(r).get("aggregator", 0)),
        C("sec3", "  from Alexa Adult category", P.from_alexa_category,
          lambda r: _by_source(r).get("alexa_category", 0)),
        C("sec3", "  from keyword search", P.from_keyword_search,
          lambda r: _by_source(r).get("keyword", 0)),
        C("sec3", "false positives removed", P.false_positives,
          lambda r: r.study.corpus()[1].false_positives),
        C("sec3", "  unresponsive", P.unresponsive_candidates,
          lambda r: len(r.study.corpus()[1].unresponsive)),
        C("sec3", "sanitized corpus within 5% of the scaled paper's",
          P.sanitized_corpus, lambda r: len(r.study.corpus()[1].corpus),
          "in", _corpus_band),
        # Figure 1 -- popularity
        C("fig1", "sites always in the top-1M", P.always_top_1m,
          lambda r: r["popularity"].always_top_1m_count),
        C("fig1", "  as a fraction of the corpus", "16%",
          lambda r: r["popularity"].always_top_1m_fraction, "in",
          (0.10, 0.25)),
        C("fig1", "sites always in the top-1K", P.always_top_1k,
          lambda r: r["popularity"].always_top_1k_count),
        C("fig1", "best ranks of listed sites", "sorted",
          lambda r: [rank for rank in r["popularity"].figure1_series()[0]
                     if rank], "ascending"),
        C("fig1", "top-1M presence, head fifth > tail fifth", "decays",
          lambda r: _presence(r)[0], ">", lambda r: _presence(r)[1]),
        # Table 1 -- owners
        C("table1", "companies identified", 24,
          lambda r: len(r["owners"].clusters)),
        C("table1", "sites attributed to companies", 286,
          lambda r: r["owners"].attributed_sites),
        C("table1", "TF-IDF candidate pairs rejected", "(manual step)",
          lambda r: r["owners"].rejected_pairs),
        C("table1", "top-10 clusters of 2+ scaled sites not recovered",
          "none", _owners_missing, "==", []),
        C("table1", "MindGeek's most popular site", "pornhub.com",
          _mindgeek_flagship, "==", "pornhub.com"),
        # §4.1 -- business models
        C("sec41", "sites offering subscriptions", P.subscription_fraction,
          lambda r: business(r).subscription_fraction, "in", (0.10, 0.20)),
        C("sec41", "  of those, behind a paywall",
          P.paid_subscription_fraction,
          lambda r: business(r).paid_fraction_of_subscriptions, "in",
          (0.15, 0.35)),
        C("sec41", "sites inspected", "(the corpus)",
          lambda r: business(r).inspected),
        # Table 2 -- third parties
        C("table2", "porn corpus crawled", P.crawlable_corpus,
          lambda r: t2(r).porn_corpus),
        C("table2", "porn third-party FQDNs", P.porn_third_party_fqdns,
          lambda r: t2(r).porn_third_party),
        C("table2", "regular third-party FQDNs", P.regular_third_party_fqdns,
          lambda r: t2(r).regular_third_party),
        C("table2", "porn first-party FQDNs", P.porn_first_party_fqdns,
          lambda r: t2(r).porn_first_party),
        C("table2", "regular first-party FQDNs", P.regular_first_party_fqdns,
          lambda r: t2(r).regular_first_party),
        C("table2", "FQDN intersection |P ∩ R|", P.fqdn_intersection,
          lambda r: t2(r).fqdn_intersection),
        C("table2", "porn ATS", P.porn_ats_fqdns, lambda r: t2(r).porn_ats),
        C("table2", "regular ATS", P.regular_ats_fqdns,
          lambda r: t2(r).regular_ats),
        C("table2", "ATS intersection", P.ats_intersection,
          lambda r: t2(r).ats_intersection),
        C("table2", "regular TP FQDNs > 2.5 × porn TP FQDNs",
          "21,128 vs 5,457", lambda r: t2(r).regular_third_party, ">",
          lambda r: 2.5 * t2(r).porn_third_party),
        C("table2", "porn ATS > 2 × regular ATS", "663 vs 196",
          lambda r: t2(r).porn_ats, ">", lambda r: 2 * t2(r).regular_ats,
          min_scale=0.1),
        C("table2", "porn ATS share > 4 × regular ATS share",
          "12.1% vs 0.9%", lambda r: t2(r).porn_ats_fraction, ">",
          lambda r: 4 * t2(r).regular_ats_fraction),
        C("table2", "porn ATS absent from the regular web", "84%",
          lambda r: t2(r).porn_only_ats_fraction, ">", 0.6, min_scale=0.1),
        # Table 3 -- the long tail
        *(C("table3", f"tier {tier}: sites / TPs (unique)",
            f"{P.tier_site_counts[index]:,} / "
            f"{P.tier_third_party_totals[index]:,} "
            f"({P.tier_third_party_unique[index]:,})",
            lambda r, index=index: "{0.site_count:,} / "
            "{0.third_party_total:,} ({0.third_party_unique:,})".format(
                r["table3"].rows[index]))
          for index, tier in enumerate(TIERS)),
        C("table3", "most third parties in the 10k-100k tier", "3,702",
          lambda r: r["table3"].rows[2].third_party_total, "==",
          lambda r: max(row.third_party_total for row in r["table3"].rows)),
        C("table3", "unique TPs: two unpopular tiers > two popular",
          "3,122 vs 650",
          lambda r: sum(row.third_party_unique
                        for row in r["table3"].rows[2:]), ">",
          lambda r: sum(row.third_party_unique
                        for row in r["table3"].rows[:2])),
        C("table3", "TP domains present in all four tiers",
          P.all_tier_fraction,
          lambda r: r["table3"].all_tier_fraction, "in()", (0.0, 0.10)),
        # Figure 3 -- organizations (porn / regular prevalence)
        C("fig3", "Alphabet", "74%", _prevalence("Alphabet")),
        C("fig3", "ExoClick", "40%", _prevalence("ExoClick")),
        C("fig3", "Cloudflare", "35%", _prevalence("Cloudflare")),
        C("fig3", "Oracle (AddThis)", "~18%", _prevalence("Oracle")),
        C("fig3", "Facebook", "really low", _prevalence("Facebook")),
        C("fig3", "leading organization", "Alphabet",
          lambda r: _bars(r)[0].organization, "==", "Alphabet"),
        C("fig3", "  its porn prevalence", "74%",
          lambda r: _bars(r)[0].porn_fraction, ">", 0.5),
        C("fig3", "ExoClick among the top 19", "yes",
          lambda r: _org(r, "ExoClick") is not None, "==", True),
        C("fig3", "ExoClick porn prevalence", "40%",
          lambda r: _org(r, "ExoClick").porn_fraction, ">", 0.15),
        C("fig3", "ExoClick regular prevalence", "porn-exclusive",
          lambda r: _org(r, "ExoClick").regular_fraction, "<", 0.01),
        C("fig3", "Facebook porn prevalence (0 when not in the top 19)",
          "really low",
          lambda r: _org(r, "Facebook").porn_fraction
          if _org(r, "Facebook") else 0.0, "<", 0.05),
        # Table 4 -- third-party ID cookies (% sites / cookies / % IP)
        *(C("table4", domain, f"{fraction:.0%} / {count:,} / {ip:.0%}",
            _cookie_row(domain))
          for domain, fraction, count, ip in P.top_cookie_domains),
        C("table4", "top-5 rows", 5,
          lambda r: len(cookies(r).top_domains), ">", 0),
        C("table4", "exosrv.com in the top 5", "first",
          lambda r: _top_cookie(r, "exosrv.com") is not None, "==", True),
        C("table4", "exosrv.com cookies embedding the client IP", "85%",
          lambda r: _top_cookie(r, "exosrv.com").ip_cookie_fraction, ">",
          0.7),
        C("table4", "exosrv.com is an ATS", "yes",
          lambda r: _top_cookie(r, "exosrv.com").is_ats, "==", True),
        C("table4", "every top-5 row is an ATS", "yes",
          lambda r: all(d.is_ats for d in cookies(r).top_domains), "==",
          True),
        # §5.1.1 -- cookie statistics
        C("sec51", "total cookies", P.total_cookies,
          lambda r: cookies(r).total_cookies),
        C("sec51", "potential-ID cookies", P.id_cookies,
          lambda r: cookies(r).id_cookies),
        C("sec51", "third-party cookie-setting domains",
          P.cookie_setting_third_parties,
          lambda r: len(cookies(r).third_party_cookie_domains)),
        C("sec51", "ID cookies > 1,000 chars", P.huge_cookie_fraction,
          lambda r: cookies(r).huge_id_cookies
          / max(1, cookies(r).id_cookies)),
        C("sec51", "cookies embedding the client IP", P.ip_embedding_cookies,
          lambda r: cookies(r).ip_cookies),
        C("sec51", "geolocation cookie sites", P.geo_cookie_sites,
          lambda r: len(cookies(r).geo_cookie_sites)),
        C("sec51", "top-100 cookies' site coverage", ">30%",
          lambda r: cookies(r).popular_cookie_site_coverage(100)),
        C("sec51", "sites installing cookies", P.sites_with_cookies_fraction,
          lambda r: cookies(r).sites_with_cookies_fraction, "in",
          (0.85, 1.0)),
        C("sec51", "sites with third-party cookies",
          P.sites_with_third_party_cookies_fraction,
          lambda r: cookies(r).sites_with_third_party_cookies_fraction,
          "in", (0.60, 0.85)),
        C("sec51", "third-party ID cookies > 0.4 × ID cookies",
          f"{P.third_party_id_cookies:,} vs {P.id_cookies:,}",
          lambda r: cookies(r).third_party_id_cookies, ">",
          lambda r: 0.4 * cookies(r).id_cookies),
        C("sec51", "ExoClick share of IP cookies", P.ip_cookies_exoclick_share,
          _exo_ip_share, ">", 0.85),
        C("sec51", "geolocation cookies", P.geo_cookies,
          lambda r: cookies(r).geo_cookies, ">=", 1),
        # Figure 4 / §5.1.2 -- cookie syncing
        C("fig4", "(origin, destination) pairs", P.sync_pairs,
          lambda r: sync(r).pair_count),
        C("fig4", "coverage of the top-100 sites", "58%",
          lambda r: sync(r).coverage_of(r.study.top_sites(100))),
        C("fig4", "sites where syncing is observed > 0.25 × visited",
          P.sync_sites, lambda r: len(sync(r).sites), ">",
          lambda r: 0.25 * len(r.study.visited_sites())),
        C("fig4", "origin domains > destination domains",
          f"{P.sync_origins:,} vs {P.sync_destinations:,}",
          lambda r: len(sync(r).origins), ">",
          lambda r: len(sync(r).destinations)),
        C("fig4", "pairs exchanging >= 75 × scale cookies", "(Fig. 4 edges)",
          lambda r: len(_heavy(r)), ">", 0),
        C("fig4", "an ExoClick-family origin among them", "yes",
          lambda r: any("exo" in origin for origin, _ in _heavy(r)), "==",
          True),
        C("fig4", "hprofits.com same-organization origins", 2,
          lambda r: len(_hprofits_triangle(r)), ">", 0),
        # Table 5 / §5.1.3 -- fingerprinting
        C("table5", "canvas-fingerprinting sites", P.canvas_sites,
          lambda r: len(fp(r).canvas_sites)),
        C("table5", "third-party services delivering them",
          P.canvas_third_party_services,
          lambda r: len(fp(r).canvas_services())),
        C("table5", "font-enumeration scripts (online-metrix.net)",
          P.font_fp_scripts, lambda r: len(fp(r).font_enumeration_scripts)),
        C("table5", "WebRTC scripts", P.webrtc_scripts,
          lambda r: len(fp(r).webrtc_scripts)),
        C("table5", "WebRTC sites", P.webrtc_sites,
          lambda r: len(fp(r).webrtc_sites)),
        C("table5", "scripts passing strict Englehardt-Narayanan", 0,
          lambda r: len(fp(r).englehardt_scripts), "==", 0),
        C("table5", "canvas-fingerprinting scripts", P.canvas_scripts,
          lambda r: len(fp(r).canvas_scripts), ">", 0),
        C("table5", "canvas scripts not in EasyList/EasyPrivacy",
          P.canvas_scripts_unlisted_fraction,
          lambda r: fp(r).unlisted_canvas_fraction(), ">", 0.75),
        C("table5", "canvas scripts fetched from third parties",
          P.canvas_scripts_third_party_fraction, _canvas_tp_fraction, "in",
          (0.5, 0.95)),
        # Table 6 / §5.2 -- HTTPS (sites / services)
        *(C("table6", f"tier {tier}: HTTPS sites / services",
            f"{P.tier_https_site_fraction[index]:.0%} / "
            f"{P.tier_https_service_fraction[index]:.0%}",
            lambda r, index=index: "{0.site_https_fraction:.0%} / "
            "{0.service_https_fraction:.0%}".format(r["https"].rows[index]))
          for index, tier in enumerate(TIERS)),
        C("table6", "site HTTPS by tier (tiers of 10+ sites)", "decays",
          _https_sites, "descending"),
        C("table6", "tier 0-1k site HTTPS", P.tier_https_site_fraction[0],
          lambda r: https(r).rows[0].site_https_fraction, ">", 0.8),
        C("table6", "tier 100k+ site HTTPS", P.tier_https_site_fraction[3],
          lambda r: https(r).rows[3].site_https_fraction, "<", 0.3),
        C("table6", "sites not fully HTTPS", "68%",
          lambda r: https(r).not_fully_https_fraction, "in", (0.55, 0.85)),
        C("table6", "  of those, leaking sensitive cookies in clear",
          P.cleartext_sensitive_cookie_fraction,
          lambda r: https(r).cleartext_cookie_fraction, "<", 0.3),
        # §5.3 -- malware
        C("sec53", "miner sites", P.miner_sites,
          lambda r: len(malware(r).miner_sites)),
        C("sec53", "malicious porn sites", P.malicious_porn_sites,
          lambda r: len(malware(r).malicious_sites), ">=", 1),
        C("sec53", "malicious third-party services",
          P.malicious_third_parties,
          lambda r: len(malware(r).malicious_third_parties), ">=", 1),
        C("sec53", "porn sites embedding them >= half their count",
          P.sites_with_malicious_third_parties,
          lambda r: malware(r).affected_site_count, ">=",
          lambda r: len(malware(r).malicious_third_parties) // 2),
        C("sec53", "cryptomining services, all the paper's",
          ", ".join(P.miner_services),
          lambda r: malware(r).miner_services, "<=", set(P.miner_services)),
        C("sec53", "  coinhive.com among them", "yes",
          lambda r: malware(r).miner_services, "has", "coinhive.com"),
        # Table 7 / §6.1 -- geography (FQDNs / unique / ATS / unique ATS)
        *(C("table7", country, " / ".join(f"{v:,}" for v in row),
            lambda r, country=country:
            "{0.fqdn_count:,} / {0.unique_fqdns:,} / {0.ats_count:,} / "
            "{0.unique_ats:,}".format(_geo_row(r, country)))
          for country, *row in P.per_country_fqdns),
        C("table7", "distinct FQDNs across countries",
          P.all_country_fqdn_total,
          lambda r: geo(r).total_fqdns, ">",
          lambda r: max(_fqdn_counts(r).values())),
        C("table7", "RU sees the fewest FQDNs", "4,750",
          lambda r: _fqdn_counts(r)["RU"], "==",
          lambda r: min(_fqdn_counts(r).values())),
        C("table7", "countries with no unique FQDN", 0,
          lambda r: [row.country for row in geo(r).rows
                     if not row.unique_fqdns > 0], "==", []),
        C("table7", "blocked sites: 0 < RU < IN",
          f"{P.blocked_sites_russia} / {P.blocked_sites_india}",
          lambda r: _geo_row(r, "RU").blocked_sites, "in()",
          lambda r: (0, _geo_row(r, "IN").blocked_sites)),
        # §6.2 -- malware by country (domains / sites)
        *(C("sec62", country, f"{P.malicious_domains_by_country[country]} / "
            f"{P.malicious_sites_by_country[country]}",
            lambda r, country=country:
            f"{len(geo(r).malicious_domains.get(country, ()))} / "
            f"{len(geo(r).malicious_sites.get(country, ()))}")
          for country in COUNTRIES),
        C("sec62", "sites with malware everywhere",
          P.malicious_sites_everywhere,
          lambda r: len(geo(r).malicious_sites_everywhere)),
        C("sec62", "IN sees the most malicious domains",
          P.malicious_domains_by_country["IN"],
          lambda r: _malicious_counts(r)["IN"], "==",
          lambda r: max(_malicious_counts(r).values())),
        C("sec62", "RU sees the fewest", P.malicious_domains_by_country["RU"],
          lambda r: _malicious_counts(r)["RU"], "==",
          lambda r: min(_malicious_counts(r).values())),
        C("sec62", "domains malicious everywhere",
          P.malicious_domains_everywhere,
          lambda r: len(geo(r).malicious_domains_everywhere), ">=", 1),
        C("sec62", "  within every country's set", "yes",
          lambda r: all(geo(r).malicious_domains_everywhere <= set(domains)
                        for domains in geo(r).malicious_domains.values()),
          "==", True),
        # Table 8 / §7.1 -- cookie banners (EU / US)
        *(C("table8", label, f"{P.banner_fractions_eu[key]:.2%} / "
            f"{P.banner_fractions_us[key]:.2%}",
            lambda r, kind=kind: f"{_banner('ES', kind)(r):.2%} / "
            f"{_banner('US', kind)(r):.2%}")
          for label, kind, key in (
              ("No Option", BANNER_NO_OPTION, "no_option"),
              ("Confirmation", BANNER_CONFIRMATION, "confirmation"),
              ("Binary", BANNER_BINARY, "binary"),
              ("Others", BANNER_OTHER, "other"))),
        C("table8", "EU banner total", "4.41%",
          lambda r: r["banners:ES"].total_fraction, "<", 0.10),
        C("table8", "EU total >= US total", "3.76%",
          lambda r: r["banners:ES"].total_fraction, ">=",
          lambda r: r["banners:US"].total_fraction),
        C("table8", "EU confirmation >= EU binary", "2.82% vs 0.20%",
          _banner("ES", BANNER_CONFIRMATION), ">=",
          _banner("ES", BANNER_BINARY)),
        C("table8", "EU binary >= US binary", "0.20% vs 0.06%",
          _banner("ES", BANNER_BINARY), ">=", _banner("US", BANNER_BINARY)),
        # §7.2 -- age verification on the top-50 sites
        *(C("sec72", f"{country}: sites with an age gate",
            P.age_gate_top50_fraction_russia if country == "RU"
            else P.age_gate_top50_fraction,
            lambda r, country=country: _age(r).by_country[country]
            .gate_fraction)
          for country in ("US", "UK", "ES", "RU")),
        C("sec72", "gate only in Russia", P.age_gate_only_russia_fraction,
          lambda r: len(_age(r).only_in("RU", others=WESTERN)) / 50),
        C("sec72", "gate everywhere except Russia",
          P.age_gate_except_russia_fraction,
          lambda r: len(_age(r).missing_in("RU", others=WESTERN)) / 50),
        C("sec72", "US/UK/ES show the same gated set", "yes",
          lambda r: _age(r).consistent_countries(WESTERN), "==", True),
        C("sec72", "button gates the crawler bypasses (US)", "all",
          lambda r: _age(r).by_country["US"].bypass_fraction, "==", 1.0),
        C("sec72", "sites whose gate differs in Russia", "20%",
          lambda r: len(_age(r).only_in("RU", others=WESTERN))
          + len(_age(r).missing_in("RU", others=WESTERN)), ">", 0),
        C("sec72", "verifiable (login) gates in Russia", 1,
          lambda r: len(_age(r).by_country["RU"].login_required_sites),
          ">=", 1),
        C("sec72", "  also counted as bypassed", 0,
          lambda r: len(_age(r).by_country["RU"].login_required_sites
                        & _age(r).by_country["RU"].bypassed_sites), "==", 0),
        # §7.3 -- privacy policies
        C("sec73", "HTTP-error false positives",
          P.policy_http_error_false_positives,
          lambda r: policies(r).http_error_false_positives),
        C("sec73", "min / max length (letters)",
          f"{P.policy_min_length:,} / {P.policy_max_length:,}",
          lambda r: f"{policies(r).min_letters:,} / "
          f"{policies(r).max_letters:,}"),
        C("sec73", "pairs compared", "1,202,312",
          lambda r: policies(r).pair_count),
        C("sec73", "top-25 tracking sites disclosing practices",
          P.policy_discloses_practices_fraction,
          lambda r: policies(r).disclosure_fraction(r.study.top_sites(25))),
        C("sec73", "sites with an accessible privacy policy",
          P.privacy_policy_fraction,
          lambda r: policies(r).presence_fraction, "in", (0.10, 0.22)),
        C("sec73", "policies mentioning the GDPR",
          P.policy_gdpr_mention_fraction,
          lambda r: policies(r).gdpr_fraction, "in", (0.12, 0.30),
          min_scale=0.1),
        C("sec73", "policy pairs with similarity > 0.5",
          P.policy_pairs_similar_fraction,
          lambda r: policies(r).similar_pair_fraction, ">", 0.6),
        C("sec73", "mean policy length (letters)", P.policy_mean_length,
          lambda r: policies(r).mean_letters, ">", 8_000),
        C("sec73", "sites disclosing the full third-party list", 1,
          lambda r: len(policies(r).full_list_sites), ">=", 1),
        # Ablation: the Levenshtein threshold of first/third-party labels
        *(C("ablation-levenshtein",
            f"threshold {t}: CDNs found / missed / false merges", "-",
            _sweep(_levenshtein_sweep, t)) for t in LEVENSHTEIN),
        C("ablation-levenshtein", "0.7: site CDNs labeled first party", "-",
          _sweep(_levenshtein_sweep, 0.7, 0), ">", 0),
        C("ablation-levenshtein", "0.7: services merged into a site", "-",
          _sweep(_levenshtein_sweep, 0.7, 2), "==", 0),
        C("ablation-levenshtein", "0.9 misses >= 0.7 misses", "-",
          _sweep(_levenshtein_sweep, 0.9, 1), ">=",
          _sweep(_levenshtein_sweep, 0.7, 1)),
        C("ablation-levenshtein", "0.5 merges >= 0.7 merges", "-",
          _sweep(_levenshtein_sweep, 0.5, 2), ">=",
          _sweep(_levenshtein_sweep, 0.7, 2)),
        # Ablation: the canvas rule's measureText threshold
        *(C("ablation-canvas", f"threshold {t}: scripts / true FP services",
            "-", _sweep(_canvas_sweep, t)) for t in CANVAS),
        C("ablation-canvas", "scripts flagged, thresholds 10 to 200",
          "shrinks", _column(_canvas_sweep, 0), "descending"),
        C("ablation-canvas", "true FP services at the paper's 50", "-",
          _sweep(_canvas_sweep, 50, 1), ">", 0),
        C("ablation-canvas", "scripts flagged at 200", "-",
          _sweep(_canvas_sweep, 200, 0), "==", 0),
        # Ablation: the 6-character ID-cookie cutoff
        *(C("ablation-cookie-filter",
            f"min length {c}: ID cookies / preference cookies", "-",
            _sweep(_cookie_filter_sweep, c)) for c in CUTOFFS),
        C("ablation-cookie-filter", "ID cookies kept, cutoffs 1 to 24",
          "shrinks", _column(_cookie_filter_sweep, 0), "descending"),
        C("ablation-cookie-filter", "preference cookies kept at 6", 0,
          _sweep(_cookie_filter_sweep, 6, 1), "==", 0),
        C("ablation-cookie-filter", "preference cookies kept at 1", "-",
          _sweep(_cookie_filter_sweep, 1, 1), ">", 0),
        C("ablation-cookie-filter",
          "ID cookies at 6 > 0.9 × ID cookies at 6 (holds when any is kept)",
          "-", _sweep(_cookie_filter_sweep, 6, 0), ">",
          lambda r: 0.9 * _sweep(_cookie_filter_sweep, 6, 0)(r)),
        C("ablation-cookie-filter", "ID cookies at 24 <= at 6", "-",
          _sweep(_cookie_filter_sweep, 24, 0), "<=",
          _sweep(_cookie_filter_sweep, 6, 0)),
        # Ablation: exact vs delimiter-split cookie-sync matching
        C("ablation-cookie-sync", "pairs, exact matching (paper)",
          "(lower bound)", lambda r: len(_exact_sync_pairs(r))),
        C("ablation-cookie-sync", "pairs, with delimiter splitting",
          "(upper estimate)", lambda r: len(r(_split_sync_pairs))),
        C("ablation-cookie-sync", "exact pairs within the split pairs",
          "subset", _exact_sync_pairs, "<=",
          lambda r: r(_split_sync_pairs)),
        # Ablation: the TF-IDF similarity threshold
        C("ablation-tfidf", "policies compared", "-",
          lambda r: len(r(_policy_texts))),
        *(C("ablation-tfidf", f"threshold {t}: pairs above", "-",
            _sweep(_tfidf_sweep, t)) for t in TFIDF),
        C("ablation-tfidf", "pairs above, thresholds 0.3 to 0.97", "shrinks",
          _column(_tfidf_sweep), "descending"),
        C("ablation-tfidf", "pairs above 0.5", "76%",
          _sweep(_tfidf_sweep, 0.5), ">", 0.5),
        C("ablation-tfidf", "pairs above 0.97 < 0.8 × above 0.5", "-",
          _sweep(_tfidf_sweep, 0.97), "<",
          lambda r: 0.8 * _sweep(_tfidf_sweep, 0.5)(r)),
        # §10 extensions
        C("ext-adblock", "requests cancelled by EasyList/EasyPrivacy", "-",
          lambda r: adblock(r).requests_blocked),
        C("ext-adblock", "third-party ID cookies, baseline -> protected",
          "-", lambda r: f"{adblock(r).baseline_third_party_cookies:,} -> "
          f"{adblock(r).protected_third_party_cookies:,}"),
        C("ext-adblock", "canvas-FP sites, baseline -> protected", "-",
          lambda r: f"{len(adblock(r).baseline_canvas_sites)} -> "
          f"{len(adblock(r).protected_canvas_sites)}"),
        C("ext-adblock", "third-party ID cookies the blocker removes", "-",
          lambda r: adblock(r).cookie_reduction, ">", 0.3),
        C("ext-adblock", "canvas-FP sites it removes",
          "few (91% of scripts unlisted)",
          lambda r: adblock(r).canvas_reduction, "<", 0.4),
        C("ext-adblock", "tracker domains surviving it", "-",
          lambda r: adblock(r).surviving_tracker_fraction, ">", 0.3),
        *(C("ext-subscriptions",
            f"{model}: sites / mean TPs / mean TP ID cookies", "-",
            lambda r, model=model: "{0.site_count} / "
            "{0.mean_third_parties:.1f} / "
            "{0.mean_third_party_id_cookies:.1f}".format(
                _subscriptions(r).row(model)))
          for model in (MODEL_NONE, MODEL_FREE, MODEL_PAID)),
        C("ext-subscriptions", "ad-supported sites > paid sites", "-",
          lambda r: _subscriptions(r).row(MODEL_NONE).site_count, ">",
          lambda r: _subscriptions(r).row(MODEL_PAID).site_count),
        C("ext-subscriptions", "mean TPs on ad-supported sites", "-",
          lambda r: _subscriptions(r).row(MODEL_NONE).mean_third_parties,
          ">", 0),
        C("ext-cross-border", "third-party requests located", "-",
          lambda r: border(r).requests_total),
        C("ext-cross-border", "top destination countries", "-",
          lambda r: ", ".join(
              f"{code}:{count}" for code, count in sorted(
                  border(r).by_country.items(),
                  key=lambda item: -item[1])[:5])),
        C("ext-cross-border", "requests terminating outside the EU", "-",
          lambda r: border(r).outside_eu_fraction, ">", 0.4),
        C("ext-cross-border", "ID-cookie holders hosted outside the EU", "-",
          lambda r: border(r).id_export_fraction, ">", 0.3),
    ]
    return tuple(rows)


CLAIMS: Sequence[Claim] = _claims()
CHECKED = [claim for claim in CLAIMS if claim.op]


def _ids() -> list:
    """``<claim id>-<n>``: the n-th checked row of its claim id."""
    seen: Dict[str, int] = {}
    ids = []
    for claim in CHECKED:
        seen[claim.id] = seen.get(claim.id, 0) + 1
        ids.append(f"{claim.id}-{seen[claim.id]}")
    return ids


# -- the study every claim reads -----------------------------------------

def stored_readings(scale: float, path: str) -> Readings:
    """``repro study --geo --store`` into a 2-shard store at ``path``,
    then a store-only study over it, as ``repro report`` opens one."""
    universe = build_universe(UniverseConfig(scale=scale))
    study = Study(universe, store=path, store_shards=2)
    try:
        study.run_all(geo=True)
    finally:
        study.close()
    return Readings(Study(universe, store=path, store_only=True))


@pytest.fixture(scope="module")
def readings(tmp_path_factory):
    readings = stored_readings(
        TIER1_SCALE, str(tmp_path_factory.mktemp("claims") / "store"))
    yield readings
    readings.study.close()


@pytest.mark.parametrize("claim", CHECKED, ids=_ids())
def test_paper_claim(readings, claim):
    measured, bound = claim.read(readings), claim.bound_at(readings)
    assert OPS[claim.op](measured, bound), \
        f"{claim.what}: measured {_show(measured)} {_check(claim.op, bound)}"


# -- the script: claims.txt at any scale ---------------------------------

def _show(value) -> str:
    if isinstance(value, float):
        return f"{value:,.0f}" if abs(value) >= 1_000 else f"{value:.4g}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    if isinstance(value, (set, frozenset, list)):
        if len(value) > 6:
            return f"{len(value):,} items"
        if isinstance(value, list):
            return f"[{', '.join(map(_show, value))}]"
        return "{" + ", ".join(sorted(map(str, value))) + "}"
    if isinstance(value, tuple):
        return " / ".join(map(_show, value))
    return str(value)


def _check(op: str, bound) -> str:
    if op in ("ascending", "descending"):
        return op
    if op in ("in", "in()"):
        low, high = map(_show, bound)
        return f"in [{low}, {high}]" if op == "in" else f"in ({low}, {high})"
    return f"{op} {_show(bound)}"


def _line(claim: Claim, readings: Readings) -> Tuple[str, Optional[str]]:
    """One row's measured text and its verdict: ``None`` for a reported
    row, else ``ok``, ``FAIL``, or ``small`` for a failure below the
    claim's smallest scale."""
    try:
        measured = claim.read(readings)
        if claim.op is None:
            return _show(measured), None
        bound = claim.bound_at(readings)
        ok = OPS[claim.op](measured, bound)
        text = f"{_show(measured)}  {_check(claim.op, bound)}"
    except Exception as exc:  # a row that cannot be read fails
        ok, text = False, f"error: {exc!r}"
    if ok:
        return f"{text}  ok", "ok"
    if readings.scale < claim.min_scale:
        return f"{text}  fails below scale {claim.min_scale}", "small"
    return f"{text}  FAIL", "FAIL"


def write_claims(readings: Readings, path: Path) -> Counter:
    """Write every row at the readings' scale to ``path``; how many
    claims got each verdict."""
    lines, verdicts, current = [], Counter(), None
    for claim in CLAIMS:
        if claim.id != current:
            current = claim.id
            lines.append(f"\n== {claim.id} (scale {readings.scale}, "
                         f"seed {readings.study.universe.config.seed}) ==")
        text, verdict = _line(claim, readings)
        if verdict:
            verdicts[verdict] += 1
        lines.append(f"{claim.what:<58} paper={_show(claim.paper):<18} "
                     f"measured={text}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines).lstrip("\n") + "\n")
    return verdicts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (1.0 = the paper's 6,843 sites)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="claims-") as scratch:
        readings = stored_readings(args.scale, str(Path(scratch) / "store"))
        try:
            verdicts = write_claims(readings, RESULTS / "claims.txt")
        finally:
            readings.study.close()
    print(f"scale {args.scale}: {verdicts['ok']} of {len(CHECKED)} claims "
          f"hold, {verdicts['small']} fail below their smallest scale, "
          f"{verdicts['FAIL']} fail; wrote {RESULTS / 'claims.txt'}")
    return 1 if verdicts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main())
