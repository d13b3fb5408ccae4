"""Packed universe: decoding on access changes nothing observable.

``build_universe`` keeps site specs as marshal-packed rows decoded on
access, derives site certificates from the specs, and renders policy
texts on first read.  What it serves is pinned by
``tests/golden/universe.json`` (see ``tests/test_golden.py``); these
tests pin the containers themselves at two more scales: every way of
reading a packed row agrees, and a crawl of the universe is byte-for-byte
the crawl of the same universe with every container materialized into a
plain dict.
"""

import pytest

from repro import UniverseConfig
from repro.crawler import OpenWPMCrawler, VantagePointManager
from repro.net.tls import Certificate
from repro.webgen import build_universe
from repro.webgen.lazyspecs import LazyCertificates, LazySpecMap
from repro.webgen.universe import Universe

SEED = 20191021
#: Two scales so the containers are exercised at more than one corpus
#: composition (populations appear/disappear with scale).
SCALES = (0.02, 0.04)


def _materialized(universe):
    """The same universe with every packed container decoded into a dict."""
    return Universe(
        universe.config,
        porn_sites=dict(universe.porn_sites.items()),
        regular_sites=dict(universe.regular_sites.items()),
        services=universe.services,
        site_cdns=universe.site_cdns,
        dynamic_cdn_sites=universe.dynamic_cdn_sites,
        rtb_bidders=universe.rtb_bidders,
        certificates=dict(universe.certificates.items()),
        easylist_text=universe.easylist_text,
        easyprivacy_text=universe.easyprivacy_text,
        disconnect=universe.disconnect,
        aggregator_listings=universe.aggregator_listings,
        alexa_category_sites=universe.alexa_category_sites,
        policy_texts=universe._policy_texts,
        full_list_site=universe.full_list_site,
        whois=universe.whois,
    )


def _pair(scale):
    lazy = build_universe(UniverseConfig(seed=SEED, scale=scale))
    return _materialized(lazy), lazy


def _expected_certificate_hosts(universe):
    """Every host a certificate exists for, derived from the specs."""
    hosts = {domain for domain, service in universe.services.items()
             if service.https}
    for sites in (universe.porn_sites, universe.regular_sites):
        hosts.update(domain for domain, site in sites.items() if site.https)
    for cdn_domain, owner in universe.site_cdns.items():
        site = universe.porn_sites.get(owner) or \
            universe.regular_sites.get(owner)
        if site is not None and site.https:
            hosts.add(cdn_domain)
    return hosts


@pytest.fixture(scope="module", params=SCALES)
def universes(request):
    return _pair(request.param)


class TestSpecParity:
    def test_lazy_mode_changes_container_not_content(self, universes):
        materialized, lazy = universes
        assert isinstance(lazy.porn_sites, LazySpecMap)
        assert isinstance(lazy.regular_sites, LazySpecMap)
        assert isinstance(lazy.certificates, LazyCertificates)
        assert list(lazy.porn_sites) == list(materialized.porn_sites)
        assert len(lazy.regular_sites) == len(materialized.regular_sites)

    def test_porn_specs_identical(self, universes):
        """Point lookups (the LRU path) mint what a full scan decodes."""
        materialized, lazy = universes
        assert {domain: lazy.porn_sites[domain]
                for domain in lazy.porn_sites} == materialized.porn_sites

    def test_regular_specs_identical(self, universes):
        materialized, lazy = universes
        assert {domain: lazy.regular_sites[domain]
                for domain in lazy.regular_sites} == \
            materialized.regular_sites

    def test_point_lookup_equals_iteration_decode(self, universes):
        """The LRU path and the streaming path mint the same spec."""
        _, lazy = universes
        domain = next(iter(lazy.porn_sites))
        via_lookup = lazy.porn_sites[domain]
        via_scan = next(spec for d, spec in lazy.porn_sites.items()
                        if d == domain)
        assert via_lookup == via_scan
        # Second lookup is served from the hot cache, same object.
        assert lazy.porn_sites[domain] is via_lookup

    def test_policy_texts_identical(self, universes):
        """A plan exists exactly for the sites that link a policy, and
        rendering it is pure: a re-render after eviction is identical."""
        materialized, lazy = universes
        expected = {domain for domain, site in materialized.porn_sites.items()
                    if site.policy is not None and not site.policy.link_broken}
        assert set(lazy._policy_texts) == expected
        first = {domain: lazy.policy_text(domain) for domain in expected}
        fresh = build_universe(lazy.config)
        for domain in reversed(list(expected)):
            assert fresh.policy_text(domain) == first[domain]
            assert fresh.policy_source(domain) == lazy.policy_source(domain)

    def test_certificates_identical(self, universes):
        materialized, lazy = universes
        assert set(lazy.certificates) == \
            _expected_certificate_hosts(materialized)
        for host in lazy.certificates:
            certificate = lazy.certificates[host]
            assert isinstance(certificate, Certificate)
            assert certificate == materialized.certificates[host]
            assert certificate.subject_cn == host
            assert host in certificate.san

    def test_whois_and_dns_identical(self, universes):
        """The RNG phases *after* spec packing stay in sequence: two
        builds of one config register the same records.

        ``DNSResolver`` / ``WhoisRegistry`` define no ``__eq__``, so
        compare their record tables directly.
        """
        _, lazy = universes
        again = build_universe(lazy.config)
        assert vars(again.whois) == vars(lazy.whois)
        assert again.dns._records == lazy.dns._records
        assert again.dns._wildcards == lazy.dns._wildcards
        assert set(lazy.porn_sites) <= set(lazy.whois._records)


class TestCrawlParity:
    """End-to-end: crawling the packed universe equals crawling its
    materialized copy, byte for byte.

    This subsumes landing HTML, cookies, redirects, JS calls — anything
    a spec field feeds into — and repeats per country because vantage
    changes which branches of the generators run.
    """

    COUNTRIES = ("ES", "US")

    @pytest.mark.parametrize("scale", SCALES)
    def test_per_country_crawl_logs_identical(self, scale):
        materialized, lazy = _pair(scale)
        vantage_points = VantagePointManager()
        domains = sorted(
            domain for domain, site in materialized.porn_sites.items()
            if site.responsive and not site.crawl_flaky
        )
        for country in self.COUNTRIES:
            vantage = vantage_points.point(country)
            reference = OpenWPMCrawler(materialized, vantage).crawl(domains)
            lazy_log = OpenWPMCrawler(lazy, vantage).crawl(domains)
            assert lazy_log == reference, country
            assert lazy_log._seq == reference._seq

    def test_regular_crawl_identical(self):
        materialized, lazy = _pair(SCALES[0])
        vantage = VantagePointManager().point("ES")
        domains = lazy.reference_regular_corpus()
        assert materialized.reference_regular_corpus() == domains
        reference = OpenWPMCrawler(materialized, vantage,
                                   keep_html=False).crawl(domains)
        lazy_log = OpenWPMCrawler(lazy, vantage,
                                  keep_html=False).crawl(domains)
        assert lazy_log == reference

    def test_bounded_fetch_cache_changes_nothing(self):
        """A tiny fetch cache (the memory-probe setting) is still exact."""
        config = UniverseConfig(seed=SEED, scale=SCALES[0])
        reference = build_universe(config)
        bounded = build_universe(config, fetch_cache_size=64)
        vantage = VantagePointManager().point("ES")
        domains = sorted(
            domain for domain, site in reference.porn_sites.items()
            if site.responsive and not site.crawl_flaky
        )
        assert OpenWPMCrawler(bounded, vantage).crawl(domains) == \
            OpenWPMCrawler(reference, vantage).crawl(domains)
