"""Unit tests for the geography comparison built on handcrafted inputs."""

import pytest

from repro.browser.events import PageVisit
from repro.core.ats import ATSResult
from repro.core.geodiff import CountryObservation, analyze_geography
from repro.core.malware import MalwareReport
from repro.core.mapmerge import map_visits
from repro.core.partylabel import PartyLabels
from repro.js.api import API, JSCall


def observation(country, fqdns, ats=(), malicious_domains=(),
                malicious_sites=(), blocked=0):
    labels = PartyLabels()
    labels.third_party_direct["page.com"] = set(fqdns)
    ats_result = ATSResult(ats_fqdns=set(ats))
    malware = MalwareReport(
        malicious_third_parties=set(malicious_domains),
        sites_with_malicious_third_parties={
            site: set(malicious_domains) for site in malicious_sites
        },
    )
    return CountryObservation(blocked=blocked, labels=labels, ats=ats_result,
                              malware=malware)


class TestGeoUnit:
    def build(self):
        observations = {
            "ES": observation("ES", {"a.com", "b.com", "es-only.com"},
                              ats={"a.com"},
                              malicious_domains={"mal.com", "es-mal.com"},
                              malicious_sites={"s1.com", "s2.com"}),
            "RU": observation("RU", {"a.com", "ru-only.ru"},
                              ats={"a.com", "ru-only.ru"},
                              malicious_domains={"mal.com"},
                              malicious_sites={"s1.com"},
                              blocked=2),
        }
        return analyze_geography(
            observations, regular_web_fqdns={"a.com", "unrelated.net"}
        )

    def test_unique_counts(self):
        report = self.build()
        rows = {row.country: row for row in report.rows}
        assert rows["ES"].unique_fqdns == 2      # b.com, es-only.com
        assert rows["RU"].unique_fqdns == 1      # ru-only.ru

    def test_unique_ats(self):
        report = self.build()
        rows = {row.country: row for row in report.rows}
        assert rows["ES"].unique_ats == 0        # a.com seen in both
        assert rows["RU"].unique_ats == 1

    def test_web_ecosystem_fraction(self):
        report = self.build()
        rows = {row.country: row for row in report.rows}
        assert rows["ES"].web_ecosystem_fraction == pytest.approx(1 / 3)
        assert rows["RU"].web_ecosystem_fraction == pytest.approx(1 / 2)

    def test_blocked_sites_reported(self):
        report = self.build()
        rows = {row.country: row for row in report.rows}
        assert rows["RU"].blocked_sites == 2
        assert rows["ES"].blocked_sites == 0

    def test_totals_are_unions(self):
        report = self.build()
        assert report.total_fqdns == 4
        assert report.total_ats == 2

    def test_malware_everywhere_intersection(self):
        report = self.build()
        assert report.malicious_domains_everywhere == {"mal.com"}
        assert report.malicious_sites_everywhere == {"s1.com"}


class TestMapVisits:
    """Table 7's blocked count and §5.3's miner calls are part of the
    per-site ``visits`` partial."""

    def test_keeps_only_cryptomining_worker_creations(self):
        script = "https://cdn.miner.io/m.js"
        calls = [
            JSCall(script, "a.com", API.WORKER_CREATE,
                   {"purpose": "cryptomining"}),
            JSCall(script, "a.com", API.WORKER_CREATE, {"purpose": "ui"}),
            JSCall(script, "a.com", API.WORKER_CREATE),
            JSCall(script, "a.com", API.CANVAS_TO_DATA_URL,
                   {"purpose": "cryptomining"}),
            JSCall("https://other.net/w.js", "b.a.com", API.WORKER_CREATE,
                   {"purpose": "cryptomining"}),
        ]
        visits = [PageVisit("a.com", "https://a.com/", True, status=200)]
        assert map_visits(visits, calls)["miners"] == (
            (script, "a.com"), ("https://other.net/w.js", "b.a.com"))
        assert map_visits(visits, [])["miners"] == ()

    def test_blocked_counted(self):
        visits = [
            PageVisit("a.com", "https://a.com/", True, status=200),
            PageVisit("a.com", "https://a.com/x", False, status=451),
            PageVisit("a.com", "https://a.com/y", False,
                      failure_reason="FetchError"),
            # Other failures are not blocking: a server error, a TLS
            # failure, and a FetchError that still carries a status.
            PageVisit("a.com", "https://a.com/z", False, status=500),
            PageVisit("a.com", "https://a.com/t", False,
                      failure_reason="TLSError"),
            PageVisit("a.com", "https://a.com/u", False, status=503,
                      failure_reason="FetchError"),
            # A page served despite its 451 status is a visit.
            PageVisit("b.com", "https://b.com/", True, status=451),
        ]
        partial = map_visits(visits, [])
        assert partial["blocked"] == 2
        assert partial["visited"] == ("a.com", "b.com")
