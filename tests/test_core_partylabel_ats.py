"""Tests for §4.2(1)-(2): party labeling and ATS classification."""

import pytest

from repro.browser.events import CrawlLog, RequestRecord
from repro.core.ats import ATSClassifier
from repro.core.partylabel import label_parties
from repro.net.url import registrable_domain


def make_request(url, page, *, referrer=None, rtype="script", seq=0,
                 status=200):
    from repro.net.url import parse_url

    parsed = parse_url(url)
    return RequestRecord(
        url=url, fqdn=parsed.host, scheme=parsed.scheme, page_domain=page,
        resource_type=rtype, initiator=None, referrer=referrer, seq=seq,
        status=status,
    )


class TestPartyLabelUnit:
    def test_same_registrable_is_first_party(self):
        log = CrawlLog()
        log.requests.append(
            make_request("https://cdn.site.com/a.js", "site.com",
                         referrer="https://site.com/")
        )
        labels = label_parties(log)
        assert not labels.all_third_party_fqdns
        # Same registrable domain: not even listed as extra first-party.
        assert not labels.all_first_party_fqdns

    def test_levenshtein_first_party(self):
        log = CrawlLog()
        log.requests.append(
            make_request("https://static.bigporntube99-cdn.com/l.png",
                         "bigporntube99.com",
                         referrer="https://bigporntube99.com/", rtype="image")
        )
        labels = label_parties(log)
        assert "static.bigporntube99-cdn.com" in labels.all_first_party_fqdns

    def test_unrelated_domain_is_third_party(self):
        log = CrawlLog()
        log.requests.append(
            make_request("https://ads.exoclick.com/a.js", "site.com",
                         referrer="https://site.com/")
        )
        labels = label_parties(log)
        assert "ads.exoclick.com" in labels.all_third_party_fqdns

    def test_direct_vs_dynamic_split(self):
        log = CrawlLog()
        log.requests.append(
            make_request("https://adnet.com/frame.html", "site.com",
                         referrer="https://site.com/", rtype="sub_frame")
        )
        log.requests.append(
            make_request("https://bidder.com/bid.js", "site.com",
                         referrer="https://adnet.com/frame.html")
        )
        labels = label_parties(log)
        assert "adnet.com" in labels.third_party_direct["site.com"]
        assert "bidder.com" in labels.third_party_dynamic["site.com"]
        assert "bidder.com" not in labels.all_third_party_fqdns

    def test_failed_requests_ignored(self):
        log = CrawlLog()
        record = make_request("https://dead.com/x.js", "site.com",
                              referrer="https://site.com/")
        record.failed = True
        log.requests.append(record)
        assert not label_parties(log).all_third_party_fqdns

    def test_threshold_parameter(self):
        log = CrawlLog()
        log.requests.append(
            make_request("https://abcd1.com/x.js", "abcd2.com",
                         referrer="https://abcd2.com/")
        )
        strict = label_parties(log, levenshtein_threshold=0.95)
        loose = label_parties(log, levenshtein_threshold=0.5)
        assert "abcd1.com" in strict.all_third_party_fqdns
        assert "abcd1.com" in loose.all_first_party_fqdns


class TestPartyLabelIntegration:
    def test_ground_truth_recovery(self, universe, study):
        """Labeled third parties match the generator's embed ground truth."""
        labels = study.porn_labels()
        sample = sorted(labels.third_party_direct)[:30]
        for page in sample:
            spec = universe.porn_sites.get(page)
            if spec is None:
                continue
            truth = set(spec.embedded_services)
            for fqdn in labels.third_party_direct[page]:
                base = registrable_domain(fqdn)
                assert base in truth or base in universe.services

    def test_own_cdn_labeled_first_party(self, universe, study):
        labels = study.porn_labels()
        cdn_bases = set(universe.site_cdns)
        found = {
            registrable_domain(f) for f in labels.all_first_party_fqdns
        }
        assert found & cdn_bases

    def test_sites_embedding_matches_a_scan(self, study):
        """The memoized reverse index answers as a scan of every page
        does, and hands out a fresh set per call."""
        labels = study.porn_labels()
        bases = {registrable_domain(fqdn)
                 for fqdn in labels.all_third_party_fqdns} | {"absent.test"}
        for base in sorted(bases):
            scanned = {page for page, fqdns
                       in labels.third_party_direct.items()
                       if any(registrable_domain(fqdn) == base
                              for fqdn in fqdns)}
            assert labels.sites_embedding(base) == scanned, base
        some = next(iter(sorted(bases)))
        labels.sites_embedding(some).add("mutated.test")
        assert "mutated.test" not in labels.sites_embedding(some)


class TestATS:
    @pytest.fixture(scope="class")
    def classifier(self, universe):
        return ATSClassifier.from_texts(universe.easylist_text,
                                        universe.easyprivacy_text)

    def test_named_ats_matched(self, classifier):
        assert classifier.matches_url("https://ads.exoclick.com/ad/banner-x.js")

    def test_path_only_rules(self, classifier):
        # ero-advertising's ad paths are listed...
        assert classifier.matches_url("https://ero-advertising.com/ad/banner-1.js")
        # ...but its fingerprinting script escapes full-URL matching (§5.1.3).
        assert not classifier.matches_url("https://ero-advertising.com/fp/fp-3.js")
        # The relaxed domain method still flags the domain as an ATS.
        assert classifier.matches_domain("ero-advertising.com")

    def test_unlisted_tracker_escapes(self, classifier):
        assert not classifier.matches_url("https://xcvgdf.party/fp/fp-0.js")
        assert not classifier.matches_domain("xcvgdf.party")

    def test_interleaved_sites_are_grouped_by_site(self):
        """Without site marks a log's rows are grouped by site: a
        hand-built log that interleaves two sites is classified as if
        each site's requests were contiguous (every crawl keeps them so).
        Read in place, p1's second request would follow p2's strict
        match and land in ``per_page`` too."""
        classifier = ATSClassifier.from_texts("||x.com/ad/\n", "")
        log = CrawlLog()
        log.requests.extend([
            make_request("https://x.com/ok.js", "p1.com",
                         referrer="https://p1.com/"),
            make_request("https://x.com/ad/a.js", "p2.com",
                         referrer="https://p2.com/"),
            make_request("https://x.com/ok.js", "p1.com",
                         referrer="https://p1.com/"),
        ])
        result = classifier.classify_log(log)
        assert result.per_page == {"p2.com": {"x.com"}}
        assert result.ats_fqdns == {"x.com"}

    def test_classify_log_counts(self, study):
        result = study.porn_ats()
        assert result.fqdn_count > 0
        assert result.ats_domains_relaxed >= set()
        for page, fqdns in list(result.per_page.items())[:5]:
            assert fqdns <= study.porn_labels().third_parties_of(page) | fqdns

    def test_porn_ats_exceed_regular_ats(self, study):
        table = study.table2()
        assert table.porn_ats > table.regular_ats
        assert table.porn_ats_fraction > table.regular_ats_fraction

    def test_majority_of_porn_ats_absent_from_regular_web(self, study):
        # The paper's 84% headline.
        table = study.table2()
        assert table.porn_only_ats_fraction > 0.5
