"""Tests for §4.1: owner discovery (Table 1) and business models."""

import pytest

from repro.core.business import (
    MODEL_FREE,
    MODEL_NONE,
    MODEL_PAID,
    classify_business_models,
)
from repro.browser.events import PageVisit
from repro.core.mapmerge import map_owners
from repro.core.owners import (
    discover_owners,
    extract_head_organization,
    extract_policy_company,
    normalize_company,
)
from repro.crawler.selenium import (
    AgeGateObservation,
    PolicyObservation,
    SiteInspection,
)


class TestCompanyExtraction:
    def test_policy_company_extracted(self):
        text = ("This privacy statement explains how Gamma Entertainment Ltd. "
                "collects, stores, uses and discloses information")
        assert extract_policy_company(text) == "Gamma Entertainment Ltd"

    def test_generic_operator_rejected(self):
        text = ("This privacy statement explains how the operator of "
                "somesite.com collects, stores, uses")
        assert extract_policy_company(text) is None

    def test_no_match_returns_none(self):
        assert extract_policy_company("nothing here") is None

    def test_head_copyright_meta(self):
        html = ('<html><head><meta name="copyright" content="MindGeek">'
                "</head><body></body></html>")
        assert extract_head_organization(html) == "MindGeek"

    def test_head_generator_network_cms(self):
        html = ('<html><head><meta name="generator" '
                'content="Techpump Network CMS v2.1"></head></html>')
        assert extract_head_organization(html) == "Techpump"

    def test_generic_generator_ignored(self):
        html = ('<html><head><meta name="generator" '
                'content="WordPress 4.9.8"></head></html>')
        assert extract_head_organization(html) is None

    def test_normalize_company_strips_legal_suffixes(self):
        assert normalize_company("Gamma Entertainment Ltd.") == \
            normalize_company("gamma entertainment")
        assert normalize_company("ExoClick S.L.") == "exoclick"
        assert normalize_company("MindGeek") == "mindgeek"


class TestMapOwners:
    def test_heads_keep_organization_not_markup(self):
        visits = [
            PageVisit("a.com", "https://a.com/", True, html=(
                '<html><head><meta name="copyright" content="MindGeek">'
                "</head><body>big body</body></html>")),
            # No </head>: the full document is parsed.
            PageVisit("b.com", "https://b.com/", True, html=(
                '<html><head><meta name="generator" '
                'content="Techpump Network CMS v2.1"><body></body></html>')),
            # Markup without owner evidence stays, with no organization.
            PageVisit("c.com", "https://c.com/", True,
                      html="<html><head><title>c</title></head></html>"),
            PageVisit("d.com", "https://d.com/", True, html=""),
            PageVisit("e.com", "https://e.com/", False, status=451,
                      html="<html><head></head></html>"),
        ]
        assert map_owners(visits) == {"heads": (
            ("a.com", "MindGeek"), ("b.com", "Techpump"), ("c.com", None),
        )}

    def test_sites_without_evidence_still_get_certificates(self):
        looked_up = []

        def cert_lookup(site):
            looked_up.append(site)

        report = discover_owners(
            policy_texts={},
            head_organizations={"a.com": "MindGeek", "c.com": None},
            cert_lookup=cert_lookup,
        )
        assert looked_up == ["a.com", "c.com"]
        assert [(c.company, c.sites) for c in report.clusters] == \
            [("MindGeek", ["a.com"])]


class TestOwnerDiscovery:
    @pytest.fixture(scope="class")
    def report(self, study):
        return study.owners()

    def test_operator_clusters_recovered(self, universe, report):
        truth = {}
        for site in universe.porn_sites.values():
            if site.owner and site.responsive and not site.crawl_flaky:
                truth.setdefault(site.owner, set()).add(site.domain)
        recovered = {normalize_company(c.company) for c in report.clusters
                     if c.size >= 2}
        expected = {normalize_company(owner) for owner, sites in truth.items()
                    if len(sites) >= 2}
        # The method should recover the large clusters.
        assert len(recovered & expected) >= len(expected) * 0.7

    def test_no_false_merging_of_template_sharers(self, universe, report):
        """Independent sites sharing the dominant template must not cluster."""
        independents = {d for d, s in universe.porn_sites.items()
                        if s.owner is None}
        for cluster in report.clusters:
            independent_members = set(cluster.sites) & independents
            # An owner cluster never contains independent sites.
            owned_members = set(cluster.sites) - independents
            assert not (independent_members and owned_members)

    def test_tfidf_discovery_produced_rejections(self, report):
        # Template reuse creates many candidate pairs that verification
        # must reject (the paper's manual-filter step).
        assert report.rejected_pairs > 0

    def test_table1_sorted_by_size(self, report, study):
        rows = report.table1(study.best_rank)
        sizes = [size for _, size, _, _ in rows]
        assert sizes == sorted(sizes, reverse=True)

    def test_mindgeek_flagship_is_pornhub(self, report, study):
        rows = report.table1(study.best_rank)
        mindgeek = [row for row in rows
                    if normalize_company(row[0]) == "mindgeek"]
        if not mindgeek:
            pytest.skip("MindGeek cluster too small at this scale")
        _, _, flagship, rank = mindgeek[0]
        assert flagship == "pornhub.com"
        assert rank == 22


def inspection(domain, *, account=False, premium=False, payment=False,
               reachable=True):
    return SiteInspection(
        domain=domain,
        reachable=reachable,
        age_gate=AgeGateObservation(detected=False),
        policy=PolicyObservation(link_found=False),
        has_account_option=account,
        has_premium_cue=premium,
        has_payment_cue=payment,
    )


class TestBusinessModels:
    def test_no_cues_is_ad_supported(self):
        report = classify_business_models([inspection("a.com")])
        assert report.models[0].model == MODEL_NONE

    def test_account_plus_payment_is_paid(self):
        report = classify_business_models(
            [inspection("a.com", account=True, payment=True)]
        )
        assert report.models[0].model == MODEL_PAID

    def test_account_without_payment_is_free(self):
        report = classify_business_models(
            [inspection("a.com", account=True)]
        )
        assert report.models[0].model == MODEL_FREE

    def test_unreachable_excluded(self):
        report = classify_business_models(
            [inspection("a.com", reachable=False)]
        )
        assert report.inspected == 0

    def test_integration_fractions(self, study):
        report = study.business_models()
        assert 0.08 <= report.subscription_fraction <= 0.25
        assert 0.05 <= report.paid_fraction_of_subscriptions <= 0.5

    def test_ground_truth_agreement(self, universe, study):
        report = study.business_models()
        truth = {
            d: s.subscription for d, s in universe.porn_sites.items()
        }
        checked = mismatched = 0
        for model in report.models:
            expected = truth.get(model.site_domain)
            checked += 1
            is_subscription = model.model != MODEL_NONE
            if is_subscription != (expected is not None):
                mismatched += 1
        assert mismatched / checked < 0.05
