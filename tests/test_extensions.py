"""Tests for the §10 future-work extensions."""

import pytest

from repro import Study
from repro.core.business import MODEL_NONE, MODEL_PAID
from repro.datastore import CrawlStore


class TestAdblockSimulation:
    @pytest.fixture(scope="class")
    def comparison(self, study):
        return study.adblock_comparison()

    def test_blocker_cancels_requests(self, comparison):
        assert comparison.requests_blocked > 0

    def test_blocker_reduces_third_party_cookies(self, comparison):
        assert comparison.protected_third_party_cookies < \
            comparison.baseline_third_party_cookies
        assert comparison.cookie_reduction > 0.2

    def test_unlisted_fingerprinters_survive(self, comparison):
        """The paper's warning: blocklists miss the porn-specialized
        fingerprinters, so canvas fingerprinting largely survives."""
        if not comparison.baseline_canvas_sites:
            pytest.skip("no canvas sites at this scale")
        assert comparison.canvas_reduction < 0.5

    def test_some_trackers_survive(self, comparison):
        assert 0.0 < comparison.surviving_tracker_fraction < 1.0

    def test_blocked_requests_not_in_log(self, study, universe):
        from repro.core.extensions.adblock_sim import crawl_with_adblocker

        domains = study.corpus_domains()[:10]
        log = crawl_with_adblocker(
            universe, study.vantage_points.home, domains,
            study.ats_classifier(),
        )
        for record in log.requests:
            assert record.error != "BLOCKED" or record.failed


class TestSubscriptionTracking:
    @pytest.fixture(scope="class")
    def report(self, study):
        return study.subscription_tracking()

    def test_all_models_reported(self, report):
        assert {row.model for row in report.rows} == \
            {MODEL_NONE, "free_subscription", MODEL_PAID}

    def test_site_counts_positive(self, report):
        ad_supported = report.row(MODEL_NONE)
        assert ad_supported is not None
        assert ad_supported.site_count > 0

    def test_means_non_negative(self, report):
        for row in report.rows:
            assert row.mean_third_parties >= 0
            assert row.mean_third_party_id_cookies >= 0
            assert 0.0 <= row.sites_with_tracking_fraction <= 1.0


class TestCrossBorder:
    @pytest.fixture(scope="class")
    def report(self, study):
        return study.cross_border()

    def test_requests_located(self, report):
        assert report.requests_total > 0
        assert sum(report.by_country.values()) == report.requests_total

    def test_majority_leaves_the_eu(self, report):
        """US/SG hosting dominates ad-tech: most tracking traffic from an
        EU visitor terminates outside the EU."""
        assert report.outside_eu_fraction > 0.4

    def test_id_exports_flagged(self, report):
        assert report.id_cookie_domains
        assert report.id_exporting_domains <= report.id_cookie_domains
        assert report.id_export_fraction > 0.3

    def test_country_codes_valid(self, report):
        from repro.net.geo import COUNTRIES

        for code in report.by_country:
            assert code in COUNTRIES


def test_store_backed_extensions_match_in_memory(study, universe, tmp_path,
                                                 monkeypatch):
    """With a store the extensions read the home porn run whole, loaded
    once through ``CrawlStore.load_log``; their results equal the
    in-memory study's."""
    loads = []
    load_log = CrawlStore.load_log

    def counted(self, run):
        loads.append(run)
        return load_log(self, run)

    monkeypatch.setattr(CrawlStore, "load_log", counted)
    stored = Study(universe, parallelism=1, store=str(tmp_path / "store"))
    try:
        assert stored.adblock_comparison() == study.adblock_comparison()
        assert stored.subscription_tracking() == \
            study.subscription_tracking()
        assert stored.cross_border() == study.cross_border()
    finally:
        stored.close()
    assert len(loads) == 1
