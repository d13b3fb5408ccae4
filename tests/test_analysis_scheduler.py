"""The study's schedule: ``run_all`` with forked crawls must reproduce
the serial evaluation exactly, the results it evaluates come from the
section table, and the banner fast path must agree with the unfiltered
DOM walk on every crawled page."""

from __future__ import annotations

from repro import Study
from repro.core.compliance.banners import detect_banner
from repro.reporting.sections import study_results
from repro.reporting.tables import (
    render_table1,
    render_table2,
    render_table4,
    render_table8,
)

from .reference import detect_banner_unfiltered


class TestSchedulerDeterminism:
    def test_run_all_parallel_equals_serial(self, universe):
        serial = Study(universe, parallelism=1)
        forked = Study(universe, parallelism=3)
        serial.run_all()
        forked.run_all()
        assert render_table1(serial.owners(), serial.best_rank) == \
            render_table1(forked.owners(), forked.best_rank)
        assert render_table2(serial.table2()) == \
            render_table2(forked.table2())
        assert render_table4(serial.cookie_stats()) == \
            render_table4(forked.cookie_stats())
        assert render_table8(serial.banners("ES"), serial.banners("US")) == \
            render_table8(forked.banners("ES"), forked.banners("US"))
        serial_policies = serial.policies()
        forked_policies = forked.policies()
        assert serial_policies.collected == forked_policies.collected
        assert serial_policies.pair_count == forked_policies.pair_count
        assert serial_policies.similar_pair_fraction == \
            forked_policies.similar_pair_fraction

    def test_task_list_is_ordered_and_complete(self):
        names = [name for name, _ in study_results()]
        assert names == sorted(set(names), key=names.index)  # no duplicates
        assert "owners" in names and "table2" in names
        assert [n for n in names if n.startswith("banners:")] == \
            ["banners:ES", "banners:US"]
        assert "geography" not in names
        geo_names = [name for name, _ in study_results(geo=True)]
        assert geo_names == names[:-2] + ["geography"] + names[-2:]


class TestBannerPrefilterParity:
    def test_fast_path_matches_full_walk(self, study):
        log = study.porn_log("ES")
        pages = [(v.site_domain, v.html)
                 for v in log.successful_visits() if v.html]
        assert pages
        detected = 0
        for site_domain, html in pages:
            fast = detect_banner(html, site_domain)
            slow = detect_banner_unfiltered(html, site_domain)
            assert fast == slow, site_domain
            if fast is not None:
                detected += 1
        assert detected > 0  # the corpus must exercise the slow path too
