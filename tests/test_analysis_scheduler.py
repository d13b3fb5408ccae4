"""Parallel analysis scheduler: ``run_all`` with threads must reproduce
the serial evaluation exactly, and the banner fast path must agree with
the unfiltered DOM walk on every crawled page."""

from __future__ import annotations

from repro import Study
from repro.core.compliance.banners import detect_banner
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
        threaded = Study(universe, parallelism=3)
        serial.run_all()
        threaded.run_all()
        assert render_table1(serial.owners(), serial.best_rank) == \
            render_table1(threaded.owners(), threaded.best_rank)
        assert render_table2(serial.table2()) == \
            render_table2(threaded.table2())
        assert render_table4(serial.cookie_stats()) == \
            render_table4(threaded.cookie_stats())
        assert render_table8(serial.banners("ES"), serial.banners("US")) == \
            render_table8(threaded.banners("ES"), threaded.banners("US"))
        serial_policies = serial.policies()
        threaded_policies = threaded.policies()
        assert serial_policies.collected == threaded_policies.collected
        assert serial_policies.pair_count == threaded_policies.pair_count
        assert serial_policies.similar_pair_fraction == \
            threaded_policies.similar_pair_fraction

    def test_task_list_is_ordered_and_complete(self, universe):
        study = Study(universe, parallelism=1)
        names = [name for name, _ in study._analysis_tasks()]
        assert names == sorted(set(names), key=names.index)  # no duplicates
        assert "owners" in names and "table2" in names
        assert [n for n in names if n.startswith("banners:")] == \
            ["banners:ES", "banners:US"]
        geo_names = [name for name, _ in study._analysis_tasks(geo=True)]
        assert "geography" in geo_names

    def test_prefetch_is_noop_when_serial(self, universe):
        study = Study(universe, parallelism=1)
        study.prefetch_analyses()
        assert study._cache == {}


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
