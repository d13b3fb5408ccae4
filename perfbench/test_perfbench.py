"""Smoke tests for the benchmark itself.

Run from the repository root (about a minute)::

    python3 -m pytest perfbench/test_perfbench.py -q

The self-time arithmetic is checked on hand-made spans; every workload
then runs once untraced and once traced at a tiny corpus scale, and its
result must be correct and carry exactly the metric names and units
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from layers import layer_metrics  # noqa: E402
from tracing import Span, Tracer, load_spans, self_times  # noqa: E402

ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_child_coverage_once():
    spans = [
        Span(0, "process.main", 1, 0, 100),
        Span(1, "core.labels", 1, 10, 40, parent=0),
        Span(2, "datastore.read", 1, 20, 30, parent=1, args={"rows": 7}),
        Span(3, "browser.visit", 1, 50, 90, parent=0),
        # Overlaps its sibling and overhangs the parent: only the part
        # no other child covers, inside the parent, is subtracted.
        Span(4, "browser.visit", 1, 80, 105, parent=0),
    ]
    own = self_times(spans)
    assert own == {0: 100 - 30 - 50, 1: 30 - 10, 2: 10, 3: 40, 4: 25}

    metrics = layer_metrics(spans[:4], [0])
    assert metrics["core.labels_s"] == pytest.approx(20e-9)
    assert metrics["datastore.read_s"] == pytest.approx(10e-9)
    assert metrics["browser.visit_s"] == pytest.approx(40e-9)
    assert metrics["trace.other_s"] == pytest.approx(30e-9)
    assert metrics["datastore.rows_read"] == 7
    assert metrics["trace.self_sum_s"] == pytest.approx(
        metrics["trace.root_s"])


def test_unselected_roots_running_alongside_are_counted():
    spans = [
        Span(0, "service.job", 1, 100, 200, args={"epoch": 1}),
        Span(1, "datastore.splice", 1, 120, 150, parent=0),
        # A request handled on another thread during the job ...
        Span(2, "service.request", 2, 180, 230),
        Span(3, "reporting.render", 2, 190, 220, parent=2),
        # ... and the set-up job, which ended before it began.
        Span(4, "service.job", 1, 0, 90, args={"epoch": 0}),
    ]
    metrics = layer_metrics(spans, [0])
    assert metrics["trace.other_roots"] == 1
    assert metrics["trace.other_roots_s"] == pytest.approx(50e-9)
    assert metrics["reporting.render_s"] == 0
    assert metrics["datastore.splice_s"] == pytest.approx(30e-9)


def test_tracer_nests_per_thread_and_round_trips(tmp_path):
    tracer = Tracer()
    outer = tracer.begin("process.main")
    inner = tracer.begin("core.map", {"sites": 3})
    tracer.end(inner, {"rows": 5})
    tracer.end(outer)
    with pytest.raises(RuntimeError):
        tracer.end(outer)
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    spans = load_spans(str(path))
    assert [(s.name, s.parent) for s in spans] == [
        ("process.main", None), ("core.map", 0)]
    assert spans[1].args == {"sites": 3, "rows": 5}
    assert sum(self_times(spans).values()) == spans[0].duration


def _run(workload: str, trace: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_declared_metric(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        got = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
        assert got == {metric["name"]: metric["unit"] for metric in declared}
        if trace == 0:
            assert all(metric["value"] > 0
                       for metric in result["metrics"].values())
        else:
            values = {name: metric["value"]
                      for name, metric in result["metrics"].items()}
            assert values["trace.spans"] > 0
            assert values["trace.self_sum_s"] == pytest.approx(
                values["trace.root_s"], abs=1e-3)


def test_refuses_to_run_without_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report-geo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
