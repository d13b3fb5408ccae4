"""End-to-end benchmark of the ``repro`` pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report-geo --seed 20191021 \
        --seconds 30 --trace 0

Workloads (``perfbench/README.md`` says why each was chosen):

``study-cold``   a cold ``repro study --store`` in a fresh process and a
                 fresh store: crawl, browser, classification, writes.
``report-geo``   ``repro report --geo`` in a fresh process against a store
                 that ``repro study --geo --store`` built during set-up:
                 the read path, no crawl.
``epoch-serve``  ``repro serve``: set-up runs the epoch-0 job and keeps
                 the store; each timed step restarts the service on a
                 copy of it and runs delta jobs for epochs 1 and 2 while
                 an open-loop reader fetches results at a fixed rate.

A run makes as many timed steps as nominal ones fit in ``--seconds``
(:data:`NOMINAL_WALL_S`, at least :data:`MIN_STEPS`, at most
:data:`MAX_STEPS`), with a fresh set-up before every
``steps_per_setup`` of them and a calibration loop after every set-up
and step, and reports one value per metric (:func:`summarize`; times
are rescaled by the calibrations to a reference host speed).  The count
depends only on the arguments, never on how fast the host happens to
be, so every run computes the same statistic; the summary lines print
the raw times, the calibrations and how long the run took.

``--trace 0`` prints the end-to-end metrics ``setup_s``, ``wall_s``,
``peak_rss_mb`` and ``store_mb``.  ``--trace 1`` makes one untraced and
one traced step and prints the per-layer metrics of the traced one
(spans recorded by ``perfbench/traced.py``; the Chrome trace file stays
in ``.perfbench/traces/``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from layers import layer_metrics, select_roots  # noqa: E402
from tracing import load_spans  # noqa: E402
from workloads import (  # noqa: E402
    ENV, ROOT, SERVICE_METRICS, SRC, WORKLOADS, BenchmarkError, Context,
    Sample, Setup,
)

WORK = ROOT / ".perfbench"

#: Corpus scale of each workload (1.0 = the paper's 6,843 sites).
SCALES = {"study-cold": 0.03, "report-geo": 0.04, "epoch-serve": 0.03}
#: Typical seconds of one timed step, used to size a run.
NOMINAL_WALL_S = {"study-cold": 2.5, "report-geo": 2.5, "epoch-serve": 4.0}
MIN_STEPS = 2
MAX_STEPS = {"study-cold": 8, "report-geo": 8, "epoch-serve": 4}
#: Largest share of a traced step's wall time the root spans may leave
#: out: interpreter start-up, imports and exit for the CLI workloads
#: (about 0.5-0.8 s, 20-30% of traced runs at the shipped scales);
#: submission, event streaming and the gap between jobs for
#: ``epoch-serve`` (under 1%).
UNATTRIBUTED_MAX = {"study-cold": 0.5, "report-geo": 0.5, "epoch-serve": 0.1}
#: Iterations of the host calibration loop.
CALIBRATION_LOOPS = 3_000_000
#: Seconds the calibration loop takes on an undisturbed 2-vCPU Xeon
#: (2.1 GHz); ``setup_s`` and ``wall_s`` are reported at this host speed.
REFERENCE_CALIB_S = 0.1

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "store_mb": "MB"}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is now."""
    start = time.perf_counter()
    total = 0
    for value in range(CALIBRATION_LOOPS):
        total += value
    return time.perf_counter() - start


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith("hit_rate"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    return "count"


def per_layer(workload: str, traced: Sample, untraced: Sample,
              calib_s: float) -> Dict[str, float]:
    """Per-layer metrics of the traced step (see :mod:`layers`)."""
    spans = load_spans(str(traced.trace))
    if workload == "epoch-serve":
        roots = select_roots(spans, "service.job", min_epoch=1)
    else:
        roots = select_roots(spans, "process.main")
    metrics = layer_metrics(spans, roots)
    metrics.update({name: traced.service.get(name, 0.0)
                    for name in SERVICE_METRICS})
    unattributed = traced.wall_s - metrics["trace.self_sum_s"]
    metrics.update({
        "host.calib_s": calib_s,
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": untraced.wall_s,
        "trace.overhead_pct": (traced.wall_s / untraced.wall_s - 1) * 100,
        "trace.unattributed_s": unattributed,
    })
    share = unattributed / traced.wall_s
    traced.expect(0 <= share <= UNATTRIBUTED_MAX[workload],
                  f"the layers account for {1 - share:.0%} of the traced "
                  f"wall_s; at most {UNATTRIBUTED_MAX[workload]:.0%} may "
                  f"fall outside them")
    return metrics


def summarize(name: str, setups: List[Setup], samples: List[Sample],
              calibrations: List[float]) -> float:
    """A run's value of an end-to-end metric.

    Sizes are the median over the timed steps.  ``wall_s`` is the mean
    over the timed steps and ``setup_s`` the median over the set-ups,
    both rescaled to the reference host speed by the mean of the run's
    calibrations, which are spread between them: the throughput of a
    shared 2-vCPU host drifts by up to 1.8x over seconds to minutes,
    often for a whole run, and only long stretches average it out.
    """
    if name == "setup_s":
        seconds = statistics.median(setup.setup_s for setup in setups)
    elif name == "wall_s":
        seconds = statistics.fmean(sample.wall_s for sample in samples)
    else:
        return statistics.median(getattr(step, name) for step in samples)
    return seconds * REFERENCE_CALIB_S / statistics.fmean(calibrations)


def planned_steps(workload: str, seconds: float, trace: bool) -> int:
    if trace:
        return 2
    wanted = math.ceil(seconds / NOMINAL_WALL_S[workload])
    return min(MAX_STEPS[workload], max(MIN_STEPS, wanted))


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: Optional[float]) -> Tuple[Dict, List[str]]:
    """Run one workload; returns the result object and summary lines."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'repro'}")
    began = time.perf_counter()
    bench = WORKLOADS[workload]
    scale = scale or SCALES[workload]
    directory = WORK / workload
    shutil.rmtree(directory, ignore_errors=True)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    # Byte-compile the program untimed, so no step pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, env=ENV, stdout=subprocess.DEVNULL)

    steps = planned_steps(workload, seconds, trace)
    setups: List[Setup] = []
    samples: List[Sample] = []
    # A calibration follows every set-up and timed step.
    calibrations = [calibrate()]
    while len(samples) < steps:
        ctx = Context(seed=seed, scale=scale,
                      directory=directory / f"setup{len(setups)}")
        ctx.directory.mkdir(parents=True)
        group = range(len(samples),
                      min(steps, len(samples) + bench.steps_per_setup))
        traced = {index: (traces / f"{workload}-{seed}.json"
                          if trace and index == 1 else None)
                  for index in group}
        setup = bench.setup(ctx, traced[group[0]])
        setups.append(setup)
        calibrations.append(calibrate())
        if setup.problems:
            break
        for index in group:
            samples.append(bench.timed(ctx, setup, traced[index]))
            calibrations.append(calibrate())
            if samples[-1].problems:
                break
        shutil.rmtree(ctx.directory, ignore_errors=True)
        if samples and samples[-1].problems:
            break

    steps_done = setups + samples
    calib_s = statistics.fmean(calibrations)
    problems = [problem for step in steps_done for problem in step.problems]
    if not problems and len(samples) < MIN_STEPS:
        problems.append(f"only {len(samples)} timed steps ran")
    if trace and not problems:
        values = per_layer(workload, samples[1], samples[0], calib_s)
        problems.extend(samples[1].problems)
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(values.items())}
    elif not samples:
        metrics = {}
    else:
        metrics = {name: {"value": summarize(name, setups, samples,
                                             calibrations),
                          "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not problems,
        "attempted": max(1, sum(step.attempted for step in steps_done)),
        "failed": sum(step.failed for step in steps_done),
        "metrics": metrics,
    }
    lines = [f"perfbench {workload}: seed {seed}, scale {scale}, "
             f"{len(setups)} set-ups, {len(samples)} timed steps, "
             f"mean host.calib_s {calib_s:.4f}, "
             f"run {time.perf_counter() - began:.1f} s",
             "  setup_s: " + " ".join(f"{s.setup_s:.4f}" for s in setups)]
    for name in list(END_TO_END_UNITS)[1:]:
        lines.append(f"  {name}: " + " ".join(
            f"{getattr(sample, name):.4f}" for sample in samples))
    for name in SERVICE_METRICS:
        if any(name in sample.service for sample in samples):
            lines.append(f"  {name}: " + " ".join(
                f"{sample.service.get(name, 0.0):.4f}" for sample in samples))
    lines.append("  calib_s: " + " ".join(f"{c:.4f}" for c in calibrations))
    lines.extend(f"  problem: {problem}" for problem in problems)
    return result, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=20191021)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="override the workload's corpus scale "
                             "(smoke tests only; results are not comparable)")
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one, so every child
    # process it started is stopped and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.scale)
    except (BenchmarkError, OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
