"""The benchmark's workloads, driven through the ``repro`` CLI.

Each workload has a *set-up* step and a *timed* step.  The program runs
in its own processes and only ever sees the seed, on its command line;
the benchmark measures the timed step's wall time, the peak RSS of the
process doing the work (``wait4``; for the long-lived server, its
high-water mark over the timed step), and the bytes the stores hold once
the program has closed them.  Every timed step also checks the
program's output and counts operations attempted and failed.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Hard limit for any one program invocation.
PROGRAM_TIMEOUT_S = 150.0
#: Per-epoch content churn of the ``epoch-serve`` universe.
SERVE_CHURN = 0.05
#: Delta epochs the ``epoch-serve`` timed step runs, in order.
SERVE_EPOCHS = (1, 2)
#: Open-loop reader rate (requests per second) during delta jobs.
READ_RATE = 10.0
#: Result routes the reader rotates through, by metric label.
READ_ROUTES = (("table2", "/jobs/{job}/tables/table2"),
               ("table5", "/jobs/{job}/tables/table5"),
               ("store_info", "/store/info"))

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed check)."""


# -- process helpers ---------------------------------------------------------

def program(args: List[str], trace: Optional[Path] = None) -> List[str]:
    """The command line for ``repro ARGS``, traced into ``trace`` if set."""
    if trace is not None:
        return [sys.executable, str(BENCH / "traced.py"), str(trace)] + args
    return [sys.executable, "-m", "repro"] + args


def wait_with_usage(proc: subprocess.Popen, timeout: float
                    ) -> Tuple[int, float]:
    """Reap ``proc`` (killing it after ``timeout``); returns its exit
    code and peak RSS in MB."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str


def invoke(argv: List[str], log: Path) -> Invocation:
    """Run one program to completion, capturing stdout; stderr to ``log``."""
    with open(log, "wb") as errors:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=errors,
                                env=ENV, cwd=ROOT)
        # Drained on a thread so the child never blocks on a full pipe
        # while wait4 collects its resource usage.
        chunks: List[bytes] = []
        reader = threading.Thread(
            target=lambda: chunks.append(proc.stdout.read()))
        reader.start()
        code, rss = wait_with_usage(proc, PROGRAM_TIMEOUT_S)
        wall = time.perf_counter() - start
        reader.join()
        proc.stdout.close()
    return Invocation(wall, rss, code, b"".join(chunks).decode("utf-8"))


def tree_mb(*paths: Path) -> float:
    """Apparent size, in MB, of every file at or under ``paths``."""
    total = 0
    for path in paths:
        if path.is_file():
            total += path.stat().st_size
        for parent, _, names in os.walk(path):
            total += sum(os.path.getsize(os.path.join(parent, name))
                         for name in names)
    return total / 1e6


def sections(report: str) -> List[str]:
    """A rendered report split at its ``== title ==`` headers."""
    return [part for part in re.split(r"(?m)^(?=== )", report) if part]


def differing_sections(expected: str, actual: str) -> Tuple[int, int]:
    """``(sections expected, sections that differ)``; any byte of
    difference counts at least one."""
    want, got = sections(expected), sections(actual)
    differing = sum(1 for index, part in enumerate(want)
                    if index >= len(got) or got[index] != part)
    differing += max(0, len(got) - len(want))
    if differing == 0 and expected != actual:
        differing = 1
    return len(want), differing


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(share * len(ordered) + 0.5)))
    return ordered[rank - 1]


# -- results -----------------------------------------------------------------

@dataclass
class Checked:
    """Output checks and operation counts of one step."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


@dataclass
class Setup(Checked):
    setup_s: float = 0.0
    state: Dict = field(default_factory=dict)


@dataclass
class Sample(Checked):
    """One timed step."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    store_mb: float = 0.0
    service: Dict[str, float] = field(default_factory=dict)
    trace: Optional[Path] = None


@dataclass
class Context:
    """The seed and scale of a run, and where one set-up and its timed
    steps keep their files."""

    seed: int
    scale: float
    directory: Path

    def log(self, name: str) -> Path:
        return self.directory / f"{name}.stderr"


def compare_reports(sample: Sample, expected: str, actual: str,
                    source: str) -> None:
    """Count ``actual``'s sections as attempted and those that differ
    from ``expected`` as failed."""
    attempted, failed = differing_sections(expected, actual)
    sample.attempted += attempted
    sample.failed += failed
    sample.expect(failed == 0, f"{failed} report sections differ from "
                               f"{source}")


# -- study-cold --------------------------------------------------------------

class StudyCold:
    """A cold ``repro study --store``: fresh process, fresh store."""

    name = "study-cold"
    steps_per_setup = 2
    #: Studies run so far in this process, and the first one's checked
    #: report (a run has one seed and one scale).
    studies = 0
    expected = ""

    def setup(self, ctx: Context, trace: Optional[Path]) -> Setup:
        """Compile the §3 corpus the study will crawl with ``repro
        corpus``; every study must report the same corpus size.  The
        study compiles the corpus again itself, as a cold process does."""
        done = Setup()
        start = time.perf_counter()
        corpus = invoke(program([
            "corpus", "--scale", str(ctx.scale), "--seed", str(ctx.seed),
        ]), ctx.log("corpus"))
        done.setup_s = time.perf_counter() - start
        if done.expect(corpus.returncode == 0, "repro corpus failed"):
            match = re.search(r"(?m)^sanitized corpus: (\d+) sites$",
                              corpus.stdout)
            if done.expect(match is not None, "repro corpus printed no size"):
                done.state["header"] = f"== corpus ({match.group(1)} sites) =="
        return done

    def timed(self, ctx: Context, setup: Setup,
              trace: Optional[Path]) -> Sample:
        """One study into a store of its own.  A run's first study is
        checked against ``repro report`` of the store it wrote; the later
        ones must print the same report byte for byte."""
        sample = Sample(trace=trace)
        self.studies += 1
        index = self.studies
        store = ctx.directory / f"store{index}"
        study = invoke(program([
            "study", "--scale", str(ctx.scale), "--seed", str(ctx.seed),
            "--store", str(store), "--store-shards", "2",
            "--parallelism", "1",
        ], trace), ctx.log(f"study{index}"))
        sample.wall_s, sample.peak_rss_mb = study.wall_s, study.peak_rss_mb
        sample.store_mb = tree_mb(store)
        if not sample.expect(study.returncode == 0, "repro study failed"):
            return sample
        sample.expect(study.stdout.startswith(setup.state["header"] + "\n"),
                      "the study's corpus differs from the set-up's")
        if index == 1:
            render = invoke(program(["report", "--store", str(store)]),
                            ctx.log("report"))
            if not sample.expect(render.returncode == 0,
                                 "repro report of the study's store failed"):
                return sample
            self.expected = render.stdout
            source = "a render of its store"
        else:
            source = "the first study's"
        compare_reports(sample, self.expected, study.stdout, source)
        shutil.rmtree(store, ignore_errors=True)
        return sample


# -- report-geo --------------------------------------------------------------

class ReportGeo:
    """``repro report --geo`` against a store built during set-up."""

    name = "report-geo"
    steps_per_setup = 4

    def setup(self, ctx: Context, trace: Optional[Path]) -> Setup:
        """Build the store with ``repro study --geo --store``; its printed
        report is what every timed render must reproduce.  The build uses
        both cores (its output is the same at any parallelism), which
        leaves more of a run for the timed renders."""
        done = Setup()
        start = time.perf_counter()
        study = invoke(program([
            "study", "--geo", "--scale", str(ctx.scale),
            "--seed", str(ctx.seed), "--store", str(ctx.directory / "store"),
            "--store-shards", "2", "--parallelism", "2",
        ]), ctx.log("study"))
        done.setup_s = time.perf_counter() - start
        if done.expect(study.returncode == 0, "set-up study failed"):
            done.state["expected"] = study.stdout
        return done

    def timed(self, ctx: Context, setup: Setup,
              trace: Optional[Path]) -> Sample:
        sample = Sample(trace=trace)
        store = ctx.directory / "store"
        report = invoke(program(["report", "--geo", "--store", str(store)],
                                trace), ctx.log("report"))
        sample.wall_s, sample.peak_rss_mb = report.wall_s, report.peak_rss_mb
        sample.store_mb = tree_mb(store)
        if not sample.expect(report.returncode == 0, "repro report failed"):
            return sample
        compare_reports(sample, setup.state["expected"], report.stdout,
                        "the set-up study's")
        return sample


# -- epoch-serve -------------------------------------------------------------

class ServiceClient:
    """Plain ``http.client`` access to one ``repro serve`` process."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=PROGRAM_TIMEOUT_S)

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, bytes]:
        connection = self.connection()
        try:
            payload = None if body is None else json.dumps(body).encode()
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def run_job(self, spec: Dict) -> Dict:
        """Submit a job and follow its event stream to the end."""
        submitted = time.perf_counter()
        status, body = self.request("POST", "/jobs", spec)
        if status != 201:
            raise BenchmarkError(f"job submission returned {status}: {body!r}")
        job_id = json.loads(body)["id"]
        kinds: Dict[str, int] = {}
        first_event = last = None
        connection = self.connection()
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            for line in connection.getresponse():
                if line.startswith(b"event:"):
                    if first_event is None:
                        first_event = time.perf_counter()
                    last = line[6:].strip().decode()
                    kinds[last] = kinds.get(last, 0) + 1
        finally:
            connection.close()
        _, body = self.request("GET", f"/jobs/{job_id}")
        info = json.loads(body)
        started = info["started_at"] or info["submitted_at"]
        return {
            "id": job_id, "last": last, "kinds": kinds,
            "first_event_ms": ((first_event or submitted) - submitted) * 1e3,
            "queue_wait_s": started - info["submitted_at"],
            "job_s": (info["finished_at"] or started) - started,
        }


class OpenLoopReader(threading.Thread):
    """Reads result routes on a fixed schedule over one connection.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier ones; its latency is measured from that due time, so a stall
    also charges the requests queued behind it.  ``max_late_ms`` is how
    far behind schedule the generator itself fell.
    """

    def __init__(self, client: ServiceClient, routes: List[Tuple[str, str]],
                 reference: Dict[str, bytes], rate: float) -> None:
        super().__init__(name="open-loop-reader", daemon=True)
        self.client, self.routes, self.reference = client, routes, reference
        self.rate = rate
        self.stop = threading.Event()
        self.latency_ms: Dict[str, List[float]] = {
            label: [] for label, _ in routes}
        self.errors = 0
        self.max_late_ms = 0.0

    def run(self) -> None:
        connection = self.client.connection()
        start = time.perf_counter()
        index = 0
        try:
            while not self.stop.is_set():
                due = start + index / self.rate
                delay = due - time.perf_counter()
                if delay > 0 and self.stop.wait(delay):
                    return
                label, path = self.routes[index % len(self.routes)]
                self.max_late_ms = max(
                    self.max_late_ms, (time.perf_counter() - due) * 1e3)
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    ok = (response.status == 200
                          and body == self.reference[label])
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = self.client.connection()
                    ok = False
                self.latency_ms[label].append(
                    (time.perf_counter() - due) * 1e3)
                self.errors += not ok
                index += 1
        finally:
            connection.close()


def reset_peak_rss(pid: int) -> None:
    """Restart a running process's peak-RSS high-water mark (Linux)."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb(pid: int) -> float:
    """A running process's peak RSS in MB since start or the last reset."""
    with open(f"/proc/{pid}/status") as handle:
        match = re.search(r"(?m)^VmHWM:\s+(\d+) kB$", handle.read())
    if match is None:
        raise BenchmarkError(f"no VmHWM for process {pid}")
    return int(match.group(1)) / 1024.0


def _last_study_stats(store: Path) -> Dict[str, int]:
    """The aggregate-cache counters the last finished job recorded."""
    connection = sqlite3.connect(str(store / "aggregates.sqlite"),
                                 timeout=30)
    try:
        row = connection.execute(
            "SELECT value FROM aggregate_meta WHERE key='last_study'"
        ).fetchone()
    finally:
        connection.close()
    return json.loads(row[0]) if row else {}


class EpochServe:
    """Delta epochs through ``repro serve`` beside an open-loop reader.

    The set-up crawls epoch 0 once and keeps a copy of the store it
    wrote.  Every timed step starts a server on a fresh copy, so each
    runs the same delta jobs from the same state without paying for
    the epoch-0 crawl again.
    """

    name = "epoch-serve"
    steps_per_setup = 2

    def spec(self, ctx: Context) -> Dict:
        return {"seed": ctx.seed, "scale": ctx.scale, "churn": SERVE_CHURN}

    def start(self, ctx: Context, trace: Optional[Path], step: Checked
              ) -> Tuple[subprocess.Popen, Optional[ServiceClient]]:
        """Boot the service on ``ctx``'s store; the client is None (and
        ``step`` notes why) if it did not start."""
        with open(ctx.log("serve"), "ab") as errors:
            server = subprocess.Popen(program([
                "serve", "--store", str(ctx.directory / "store"),
                "--port", "0", "--store-shards", "2",
            ], trace), stdout=subprocess.PIPE, stderr=errors, env=ENV,
                cwd=ROOT)
        try:
            banner = server.stdout.readline().decode()
        except BaseException:
            self.stop(server)
            raise
        match = re.search(r"serving on http://([\d.]+):(\d+)", banner)
        if not step.expect(match is not None,
                           f"repro serve did not start: {banner!r}"):
            return server, None
        return server, ServiceClient(match.group(1), int(match.group(2)))

    def stop(self, server: subprocess.Popen) -> int:
        """Interrupt the service unless it has ended; returns its exit
        code."""
        try:
            if server.poll() is None:
                server.send_signal(signal.SIGINT)
                wait_with_usage(server, 30.0)
        finally:
            server.stdout.close()
        return server.returncode

    def setup(self, ctx: Context, trace: Optional[Path]) -> Setup:
        """Run the epoch-0 job (which warms the aggregate cache), read
        each result route once for reference bytes, stop the service
        and copy the store aside."""
        done = Setup()
        start = time.perf_counter()
        server, client = self.start(ctx, None, done)
        try:
            if client is not None:
                self._prepare(ctx, done, client)
        finally:
            code = self.stop(server)
        done.expect(code in (0, 130), f"repro serve exited with {code}")
        if not done.problems:
            shutil.copytree(ctx.directory / "store",
                            ctx.directory / "epoch0")
        done.setup_s = time.perf_counter() - start
        return done

    def _prepare(self, ctx: Context, done: Setup,
                 client: ServiceClient) -> None:
        job = client.run_job(self.spec(ctx))
        done.attempted += 1
        if not done.expect(job["last"] == "job_done",
                           f"epoch-0 job ended in {job['last']}"):
            done.failed += 1
            return
        routes = done.state["routes"] = [
            (label, path.format(job=job["id"])) for label, path in READ_ROUTES]
        reference = done.state["reference"] = {}
        for label, path in routes:
            status, body = client.request("GET", path)
            done.expect(status == 200, f"warm-up read of {path}: {status}")
            reference[label] = body

    def timed(self, ctx: Context, setup: Setup,
              trace: Optional[Path]) -> Sample:
        """The delta jobs beside the reader, on a server started (and
        its served results read once, untimed) on a fresh copy of the
        epoch-0 store.  The server's peak RSS is reset when the jobs
        start, so start-up and those reads do not set it."""
        sample = Sample(trace=trace)
        store = ctx.directory / "store"
        for stale in ctx.directory.glob("store*"):
            shutil.rmtree(stale)
        shutil.copytree(ctx.directory / "epoch0", store)
        server, client = self.start(ctx, trace, sample)
        jobs = []
        try:
            if client is None:
                return sample
            for label, path in setup.state["routes"]:
                status, body = client.request("GET", path)
                sample.expect(status == 200
                              and body == setup.state["reference"][label],
                              f"restarted service served {path} "
                              f"differently ({status})")
            reader = OpenLoopReader(client, setup.state["routes"],
                                    setup.state["reference"], READ_RATE)
            reset_peak_rss(server.pid)
            start = time.perf_counter()
            reader.start()
            try:
                for epoch in SERVE_EPOCHS:
                    job = client.run_job(dict(self.spec(ctx), epoch=epoch,
                                              delta=True))
                    job["aggregates"] = _last_study_stats(store)
                    jobs.append(job)
            finally:
                sample.wall_s = time.perf_counter() - start
                reader.stop.set()
                reader.join()
            sample.peak_rss_mb = peak_rss_mb(server.pid)
        finally:
            code = self.stop(server)
        sample.expect(code in (0, 130), f"repro serve exited with {code}")
        sample.store_mb = tree_mb(*ctx.directory.glob("store*"))

        for job in jobs:
            sample.attempted += 1
            done = job["last"] == "job_done"
            sample.failed += not done
            sample.expect(done, f"delta job {job['id']} ended in {job['last']}")
            sample.expect(job["kinds"].get("site_spliced", 0) > 0,
                          f"delta job {job['id']} spliced no sites")
            sample.expect(job["aggregates"].get("hits", 0) > 0,
                          f"delta job {job['id']} had no aggregate-cache hits")
        reads = sum(len(values) for values in reader.latency_ms.values())
        sample.attempted += reads
        sample.failed += reader.errors
        sample.expect(reader.errors == 0,
                      f"{reader.errors} of {reads} reads failed")
        sample.service = {
            "service.queue_wait_s": sum(job["queue_wait_s"] for job in jobs),
            "service.job_s": sum(job["job_s"] for job in jobs),
            "service.first_event_ms": statistics.median(
                job["first_event_ms"] for job in jobs),
            "service.events": sum(sum(job["kinds"].values())
                                  for job in jobs),
            "service.reads": reads,
            "service.read_errors": reader.errors,
            "service.read_late_ms": reader.max_late_ms,
        }
        for label, values in reader.latency_ms.items():
            for name, share in (("p50", 0.5), ("p90", 0.9)):
                sample.service[f"service.read_ms.{label}.{name}"] = \
                    percentile(values, share)
        return sample

    def finish(self, ctx: Context, setup: Setup,
               samples: List[Sample]) -> None:
        """Stop the server, then size the stores it wrote: they are
        every step's ``store_mb``."""
        code = self.stop(setup)
        if not samples:
            return
        samples[-1].expect(code in (0, 130), f"repro serve exited with {code}")
        store = ctx.directory / "store"
        size = tree_mb(*store.parent.glob(store.name + "*"))
        for sample in samples:
            sample.store_mb = size


WORKLOADS = {workload.name: workload
             for workload in (StudyCold(), ReportGeo(), EpochServe())}

#: Service metrics traced runs report for every workload (zero where no
#: service runs).
SERVICE_METRICS = (
    ["service.queue_wait_s", "service.job_s", "service.first_event_ms",
     "service.events", "service.reads", "service.read_errors",
     "service.read_late_ms"]
    + [f"service.read_ms.{label}.{name}" for label, _ in READ_ROUTES
       for name in ("p50", "p90")]
)
