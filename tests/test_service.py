"""Tests for the measurement service (``repro serve``).

Covers the four service layers: the journaled job queue (submit,
recover-on-restart), the worker pool with cooperative cancellation at
checkpoint boundaries, the multi-subscriber event log / SSE framing,
and the HTTP result endpoints' byte-identity with ``repro report``.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import (
    ANALYSIS_NAMES,
    EventLog,
    Job,
    JobCancelled,
    JobManager,
    JobSpec,
    JobState,
    ReproServer,
    TERMINAL_KINDS,
)
from repro.service.jobs import JobJournal, execute_job, journal_path
from repro.service.sse import HEARTBEAT_FRAME, format_event, parse_stream

SEED = 3
SCALE = 0.02


# -- events + SSE framing -----------------------------------------------


class TestEventLog:
    def test_publish_assigns_dense_sequence(self):
        log = EventLog()
        first = log.publish("job_submitted", {"id": "1"})
        second = log.publish("site_started", {"domain": "x.com"})
        assert (first.seq, second.seq) == (0, 1)
        assert len(log) == 2
        assert not log.finished

    def test_subscribe_replays_then_ends_at_terminal(self):
        log = EventLog()
        log.publish("job_submitted", {})
        log.publish("job_done", {})
        kinds = [event.kind for event in log.subscribe()]
        assert kinds == ["job_submitted", "job_done"]
        assert log.finished

    def test_subscribe_from_seq_skips_history(self):
        log = EventLog()
        for kind in ("job_submitted", "job_started", "job_done"):
            log.publish(kind, {})
        kinds = [event.kind for event in log.subscribe(from_seq=2)]
        assert kinds == ["job_done"]

    def test_two_subscribers_see_identical_sequences(self):
        log = EventLog()
        seen = [[], []]

        def consume(index):
            for event in log.subscribe():
                seen[index].append((event.seq, event.kind))

        threads = [threading.Thread(target=consume, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for kind in ("job_submitted", "job_started", "site_started",
                     "site_finished", "job_done"):
            log.publish(kind, {})
        for thread in threads:
            thread.join(timeout=10)
        assert seen[0] == seen[1]
        assert [kind for _, kind in seen[0]][-1] == "job_done"

    def test_heartbeat_yields_none_when_idle(self):
        log = EventLog()
        stream = log.subscribe(heartbeat=0.01)
        assert next(stream) is None
        log.publish("job_done", {})
        assert next(stream).kind == "job_done"


class TestSSE:
    def test_format_round_trips_through_parse(self):
        events = [
            (0, "job_submitted", {"id": "1"}),
            (1, "site_started", {"domain": "a.com", "index": 0}),
            (2, "job_done", {"id": "1"}),
        ]
        frames = b"".join(
            format_event(type("E", (), {"seq": s, "kind": k, "payload": p}))
            for s, k, p in events
        )
        assert list(parse_stream([frames])) == events

    def test_payload_is_sorted_compact_json(self):
        frame = format_event(
            type("E", (), {"seq": 7, "kind": "x", "payload": {"b": 1, "a": 2}})
        )
        assert b'data: {"a":2,"b":1}\n' in frame
        assert frame.startswith(b"id: 7\nevent: x\n")

    def test_parse_ignores_heartbeat_comments(self):
        frame = format_event(
            type("E", (), {"seq": 0, "kind": "job_done", "payload": {}})
        )
        parsed = list(parse_stream([HEARTBEAT_FRAME, frame]))
        assert parsed == [(0, "job_done", {})]


# -- job model + journal ------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_json(self):
        spec = JobSpec(seed=7, scale=0.04, countries=("ES", "US"),
                       geo=True, analyses=("table2",))
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_analyses(self):
        with pytest.raises(ValueError, match="unknown analyses"):
            JobSpec(analyses=("table9",))

    @pytest.mark.parametrize("field, value", [
        ("scale", float("nan")), ("scale", float("inf")), ("scale", 0.0),
        ("scale", -0.1), ("scale", 1.5), ("scale", 1e6),
        ("churn", float("nan")), ("churn", -0.1), ("churn", 1.01),
    ])
    def test_rejects_out_of_range_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            JobSpec(**{field: value})

    def test_accepts_range_bounds(self):
        JobSpec(scale=1.0, churn=0.0)
        JobSpec(scale=1e-3, churn=1.0)

    def test_analysis_names_match_study(self):
        """ANALYSIS_NAMES, derived from the section table, is the job
        API: journals persist the names and a restarted server rejects
        unknown ones."""
        assert ANALYSIS_NAMES == (
            "popularity", "owners", "table2", "table3",
            "crawled_popularity", "porn_attribution", "regular_attribution",
            "cookie_stats", "cookie_sync", "fingerprinting", "https",
            "malware", "geography", "banners:ES", "banners:US",
        )


class TestJournal:
    def test_journal_path_for_directory_store(self, tmp_path):
        assert journal_path(str(tmp_path)) == str(tmp_path / "jobs.sqlite")
        store = str(tmp_path / "crawl")
        manager = JobManager(store, workers=1, runner=lambda job: None)
        manager.stop()
        assert manager.journal.path == journal_path(store)
        assert sorted(os.listdir(store)) == ["jobs.sqlite",
                                             "shard-0000.sqlite"]

    def test_rows_survive_reopen(self, tmp_path):
        path = str(tmp_path / "jobs.sqlite")
        journal = JobJournal(path)
        job_id = journal.create(JobSpec(seed=1, scale=0.02), 123.0)
        journal.close()

        reopened = JobJournal(path)
        rows = reopened.rows()
        reopened.close()
        assert [job.id for job in rows] == [job_id]
        assert rows[0].spec.seed == 1
        assert rows[0].state == JobState.SUBMITTED


# -- the manager: lifecycle, cancellation, recovery ---------------------


def _drain(job, timeout=120):
    """Block until the job's stream closes; return the event list."""
    events = []
    for event in job.events.subscribe(heartbeat=timeout):
        assert event is not None, "job made no progress before timeout"
        events.append(event)
    return events


class TestJobManager:
    def _manager(self, tmp_path, runner):
        return JobManager(str(tmp_path / "store"), workers=1, runner=runner)

    def test_lifecycle_submit_events_done(self, tmp_path):
        manager = self._manager(
            tmp_path, lambda job: job.events.publish("analysis_finished",
                                                     {"name": "x"}))
        manager.start()
        try:
            job = manager.submit(JobSpec(seed=1, scale=0.02))
            kinds = [event.kind for event in _drain(job)]
        finally:
            manager.stop()
        assert kinds == ["job_submitted", "job_started",
                         "analysis_finished", "job_done"]
        assert job.state == JobState.DONE
        assert manager.get(job.id) is job

    def test_collects_garbage_after_terminal_event(self, tmp_path,
                                                   monkeypatch):
        import repro.service.jobs as jobs

        ran, seen = [], []
        monkeypatch.setattr(jobs.gc, "collect", lambda: seen.append(
            [event.kind for event in ran[-1].events.snapshot()]))
        manager = self._manager(tmp_path, ran.append)
        manager.start()
        try:
            _drain(manager.submit(JobSpec(seed=1, scale=0.02)))
        finally:
            manager.stop()
        assert seen == [["job_submitted", "job_started", "job_done"]]

    def test_failure_records_error(self, tmp_path):
        def boom(job):
            raise RuntimeError("crawler exploded")

        manager = self._manager(tmp_path, boom)
        manager.start()
        try:
            job = manager.submit(JobSpec())
            events = _drain(job)
        finally:
            manager.stop()
        assert job.state == JobState.FAILED
        assert job.error == "RuntimeError: crawler exploded"
        assert events[-1].kind == "job_failed"
        assert events[-1].payload["error"] == job.error

    def test_cancel_queued_job_never_runs(self, tmp_path):
        ran = []
        manager = self._manager(tmp_path, lambda job: ran.append(job.id))
        try:
            job = manager.submit(JobSpec())
            manager.cancel(job.id)
            assert job.state == JobState.CANCELLED
            manager.start()
            events = _drain(job)
        finally:
            manager.stop()
        assert ran == []
        assert events[-1].kind == "job_cancelled"

    def test_cancel_terminal_job_raises(self, tmp_path):
        manager = self._manager(tmp_path, lambda job: None)
        manager.start()
        try:
            job = manager.submit(JobSpec())
            _drain(job)
            with pytest.raises(ValueError, match="already done"):
                manager.cancel(job.id)
        finally:
            manager.stop()

    def test_restart_recovers_queued_job(self, tmp_path):
        """A journaled submitted job survives a dead server."""
        first = self._manager(tmp_path, lambda job: None)
        spec = JobSpec(seed=1, scale=0.02, analyses=("popularity",))
        job_id = first.submit(spec).id  # never started
        first.stop()

        ran = []
        second = self._manager(tmp_path, lambda job: ran.append(job.spec))
        recovered = second.get(job_id)
        assert recovered.state == JobState.SUBMITTED
        second.start()
        try:
            events = _drain(recovered)
        finally:
            second.stop()
        assert ran == [spec]
        assert recovered.state == JobState.DONE
        assert events[0].payload == {"id": job_id, "recovered": False}

    def test_restart_requeues_interrupted_running_job(self, tmp_path):
        first = self._manager(tmp_path, lambda job: None)
        job = first.submit(JobSpec())
        job.state = JobState.RUNNING  # simulate dying mid-run
        first.journal.update(job)
        first.stop()

        second = self._manager(tmp_path, lambda job: None)
        recovered = second.get(job.id)
        assert recovered.state == JobState.SUBMITTED
        assert recovered.events.snapshot()[0].payload["recovered"] is True
        second.start()
        try:
            _drain(recovered)
        finally:
            second.stop()
        assert recovered.state == JobState.DONE

    def test_restart_republishes_terminal_event(self, tmp_path):
        first = self._manager(tmp_path, lambda job: None)
        first.start()
        job = first.submit(JobSpec())
        _drain(job)
        first.stop()

        second = self._manager(tmp_path, lambda job: None)
        recovered = second.get(job.id)
        second.stop()
        assert recovered.state == JobState.DONE
        kinds = [event.kind for event in recovered.events.snapshot()]
        assert kinds == ["job_done"]
        assert recovered.events.finished


class TestCancellationResumesFromCheckpoints:
    def test_cancel_mid_crawl_then_resubmit_resumes(self, tmp_path):
        """Cancellation fires at a checkpoint boundary; the checkpointed
        sites survive in the store and a resubmitted job resumes there."""
        store = str(tmp_path / "store")
        spec = JobSpec(seed=SEED, scale=SCALE, analyses=("table2",))

        cancelled = Job(id="1", spec=spec)
        finished_sites = []
        publish = cancelled.events.publish

        def arming_publish(kind, payload=None):
            event = publish(kind, payload)
            if kind == "site_finished":
                finished_sites.append(payload["domain"])
                if len(finished_sites) == 5:
                    cancelled.cancel_requested.set()
            return event

        cancelled.events.publish = arming_publish
        with pytest.raises(JobCancelled):
            execute_job(cancelled, store, store_shards=2)
        assert len(finished_sites) == 5  # stopped at the boundary

        resumed = Job(id="2", spec=spec)
        execute_job(resumed, store, store_shards=2)
        run_started = [event for event in resumed.events.snapshot()
                       if event.kind == "run_started"]
        # The first crawl run picks up exactly the five durable sites.
        assert run_started[0].payload["completed"] == 5
        restarted = [event.payload["domain"]
                     for event in resumed.events.snapshot()
                     if event.kind == "site_started"]
        assert not set(finished_sites) & set(restarted)

    def test_cancel_mid_splice_then_resubmit_resumes(self, tmp_path,
                                                     monkeypatch):
        """A delta job cancelled inside a splice group leaves nothing
        attached to its store's connections, and a resubmitted job
        resumes to the store an uninterrupted delta job writes."""
        import shutil

        from repro.datastore import CrawlStore

        from .test_delta import store_digest

        base_spec = JobSpec(seed=SEED, scale=SCALE, analyses=("table2",))
        delta_spec = JobSpec(seed=SEED, scale=SCALE, epoch=1, churn=0.05,
                             delta=True, analyses=("table2",))
        store = str(tmp_path / "cancelled" / "store")
        reference = str(tmp_path / "reference" / "store")
        execute_job(Job(id="0", spec=base_spec), store, store_shards=2)
        shutil.copytree(store, reference)

        attached_at_close = []
        close = CrawlStore.close

        def recording_close(self):
            attached_at_close.extend(
                name for connection in self._connections
                if connection is not None
                for _, name, _ in connection.execute("PRAGMA database_list")
                if name not in ("main", "temp"))
            close(self)

        monkeypatch.setattr(CrawlStore, "close", recording_close)
        cancelled = Job(id="1", spec=delta_spec)
        spliced = []
        publish = cancelled.events.publish

        def arming_publish(kind, payload=None):
            if kind == "site_spliced":
                spliced.append(payload["domain"])
                if len(spliced) == 3:
                    cancelled.cancel_requested.set()
            return publish(kind, payload)

        cancelled.events.publish = arming_publish
        with pytest.raises(JobCancelled):
            execute_job(cancelled, store, store_shards=2)
        assert len(spliced) == 3  # stopped at the third spliced site
        assert attached_at_close == []
        monkeypatch.undo()

        resumed = Job(id="2", spec=delta_spec)
        execute_job(resumed, store, store_shards=2)
        run_started = [event for event in resumed.events.snapshot()
                       if event.kind == "run_started"]
        assert run_started[0].payload["completed"] >= 3
        execute_job(Job(id="3", spec=delta_spec), reference, store_shards=2)
        assert store_digest(store + "-e1") == store_digest(reference + "-e1")


class TestJobRelease:
    def test_finished_job_closes_its_connections(self, tmp_path,
                                                 monkeypatch):
        import sqlite3

        from repro.study import Study

        studies = []
        close = Study.close

        def recording_close(self):
            studies.append(self)
            close(self)

        monkeypatch.setattr(Study, "close", recording_close)
        spec = JobSpec(seed=SEED, scale=SCALE, analyses=("popularity",))
        execute_job(Job(id="1", spec=spec), str(tmp_path / "store"),
                    store_shards=2)
        (study,) = studies
        assert study.store._connections == [None, None]
        with pytest.raises(sqlite3.ProgrammingError):
            study.aggregate_cache.row_count()

    def test_failed_job_still_closes(self, tmp_path, monkeypatch):
        from repro.study import Study

        studies = []
        close = Study.close
        monkeypatch.setattr(Study, "close",
                            lambda self: (studies.append(self), close(self)))
        monkeypatch.setattr(Study, "popularity", lambda self: 1 / 0)
        spec = JobSpec(seed=SEED, scale=SCALE, analyses=("popularity",))
        with pytest.raises(ZeroDivisionError):
            execute_job(Job(id="1", spec=spec), str(tmp_path / "store"),
                        store_shards=2)
        assert len(studies) == 1
        assert studies[0].store._connections == [None, None]


# -- the HTTP server end-to-end -----------------------------------------


def _get(url):
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def _post_json(url, document):
    request = urllib.request.Request(
        url, method="POST", data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return json.loads(resp.read())


def _served_sections(server, job, *, geo):
    """Each section of the job's report as the service serves it, with
    the title line the report prints over a figure reattached."""
    from repro.reporting.sections import FIGURE_SECTIONS, rendered

    texts = {}
    for section in rendered(geo):
        family = ("figures" if section.name in FIGURE_SECTIONS
                  else "tables")
        text = _get(server.url + f"/jobs/{job['id']}/{family}/"
                    f"{section.name}").decode("utf-8")
        assert text.endswith("\n")
        # Figures are served headerless.
        texts[section.name] = (section.headed(text[:-1])
                               if family == "figures" else text[:-1])
    return texts


def test_served_geo_job_matches_golden_digests(golden_store, tmp_path,
                                               monkeypatch):
    """A geo job served over a copy of the golden store (the job writes
    its aggregate cache there) finds every run stored, browses nothing,
    and serves every section on the golden digests: each table and
    figure endpoint, and the whole report."""
    import hashlib
    import shutil

    from repro.browser.browser import Browser

    from .golden import regen

    def no_browsing(*args, **kwargs):
        raise AssertionError("the served job browsed")

    monkeypatch.setattr(Browser, "visit", no_browsing)
    path = str(tmp_path / "store")
    shutil.copytree(golden_store, path)
    server = ReproServer(path, port=0, workers=1, heartbeat=60.0)
    server.start()
    try:
        job = _post_json(server.url + "/jobs", {
            "seed": regen.SEED, "scale": regen.SCALE, "geo": True})
        events = list(parse_stream(
            [_get(server.url + f"/jobs/{job['id']}/events")]))
        assert events[-1][1] == "job_done", events[-1]
        texts = _served_sections(server, job, geo=True)
        report = _get(server.url + f"/jobs/{job['id']}/report").decode()
    finally:
        server.stop()
    expected = json.loads(regen.GOLDEN.read_text())["epoch0"]
    assert {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in texts.items()} == expected
    assert list(texts) == list(expected)
    assert report == "\n\n".join(texts.values()) + "\n"


@pytest.fixture(scope="class")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("serve") / "store"
    instance = ReproServer(str(store), port=0, workers=1, store_shards=2,
                           heartbeat=60.0)
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture(scope="class")
def done_job(server):
    """One full default job run to completion (shared by the class).

    One subscriber streams its events from the start; a second joins
    once the crawl is underway and replays from ``?from=0``."""
    job = _post_json(server.url + "/jobs",
                     {"seed": SEED, "scale": SCALE})
    url = server.url + f"/jobs/{job['id']}/events"
    streams = [[], []]

    def stream(index, query=""):
        with urllib.request.urlopen(url + query) as resp:
            for chunk in resp:
                streams[index].append(chunk)

    first = threading.Thread(target=stream, args=(0,))
    first.start()
    live = server.manager.get(job["id"]).events
    deadline = time.monotonic() + 600
    while (len(live) < 10 and not live.finished
           and time.monotonic() < deadline):
        time.sleep(0.01)
    stream(1, "?from=0")
    first.join(timeout=600)
    assert not first.is_alive(), "the first subscriber's stream never closed"
    return job, streams


class TestServerEndToEnd:
    def test_concurrent_subscribers_see_identical_streams(self, done_job):
        _, streams = done_job
        first, second = (b"".join(chunks) for chunks in streams)
        assert first == second
        events = list(parse_stream([first]))
        assert events[0][1] == "job_submitted"
        assert events[-1][1] == "job_done"
        kinds = {kind for _, kind, _ in events}
        assert {"job_started", "run_started", "site_started",
                "site_finished", "run_finished", "analysis_started",
                "analysis_finished"} <= kinds
        seqs = [seq for seq, _, _ in events]
        assert seqs == list(range(len(seqs)))

    def test_job_endpoint_reports_done(self, server, done_job):
        job, _ = done_job
        fetched = json.loads(_get(server.url + f"/jobs/{job['id']}"))
        assert fetched["state"] == "done"
        listed = json.loads(_get(server.url + "/jobs"))
        assert [entry["id"] for entry in listed["jobs"]] == [job["id"]]

    def test_events_resume_from_seq(self, server, done_job):
        job, streams = done_job
        total = len(list(parse_stream([b"".join(streams[0])])))
        tail = _get(server.url + f"/jobs/{job['id']}/events?from={total - 2}")
        events = list(parse_stream([tail]))
        assert [kind for _, kind, _ in events][-1] == "job_done"
        assert len(events) == 2

    def test_served_sections_byte_identical_to_cli_report(
            self, server, done_job, capsys):
        """``GET /report`` is the CLI report byte for byte, and so is
        the report reassembled from the per-section endpoints."""
        from repro.__main__ import main

        job, _ = done_job
        assert main(["report", "--store", server.store.path]) == 0
        expected = capsys.readouterr().out

        texts = _served_sections(server, job, geo=False)
        assert "\n\n".join(texts.values()) + "\n" == expected
        report = _get(server.url + f"/jobs/{job['id']}/report").decode()
        assert report == expected

    def test_served_figures_match_report_chunks(self, server, done_job):
        from repro.reporting import FIGURE_SECTIONS

        job, _ = done_job
        report = _get(server.url + f"/jobs/{job['id']}/report").decode()
        for name in sorted(FIGURE_SECTIONS):
            ascii_art = _get(
                server.url + f"/jobs/{job['id']}/figures/{name}").decode()
            assert ascii_art.rstrip("\n") in report

    def test_store_info_lists_runs(self, server, done_job):
        info = json.loads(_get(server.url + "/store/info"))
        assert info["config"] == {"seed": SEED, "scale": SCALE}
        assert info["shards"] == 2
        kinds = {(run["kind"], run["country"]) for run in info["runs"]}
        assert ("openwpm:porn", "ES") in kinds
        assert all(run["complete"] for run in info["runs"])

    def test_submit_conflicting_config_is_409(self, server, done_job):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server.url + "/jobs", {"seed": SEED + 1,
                                              "scale": SCALE})
        assert excinfo.value.code == 409

    def test_submit_unknown_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server.url + "/jobs", {"sites": 5})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("field, value", [
        ("scale", float("nan")), ("scale", 2.0), ("scale", -1.0),
        ("churn", float("inf")), ("churn", 1.5),
    ])
    def test_submit_out_of_range_number_is_400(self, server, field, value):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server.url + "/jobs",
                       {"seed": SEED, "scale": SCALE, field: value})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length, status", [
        (None, 400), ("-1", 400), ("12abc", 400), ("1.5", 400),
        (str((1 << 20) + 1), 413),
    ])
    def test_submit_bad_content_length(self, server, length, status):
        import http.client

        jobs = json.loads(_get(server.url + "/jobs"))["jobs"]
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=30)
        try:
            connection.putrequest("POST", "/jobs")
            if length is not None:
                connection.putheader("Content-Length", length)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == status
            assert "error" in json.loads(response.read())
        finally:
            connection.close()
        # Nothing was submitted.
        assert json.loads(_get(server.url + "/jobs"))["jobs"] == jobs

    def test_unknown_table_is_404(self, server, done_job):
        job, _ = done_job
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + f"/jobs/{job['id']}/tables/table9")
        assert excinfo.value.code == 404

    def test_results_before_done_are_409(self, server, done_job):
        # Inject a job that will never run so the state is deterministic.
        pending = Job(id="999", spec=JobSpec(seed=SEED, scale=SCALE))
        server.manager._jobs["999"] = pending
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/jobs/999/tables/table2")
            assert excinfo.value.code == 409
        finally:
            del server.manager._jobs["999"]

    def _delete(self, url):
        request = urllib.request.Request(url, method="DELETE")
        with urllib.request.urlopen(request) as resp:
            return resp.status, json.loads(resp.read())

    def test_delete_cancels_a_queued_job(self, server, done_job):
        # A job no worker will pick up, so it is still queued.
        pending = Job(id="998", spec=JobSpec(seed=SEED, scale=SCALE))
        server.manager._jobs["998"] = pending
        try:
            status, body = self._delete(server.url + "/jobs/998")
            assert status == 202
            assert body["id"] == "998"
            assert pending.state == JobState.CANCELLED
            assert pending.cancel_requested.is_set()
            # Cancelling it again, or a finished job, is a conflict.
            for job_id in ("998", done_job[0]["id"]):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._delete(server.url + f"/jobs/{job_id}")
                assert excinfo.value.code == 409
        finally:
            del server.manager._jobs["998"]

    def test_delete_unknown_job_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._delete(server.url + "/jobs/12345")
        assert excinfo.value.code == 404

    def test_terminal_kinds_cover_job_states(self):
        assert TERMINAL_KINDS == {f"job_{state}"
                                  for state in JobState.TERMINAL}
