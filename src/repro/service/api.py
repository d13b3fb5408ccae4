"""HTTP API logic, independent of the socket layer (service layer 4a).

:class:`ServiceAPI` maps ``(method, path, body)`` to ``(status,
content-type, bytes)`` so the handler in :mod:`server` stays a thin
shim and the whole surface is testable without a socket.  The one route
the API does *not* serve is ``GET /jobs/<id>/events`` — that is a
streaming response the handler writes itself from the job's
:class:`~repro.service.events.EventLog`.

Result endpoints render from the shared store through a cached
store-only :class:`~repro.study.Study` — the exact object ``repro
report`` builds — via :mod:`repro.reporting.sections`, so a served
table is byte-identical to the corresponding chunk of the CLI report by
construction (``tests/test_service.py`` reassembles and compares the
whole report to enforce it).  The cache is sound because results are a pure
function of the store's pinned universe config: new jobs can only *add*
runs for the same config, never change a rendered section.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Optional, Tuple

from .jobs import JobManager, JobSpec, JobState

__all__ = ["ApiError", "ServiceAPI"]

Response = Tuple[int, str, bytes]

_JOB_PATH = re.compile(r"^/jobs/([0-9]+)$")
_RESULT_PATH = re.compile(r"^/jobs/([0-9]+)/(tables|figures|report)(?:/([\w:.-]+))?$")


class ApiError(Exception):
    """An error response: ``(status, message)``."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


def _json_response(status: int, document) -> Response:
    body = (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()
    return status, "application/json", body


def _text_response(status: int, text: str) -> Response:
    return status, "text/plain; charset=utf-8", text.encode("utf-8")


class ServiceAPI:
    """Routes requests against one :class:`JobManager` and one store."""

    def __init__(self, manager: JobManager, store) -> None:
        self.manager = manager
        self.store = store
        self._study_lock = threading.Lock()
        self._result_study = None

    # -- routing --------------------------------------------------------

    def handle(self, method: str, path: str,
               body: Optional[bytes] = None) -> Response:
        try:
            return self._route(method, path, body)
        except ApiError as exc:
            return _json_response(exc.status, {"error": exc.message})

    def _route(self, method: str, path: str,
               body: Optional[bytes]) -> Response:
        if path == "/" and method == "GET":
            return self._index()
        if path == "/store/info" and method == "GET":
            return self._store_info()
        if path == "/jobs":
            if method == "GET":
                return _json_response(200, {
                    "jobs": [job.to_dict() for job in self.manager.list()]
                })
            if method == "POST":
                return self._submit(body)
            raise ApiError(405, f"{method} not allowed on /jobs")
        match = _JOB_PATH.match(path)
        if match:
            if method == "GET":
                return _json_response(200, self._job(match.group(1)).to_dict())
            if method == "DELETE":
                return self._cancel(match.group(1))
            raise ApiError(405, f"{method} not allowed on {path}")
        match = _RESULT_PATH.match(path)
        if match:
            if method != "GET":
                raise ApiError(405, f"{method} not allowed on {path}")
            return self._result(*match.groups())
        raise ApiError(404, f"no route for {path}")

    def _index(self) -> Response:
        return _json_response(200, {
            "service": "repro measurement service",
            "store": self.store.path,
            "endpoints": [
                "POST /jobs",
                "GET /jobs",
                "GET /jobs/<id>",
                "DELETE /jobs/<id>",
                "GET /jobs/<id>/events",
                "GET /jobs/<id>/report",
                "GET /jobs/<id>/tables/<name>",
                "GET /jobs/<id>/figures/<name>",
                "GET /store/info",
            ],
        })

    # -- jobs -----------------------------------------------------------

    def _job(self, job_id: str):
        try:
            return self.manager.get(job_id)
        except KeyError:
            raise ApiError(404, f"no job {job_id}") from None

    def _submit(self, body: Optional[bytes]) -> Response:
        from ..crawler.vpn import VantagePointManager

        try:
            raw = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            raise ApiError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(raw, dict):
            raise ApiError(400, "body must be a JSON object")
        known = {"seed", "scale", "countries", "geo", "analyses",
                 "epoch", "churn", "delta"}
        unknown = set(raw) - known
        if unknown:
            raise ApiError(400, f"unknown fields: {sorted(unknown)}")
        try:
            spec = JobSpec(
                seed=int(raw.get("seed", JobSpec.seed)),
                scale=float(raw.get("scale", JobSpec.scale)),
                countries=tuple(raw.get("countries") or ()),
                geo=bool(raw.get("geo", False)),
                analyses=tuple(raw.get("analyses") or ()),
                epoch=int(raw.get("epoch", JobSpec.epoch)),
                churn=float(raw.get("churn", JobSpec.churn)),
                delta=bool(raw.get("delta", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ApiError(400, str(exc)) from None
        valid = set(VantagePointManager().country_codes)
        bad = set(spec.countries) - valid
        if bad:
            raise ApiError(400, f"unknown countries: {sorted(bad)}")
        self._check_config(spec)
        job = self.manager.submit(spec)
        return _json_response(201, job.to_dict())

    def _check_config(self, spec: JobSpec) -> None:
        """One store, one universe: reject specs that disagree."""
        from ..datastore import config_to_json
        from ..webgen.config import UniverseConfig

        stored = self.store.stored_config()
        if stored is None:
            return
        # Epoch jobs land in sibling stores, but they still evolve from
        # this store's universe, so the epoch-0 identity (seed, scale,
        # churn) must agree for the chain to be coherent.
        requested = UniverseConfig(seed=spec.seed, scale=spec.scale,
                                   churn=spec.churn)
        if config_to_json(requested) != config_to_json(stored):
            raise ApiError(409, (
                f"store {self.store.path} is pinned to seed={stored.seed} "
                f"scale={stored.scale}; submit a matching job or serve a "
                "different store"
            ))

    def _cancel(self, job_id: str) -> Response:
        job = self._job(job_id)
        try:
            self.manager.cancel(job.id)
        except ValueError as exc:
            raise ApiError(409, str(exc)) from None
        return _json_response(202, job.to_dict())

    # -- results --------------------------------------------------------

    def result_study(self):
        """The cached store-only study every result endpoint renders from."""
        with self._study_lock:
            if self._result_study is not None:
                return self._result_study
            config = self.store.stored_config()
            if config is None:
                raise ApiError(409, (
                    f"store {self.store.path} holds no runs yet; submit a "
                    "job and wait for it to finish"
                ))
            from ..study import Study

            self._result_study = Study(
                self.manager.lineage.for_reading(config),
                store=self.store, store_only=True,
            )
            return self._result_study

    def _result(self, job_id: str, family: str,
                name: Optional[str]) -> Response:
        from ..datastore import MissingRunError
        from ..reporting import sections as reporting

        job = self._job(job_id)
        if job.state != JobState.DONE:
            raise ApiError(409, (
                f"job {job_id} is {job.state}; results are served once it "
                "is done"
            ))
        study = self.result_study()
        scale, geo = job.spec.scale, job.spec.geo
        try:
            if family == "report":
                if name is not None:
                    raise ApiError(404, "report takes no name")
                return _text_response(
                    200, reporting.full_report(study, scale, geo=geo))
            available = reporting.section_names(geo=geo)
            if family == "figures":
                if name is None:
                    return _json_response(200, {
                        "figures": list(reporting.FIGURE_NAMES)
                    })
                if name not in reporting.FIGURE_NAMES:
                    raise ApiError(404, f"no figure {name}")
                return _text_response(
                    200, reporting.render_figure(study, scale, name) + "\n")
            tables = [n for n in available if n not in
                      reporting.FIGURE_SECTIONS]
            if name is None:
                return _json_response(200, {"tables": tables})
            if name not in available or name in reporting.FIGURE_SECTIONS:
                raise ApiError(404, f"no table {name}")
            # Lazy per-section rendering: a job that ran a subset of
            # analyses can still serve the sections that subset feeds.
            return _text_response(
                200, reporting.render_section(study, scale, name) + "\n")
        except MissingRunError as exc:
            raise ApiError(409, str(exc)) from None

    # -- store ----------------------------------------------------------

    def _store_info(self) -> Response:
        config = self.store.stored_config()
        runs = [{
            "kind": run.kind,
            "country": run.country_code,
            "sites": run.total_sites,
            "completed_sites": run.completed_sites,
            "complete": run.complete,
            "visits": run.visits,
            "requests": run.requests,
            "cookies": run.cookies,
            "js_calls": run.js_calls,
        } for run in self.store.run_manifests()]
        return _json_response(200, {
            "path": self.store.path,
            "schema_version": self.store.schema_version(),
            "shards": self.store.shard_count,
            "config": (None if config is None
                       else {"seed": config.seed, "scale": config.scale}),
            "runs": runs,
        })
