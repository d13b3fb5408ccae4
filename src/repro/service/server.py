"""The HTTP server (service layer 4b): sockets, threads, SSE delivery.

:class:`ReproServer` glues a :class:`~http.server.ThreadingHTTPServer`
to the :class:`~repro.service.api.ServiceAPI` router and the
:class:`~repro.service.jobs.JobManager` worker pool.  Every request
runs on its own thread, so any number of clients can hold
``/jobs/<id>/events`` streams open while others submit jobs or fetch
tables; the GIL is a non-issue because streaming is I/O-bound and the
measurement work happens on the worker pool.

``port=0`` binds an ephemeral port (``server.port`` reports the real
one) — the tests and the benchmarks use that to avoid collisions.  The server and the workers share one
:class:`~repro.datastore.CrawlStore` path; workers write through their
own connections, result reads go through the store's cursor layer, and
WAL keeps readers unblocked while a job is checkpointing.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .api import ApiError, ServiceAPI
from .jobs import JobManager
from .sse import HEARTBEAT_FRAME, format_event

__all__ = ["ReproServer"]

#: Seconds of stream silence before a keep-alive comment frame.
DEFAULT_HEARTBEAT = 15.0

#: Largest request body accepted (a job spec is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Thin shim: parse, delegate to the API, write; stream SSE inline."""

    protocol_version = "HTTP/1.1"
    server: "_HTTPServer"

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _write(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> bytes:
        """The request body, or :class:`ApiError` without reading it
        when ``Content-Length`` is missing, malformed or over
        :data:`MAX_BODY_BYTES`."""
        text = (self.headers.get("Content-Length") or "").strip()
        if not (text.isascii() and text.isdigit()):
            raise ApiError(400, "Content-Length must be a non-negative "
                                "integer")
        length = int(text)
        if length > MAX_BODY_BYTES:
            raise ApiError(413, f"request body over {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length) if length else b""

    # -- verbs ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        url = urlsplit(self.path)
        if url.path.startswith("/jobs/") and url.path.endswith("/events"):
            self._stream_events(url.path, parse_qs(url.query))
            return
        self._write(*self.server.api.handle("GET", url.path))

    def do_POST(self) -> None:  # noqa: N802
        try:
            body = self._body()
        except ApiError as exc:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            self._write(exc.status, "application/json",
                        (json.dumps({"error": exc.message}) + "\n").encode())
            return
        self._write(*self.server.api.handle(
            "POST", urlsplit(self.path).path, body))

    def do_DELETE(self) -> None:  # noqa: N802
        self._write(*self.server.api.handle(
            "DELETE", urlsplit(self.path).path))

    # -- SSE ------------------------------------------------------------

    def _stream_events(self, path: str, query) -> None:
        job_id = path[len("/jobs/"):-len("/events")]
        try:
            job = self.server.api.manager.get(job_id)
        except KeyError:
            self._write(404, "application/json",
                        (json.dumps({"error": f"no job {job_id}"}) + "\n")
                        .encode())
            return
        try:
            from_seq = int(query.get("from", ["0"])[0])
        except ValueError:
            self._write(400, "application/json",
                        b'{"error": "from must be an integer"}\n')
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in job.events.subscribe(
                    from_seq, heartbeat=self.server.heartbeat):
                if event is None:
                    self.wfile.write(HEARTBEAT_FRAME)
                else:
                    self.wfile.write(format_event(event))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # subscriber went away; nothing to clean up
        self.close_connection = True


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, api: ServiceAPI, *,
                 heartbeat: float, verbose: bool) -> None:
        super().__init__(address, _Handler)
        self.api = api
        self.heartbeat = heartbeat
        self.verbose = verbose


class ReproServer:
    """The measurement service: worker pool + HTTP front end.

    ``ReproServer(store, port=0).start()`` is the whole programmatic
    surface — the CLI's ``repro serve`` adds only argument parsing and a
    banner.  ``stop()`` shuts the HTTP listener down and drains the
    worker pool (pending queue entries stay journaled for the next
    start, which is the restart-recovery path the tests exercise).
    """

    def __init__(self, store_path: str, *, port: int = 8008,
                 host: str = "127.0.0.1", workers: int = 1,
                 store_shards: Optional[int] = None,
                 heartbeat: float = DEFAULT_HEARTBEAT,
                 verbose: bool = False) -> None:
        from ..datastore import CrawlStore

        self.store = CrawlStore(str(store_path), shards=store_shards)
        self.manager = JobManager(self.store.path, workers=workers,
                                  store_shards=store_shards)
        self.api = ServiceAPI(self.manager, self.store)
        self._httpd = _HTTPServer((host, port), self.api,
                                  heartbeat=heartbeat, verbose=verbose)
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ReproServer":
        """Start workers and serve requests on a background thread."""
        self.manager.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._serve_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI process."""
        self.manager.start()
        self._httpd.serve_forever()

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5)
            self._serve_thread = None
        self.manager.stop()
        self.store.close()
