"""``make serve-check``: end-to-end gate for the measurement service.

Boots a :class:`repro.service.ReproServer` on an ephemeral port over a
fresh sharded store, submits one scale-0.02 study job over HTTP, and
FAILS unless:

* two subscribers streaming ``GET /jobs/<id>/events`` concurrently —
  one connected before the job runs, one reconnecting mid-run via
  ``?from=`` — receive **identical** event sequences ending in
  ``job_done``;
* ``GET /jobs/<id>/report`` is **byte-identical** to ``python -m repro
  report --store`` run against the same store in a separate process;
* the full report reassembled from the individually served sections
  (``GET /jobs/<id>/tables/<name>`` plus the headered figures) is
  byte-identical to that CLI report, i.e. every served table matches
  its section of the report exactly.

Exit status 0 on pass, 1 on any violation.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SCALE = 0.02
SEED = 20191021

def _get(url: str) -> bytes:
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def _post_json(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url, method="POST", data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request) as resp:
        return json.loads(resp.read())


def _stream(url: str, sink: list) -> None:
    with urllib.request.urlopen(url) as resp:
        for chunk in resp:
            sink.append(chunk)


def _fail(message: str) -> int:
    print(f"serve-check: FAIL — {message}", file=sys.stderr)
    return 1


def main() -> int:
    from repro.reporting.sections import FIGURE_SECTIONS, rendered
    from repro.service import ReproServer
    from repro.service.sse import parse_stream

    with tempfile.TemporaryDirectory(prefix="repro-serve-check-") as tmp:
        store = str(pathlib.Path(tmp) / "store")
        server = ReproServer(store, port=0, workers=1, store_shards=2)
        server.start()
        try:
            print(f"serve-check: serving {server.url} (store {store})")
            job = _post_json(server.url + "/jobs",
                             {"seed": SEED, "scale": SCALE})
            events_url = server.url + f"/jobs/{job['id']}/events"

            # Subscriber 1 rides along from the start; subscriber 2
            # joins once the crawl is underway and replays via ?from=0.
            first: list = []
            thread = threading.Thread(target=_stream,
                                      args=(events_url, first))
            thread.start()
            live = server.manager.get(job["id"]).events
            while len(live) < 10 and not live.finished:
                time.sleep(0.01)
            second: list = []
            _stream(events_url + "?from=0", second)
            thread.join(timeout=600)
            if thread.is_alive():
                return _fail("subscriber 1 never saw the stream close")

            one, two = b"".join(first), b"".join(second)
            if one != two:
                return _fail("concurrent subscribers saw different bytes")
            events = list(parse_stream([one]))
            if events[-1][1] != "job_done":
                return _fail(f"stream ended with {events[-1][1]},"
                             " not job_done")
            print(f"serve-check: {len(events)} events,"
                  " two subscribers identical")

            result = subprocess.run(
                [sys.executable, "-m", "repro", "report", "--store", store],
                capture_output=True, text=True, cwd=REPO_ROOT,
                env={"PYTHONPATH": str(REPO_ROOT / "src")},
            )
            if result.returncode != 0:
                return _fail(f"repro report failed:\n{result.stderr}")
            expected = result.stdout

            served_report = _get(
                server.url + f"/jobs/{job['id']}/report").decode()
            if served_report != expected:
                return _fail("GET /report differs from `repro report`")

            parts = []
            for section in rendered(geo=False):
                name = section.name
                if name in FIGURE_SECTIONS:
                    # Figures are served headerless; the report prints
                    # them under the section's title.
                    ascii_art = _get(
                        server.url + f"/jobs/{job['id']}/figures/{name}"
                    ).decode()
                    parts.append(section.headed(ascii_art[:-1]))
                else:
                    text = _get(
                        server.url + f"/jobs/{job['id']}/tables/{name}"
                    ).decode()
                    parts.append(text[:-1])
            reassembled = "\n\n".join(parts) + "\n"
            if reassembled != expected:
                return _fail("report reassembled from served sections"
                             " differs from `repro report`")
            print(f"serve-check: {len(parts)} served sections reassemble"
                  " the report byte-identically")
        finally:
            server.stop()
    print("serve-check: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
