"""Crawl-log persistence (the stand-in for OpenWPM's SQLite store).

A :class:`~repro.browser.events.CrawlLog` serializes to a JSON-Lines file:
one header line (which carries the log's site marks), then one line per
visit/request/cookie/JS-call record.  Logs round-trip losslessly, so
expensive crawls can be archived and the analyses re-run without the
universe — which is how the original study's pipeline operated on
stored OpenWPM databases.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, Iterable, Union

from ..js.api import JSCall
from .events import CookieRecord, CrawlLog, PageVisit, RequestRecord

__all__ = ["save_log", "load_log", "dump_lines", "parse_lines"]

_FORMAT = "repro-crawl-log"
_VERSION = 1

PathLike = Union[str, pathlib.Path]


def _record_dict(record) -> Dict:
    return dataclasses.asdict(record)


def dump_lines(log: CrawlLog) -> Iterable[str]:
    """Yield the JSONL lines for a crawl log."""
    yield json.dumps({
        "format": _FORMAT,
        "version": _VERSION,
        "country_code": log.country_code,
        "client_ip": log.client_ip,
        "seq": log._seq,
        "site_marks": log.site_marks,
    })
    for visit in log.visits:
        yield json.dumps({"kind": "visit", **_record_dict(visit)})
    for request in log.requests:
        yield json.dumps({"kind": "request", **_record_dict(request)})
    for cookie in log.cookies:
        yield json.dumps({"kind": "cookie", **_record_dict(cookie)})
    for call in log.js_calls:
        yield json.dumps({"kind": "js_call", **_record_dict(call)})


def save_log(log: CrawlLog, path: PathLike) -> None:
    """Write the log to ``path`` as JSON Lines."""
    path = pathlib.Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for line in dump_lines(log):
            handle.write(line + "\n")


def parse_lines(lines: Iterable[str]) -> CrawlLog:
    """Rebuild a crawl log from JSONL lines (inverse of :func:`dump_lines`)."""
    iterator = iter(lines)
    try:
        header = json.loads(next(iterator))
    except StopIteration:
        raise ValueError("empty crawl-log stream") from None
    if header.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} stream")
    if header.get("version") != _VERSION:
        raise ValueError(f"unsupported version {header.get('version')!r}")

    log = CrawlLog(country_code=header.get("country_code", ""),
                   client_ip=header.get("client_ip", ""))
    for line in iterator:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.pop("kind", None)
        if kind == "visit":
            log.visits.append(PageVisit(**payload))
        elif kind == "request":
            log.requests.append(RequestRecord(**payload))
        elif kind == "cookie":
            log.cookies.append(CookieRecord(**payload))
        elif kind == "js_call":
            log.js_calls.append(JSCall(**payload))
        else:
            raise ValueError(f"unknown record kind: {kind!r}")
    log._seq = header.get("seq", 0)
    # Files written before the marks were kept load without them; the
    # analyses then group the rows by site (CrawlLog.site_groups).
    log.site_marks = [tuple(marks) for marks in header.get("site_marks", ())]
    return log


def load_log(path: PathLike) -> CrawlLog:
    """Read a crawl log previously written by :func:`save_log`."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        return parse_lines(handle)
