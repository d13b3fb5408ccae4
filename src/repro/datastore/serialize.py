"""Faithful row serializers for the crawl datastore.

Every converter here is paired with an inverse such that
``from_row(to_row(record)) == record`` field-for-field — the roundtrip
tests in ``tests/test_datastore.py`` assert this over whole crawl logs.
Two representation choices make that hold:

* SQLite has no boolean type, so flags travel as 0/1 and are restored
  with ``bool()``;
* :class:`~repro.js.api.JSCall` argument dicts travel as canonical JSON
  (sorted keys, no whitespace).  The generators only put ``str``/``int``
  values in ``args``, which JSON round-trips exactly; dict equality is
  order-insensitive, so key sorting is free canonicalization.

The module also owns *run identity*: :func:`run_key` is the content hash
of (:class:`UniverseConfig`, vantage point, crawler kind) — the same
universe crawled the same way from the same place always lands on the
same manifest row, which is what makes resume and store-backed analysis
find their data.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import sys
import zlib
from dataclasses import asdict
from typing import Any, List, Optional, Sequence, Tuple

from ..browser.events import CookieRecord, PageVisit, RequestRecord
from ..js.api import JSCall
from ..net.geo import VantagePoint
from ..webgen.config import CalibrationTargets, UniverseConfig

__all__ = [
    "COOKIE_COLUMNS",
    "JSCALL_COLUMNS",
    "REQUEST_COLUMNS",
    "VISIT_COLUMNS",
    "config_from_json",
    "config_to_json",
    "cookie_from_row",
    "cookie_to_row",
    "domains_hash",
    "inspections_from_payload",
    "inspections_to_payload",
    "INSPECTIONS_KIND",
    "jscall_from_row",
    "jscall_to_row",
    "pack_value",
    "request_from_row",
    "request_to_row",
    "run_key",
    "sanitize_from_payload",
    "sanitize_to_payload",
    "SANITIZE_KIND",
    "unpack_value",
    "vantage_to_json",
    "visit_from_row",
    "visit_to_row",
]

#: Event-table column lists, in ``*_to_row`` order.  Shared by the
#: store's insert statements and the cursor SELECTs so the two can never
#: drift apart.
VISIT_COLUMNS = (
    "site_domain", "url", "success", "status", "failure_reason",
    "html", "https",
)
REQUEST_COLUMNS = (
    "url", "fqdn", "scheme", "page_domain", "resource_type", "initiator",
    "referrer", "seq", "status", "failed", "error", "redirect_location",
)
COOKIE_COLUMNS = (
    "page_domain", "set_by_host", "domain", "name", "value", "session",
    "secure", "over_https", "seq",
)
JSCALL_COLUMNS = ("script_url", "document_host", "api", "args_json")


# ----------------------------------------------------------------------
# Run identity
# ----------------------------------------------------------------------

def _canonical(value: Any) -> str:
    """Deterministic JSON text for hashing and storage."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_to_json(config: UniverseConfig) -> str:
    """Canonical JSON for a :class:`UniverseConfig` (tuples become lists)."""
    return _canonical(asdict(config))


def _tuplify(value: Any) -> Any:
    """Undo JSON's tuple→list flattening, recursively.

    Every sequence field of :class:`CalibrationTargets` /
    :class:`UniverseConfig` is a tuple, so a blanket list→tuple
    conversion restores the exact dataclass shape.
    """
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


def config_from_json(text: str) -> UniverseConfig:
    """Inverse of :func:`config_to_json` (exact dataclass equality)."""
    payload = json.loads(text)
    targets = CalibrationTargets(
        **{key: _tuplify(value) for key, value in payload.pop("targets").items()}
    )
    return UniverseConfig(targets=targets, **payload)


def vantage_to_json(vantage: VantagePoint) -> str:
    return _canonical(asdict(vantage))


def run_key(
    config: UniverseConfig,
    vantage: VantagePoint,
    kind: str,
    *,
    keep_html: bool = True,
) -> str:
    """Content hash identifying one logical crawl.

    ``kind`` names the crawler and corpus role (``openwpm:porn``,
    ``openwpm:regular``, ``selenium:inspections`` ...); ``keep_html`` is
    folded in because HTML retention changes the stored visits.  Every
    stored crawl is a ``"crawl"``-session crawl; the payload keeps that
    constant so run keys stay those of existing stores.
    """
    payload = _canonical({
        "config": json.loads(config_to_json(config)),
        "vantage": json.loads(vantage_to_json(vantage)),
        "kind": kind,
        "epoch": "crawl",
        "keep_html": keep_html,
    })
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def domains_hash(domains: Sequence[str]) -> str:
    """Content hash of an ordered site list (order matters for resume)."""
    joined = "\n".join(domains)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Per-site values at rest: partials and cached per-site results
# ----------------------------------------------------------------------

#: Leading byte of a :func:`pack_value` payload.
PACKED_TAG = b"Z"


def pack_value(value: Any) -> bytes:
    """Canonical bytes for one per-site value (a partial, a sanitize
    verdict, an inspection row): marshal version 2 writes equal values
    alike whatever objects they share (version 3 and up write
    refcount-dependent back-references), dicts in insertion order.
    Marshal cannot run code on load, unlike pickle.  zlib's set-up cost
    grows with its window; an 8 KB one halves it for small partials."""
    return PACKED_TAG + zlib.compress(marshal.dumps(value, 2), 6, 13)


def unpack_value(payload: bytes) -> Any:
    """Inverse of :func:`pack_value`; raises on any other bytes."""
    if payload[:1] != PACKED_TAG:
        raise ValueError(f"unknown payload tag {bytes(payload[:1])!r}")
    return marshal.loads(zlib.decompress(payload[1:]))


# ----------------------------------------------------------------------
# Artifacts: the inspection pass and the sanitize verdicts
# ----------------------------------------------------------------------

#: Artifact kinds, keyed like runs (``run_key(config, home vantage,
#: kind)``): the products ``repro report`` reads besides the crawl runs.
INSPECTIONS_KIND = "selenium:inspections"
SANITIZE_KIND = "sanitize:verdicts"

#: Leading byte of an inspection-pass artifact: a marshal-encoded list
#: of :meth:`~repro.crawler.selenium.SiteInspection.to_row` rows.
INSPECTIONS_TAG = b"I"


def inspections_to_payload(inspections: Sequence) -> bytes:
    """The ``selenium:inspections`` artifact for one inspection pass."""
    return INSPECTIONS_TAG + marshal.dumps(
        [inspection.to_row() for inspection in inspections], 4)


def inspections_from_payload(payload: Optional[bytes]) -> Optional[List]:
    """Inverse of :func:`inspections_to_payload`.

    Anything else — no artifact, another format (older stores pickled
    the pass), a torn or tampered payload — reads as absent, so the
    caller re-inspects (or reports the pass missing) rather than trust
    it.  Nothing here can run code.
    """
    from ..crawler.selenium import SiteInspection

    if not payload or payload[:1] != INSPECTIONS_TAG:
        return None
    try:
        return [SiteInspection.from_row(row)
                for row in marshal.loads(payload[1:])]
    except Exception:
        return None


#: Leading byte of a sanitize-verdicts artifact: a marshal-encoded
#: ``(domains_hash(candidates), {bucket: [domain, ...]})``.
SANITIZE_TAG = b"S"
_SANITIZE_BUCKETS = ("corpus", "unresponsive", "non_adult")


def sanitize_to_payload(candidates: Sequence[str], sanitized) -> bytes:
    """The ``sanitize:verdicts`` artifact: §3's partition of
    ``candidates`` (a :class:`~repro.core.corpus.SanitizedCorpus`)."""
    return SANITIZE_TAG + marshal.dumps(
        (domains_hash(candidates),
         {bucket: list(getattr(sanitized, bucket))
          for bucket in _SANITIZE_BUCKETS}), 4)


def sanitize_from_payload(payload: Optional[bytes],
                          candidates: Sequence[str]):
    """Inverse of :func:`sanitize_to_payload` for these ``candidates``.

    Only a payload written for the same ordered candidate list, whose
    buckets are lists of domains partitioning it, decodes; anything
    else — no artifact, a torn or tampered payload, another corpus's
    verdicts — reads as absent.  Nothing here can run code.
    """
    from ..core.corpus import SanitizedCorpus

    if not payload or payload[:1] != SANITIZE_TAG:
        return None
    try:
        digest, buckets = marshal.loads(payload[1:])
        lists = {bucket: buckets[bucket] for bucket in _SANITIZE_BUCKETS}
    except Exception:
        return None
    if digest != domains_hash(candidates) or len(buckets) != len(lists) \
            or any(type(bucket) is not list for bucket in lists.values()):
        return None
    domains = [domain for bucket in lists.values() for domain in bucket]
    if any(type(domain) is not str for domain in domains) \
            or sorted(domains) != sorted(candidates):
        return None
    return SanitizedCorpus(**lists)


# ----------------------------------------------------------------------
# Record rows (column order matches the schema DDL)
# ----------------------------------------------------------------------

def _intern(value: Optional[str]) -> Optional[str]:
    """Collapse repeated decoded strings to one object per value.

    SQLite materializes a fresh ``str`` for every fetched cell, so a
    domain that appears in 10k rows would otherwise become 10k equal
    but distinct objects — and the analyses retain many of them in
    per-page sets.  Interning the low-cardinality columns (domains,
    hosts, resource types, cookie names) makes every retained copy
    share one object; high-cardinality columns (URLs, cookie values,
    HTML) are left alone so the intern table stays small.
    """
    return None if value is None else sys.intern(value)


def visit_to_row(visit: PageVisit) -> Tuple:
    return (visit.site_domain, visit.url, int(visit.success), visit.status,
            visit.failure_reason, visit.html, int(visit.https))


def visit_from_row(row: Sequence) -> PageVisit:
    return PageVisit(
        site_domain=_intern(row[0]), url=row[1], success=bool(row[2]),
        status=row[3], failure_reason=_intern(row[4]), html=row[5],
        https=bool(row[6]),
    )


def request_to_row(record: RequestRecord) -> Tuple:
    return (record.url, record.fqdn, record.scheme, record.page_domain,
            record.resource_type, record.initiator, record.referrer,
            record.seq, record.status, int(record.failed), record.error,
            record.redirect_location)


def request_from_row(row: Sequence) -> RequestRecord:
    return RequestRecord(
        url=row[0], fqdn=_intern(row[1]), scheme=_intern(row[2]),
        page_domain=_intern(row[3]), resource_type=_intern(row[4]),
        initiator=_intern(row[5]), referrer=_intern(row[6]), seq=row[7],
        status=row[8], failed=bool(row[9]), error=_intern(row[10]),
        redirect_location=row[11],
    )


def cookie_to_row(cookie: CookieRecord) -> Tuple:
    return (cookie.page_domain, cookie.set_by_host, cookie.domain,
            cookie.name, cookie.value, int(cookie.session),
            int(cookie.secure), int(cookie.over_https), cookie.seq)


def cookie_from_row(row: Sequence) -> CookieRecord:
    return CookieRecord(
        page_domain=_intern(row[0]), set_by_host=_intern(row[1]),
        domain=_intern(row[2]), name=_intern(row[3]), value=row[4],
        session=bool(row[5]), secure=bool(row[6]), over_https=bool(row[7]),
        seq=row[8],
    )


def jscall_to_row(call: JSCall) -> Tuple:
    return (call.script_url, call.document_host, call.api,
            _canonical(call.args))


def jscall_from_row(row: Sequence) -> JSCall:
    return JSCall(script_url=_intern(row[0]), document_host=_intern(row[1]),
                  api=_intern(row[2]), args=json.loads(row[3]))
