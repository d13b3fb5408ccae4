"""Deterministic memoization for the crawl hot path.

Everything the synthetic universe serves is a pure function of the
request URL, the referrer, and the client context (country, IP, epoch):
no server in :mod:`repro.webgen.universe` keeps per-request state.
Likewise :func:`repro.html.parser.parse_html` is a pure function of its
markup.  Both can therefore be memoized without changing a single
observable byte of a crawl — the caches below only collapse *redundant*
work (the same ad frame served to the same client twice, the same
third-party payload parsed 3,600 times).

Two cache flavors live here:

:class:`BoundedCache`
    A thread-safe mapping with FIFO eviction, usable as a building block
    for any pure function.
:class:`FetchCache`
    A :class:`BoundedCache` specialization that also memoizes
    *deterministic failures* (the universe's ``FetchError`` hierarchy is
    a property of the site spec, not of timing).  A failure is kept as a
    traceback-free copy and replayed as a fresh exception on every hit,
    so no frame of a failing fetch (nor the browser, log and DOM its
    callers hold) outlives the handler that catches it.

Thread safety matters because :class:`repro.study.Study` may evaluate
independent crawls concurrently (see
:mod:`repro.crawler.executor`); worker *processes* each inherit their
own copy-on-write cache, worker *threads* share one.
"""

from __future__ import annotations

import copy
import hashlib
import threading
from typing import Any, Callable, Hashable, Optional, Tuple

__all__ = [
    "BoundedCache",
    "CacheStats",
    "FetchCache",
    "content_key",
]


def content_key(text: str) -> bytes:
    """A compact, stable content hash usable as a cache key for ``text``."""
    return hashlib.blake2b(
        text.encode("utf-8", "surrogatepass"), digest_size=16
    ).digest()


class CacheStats:
    """Hit/miss/eviction counters (reads are approximate under threads)."""

    __slots__ = ("hits", "misses", "evictions")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CacheStats(hits={self.hits}, misses={self.misses}, "
                f"evictions={self.evictions})")


class BoundedCache:
    """A thread-safe bounded mapping with FIFO eviction.

    FIFO (insertion order) beats LRU here: crawl locality is temporal —
    a repeated payload recurs within a handful of page loads — and FIFO
    avoids mutating the dict on every hit, which keeps the lock critical
    section tiny.

    Values handed out by :meth:`get_or_create` are shared between
    callers; they must be treated as immutable.
    """

    def __init__(self, maxsize: Optional[int] = None) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive or None")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._data: dict = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._data:
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._put_locked(key, value)

    def _put_locked(self, key: Hashable, value: Any) -> None:
        if key not in self._data and self.maxsize is not None \
                and len(self._data) >= self.maxsize:
            # FIFO: evict the oldest insertion (dicts preserve order).
            oldest = next(iter(self._data))
            del self._data[oldest]
            self.stats.evictions += 1
        self._data[key] = value

    def get_or_create(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss.

        The factory runs outside the lock — pure factories make duplicate
        concurrent computation harmless (last write wins with an equal
        value).  A factory that raises caches nothing.
        """
        with self._lock:
            if key in self._data:
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
        value = factory()
        with self._lock:
            self._put_locked(key, value)
        return value


class FetchCache(BoundedCache):
    """Memoizes the universe's response *or deterministic failure* per key.

    The render key is ``(url, referrer, country, client_ip, epoch)`` —
    exactly the arguments :meth:`repro.webgen.universe.Universe.fetch`
    depends on (the server side never reads request cookies).
    """

    _OK, _ERR = True, False

    def fetch(self, key: Hashable, thunk: Callable[[], Any]) -> Any:
        """Return the memoized response for ``key``, computing via ``thunk``.

        An exception raised by ``thunk`` is cached and replayed on every
        lookup, the first included: an unresponsive or geo-blocked site
        fails identically on every request from the same client.  The
        cache keeps a copy without ``__traceback__`` (or context), and
        each lookup raises a new copy of it, so the only frames a raised
        failure carries are those of the lookup that raised it.
        """

        def outcome() -> Tuple[bool, Any]:
            try:
                return (self._OK, thunk())
            except Exception as exc:
                return (self._ERR, copy.copy(exc))

        ok, payload = self.get_or_create(key, outcome)
        if ok:
            return payload
        raise copy.copy(payload)
