"""Per-job event logs with multi-subscriber fan-out.

An :class:`EventLog` is an append-only sequence of :class:`JobEvent`
records guarded by a condition variable.  Publishing assigns the next
sequence number and wakes every subscriber; subscribing replays the
whole history from any sequence number and then tails live events until
a terminal event (``job_done`` / ``job_failed`` / ``job_cancelled``)
arrives.  Because every subscriber reads the same list, two clients
streaming the same job necessarily observe *identical* event sequences
— the property ``tests/test_service.py`` asserts — regardless of when
each connected.

The event vocabulary is the union of what the crawl progress hooks emit
(``run_started``, ``site_started``, ``site_finished``, ``run_finished``
— see :meth:`repro.crawler.openwpm.OpenWPMCrawler.crawl`) and what the
job runner adds around them (``job_*``, ``analysis_started``,
``analysis_finished``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

__all__ = ["EventLog", "JobEvent", "TERMINAL_KINDS"]

#: Event kinds that end a job's stream; exactly one ever appears per
#: job, always last.
TERMINAL_KINDS = frozenset({"job_done", "job_failed", "job_cancelled"})


@dataclass(frozen=True)
class JobEvent:
    """One event in a job's stream.

    ``seq`` is dense from 0 and doubles as the SSE ``id:`` field, so a
    reconnecting client can resume from ``?from=<seq>``.
    """

    seq: int
    kind: str
    payload: Dict

    @property
    def terminal(self) -> bool:
        return self.kind in TERMINAL_KINDS


class EventLog:
    """Append-only event history with blocking subscribers."""

    def __init__(self) -> None:
        self._events: List[JobEvent] = []
        self._cond = threading.Condition()

    def publish(self, kind: str, payload: Optional[Dict] = None) -> JobEvent:
        """Append one event and wake every waiting subscriber."""
        with self._cond:
            event = JobEvent(seq=len(self._events), kind=kind,
                             payload=dict(payload or {}))
            self._events.append(event)
            self._cond.notify_all()
        return event

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    def snapshot(self) -> List[JobEvent]:
        """The history so far (a copy; safe to iterate without the lock)."""
        with self._cond:
            return list(self._events)

    @property
    def finished(self) -> bool:
        with self._cond:
            return bool(self._events) and self._events[-1].terminal

    def subscribe(self, from_seq: int = 0, *,
                  heartbeat: Optional[float] = None
                  ) -> Iterator[Optional[JobEvent]]:
        """Replay from ``from_seq`` then tail until the terminal event.

        Yields :class:`JobEvent` records; with ``heartbeat`` set, yields
        ``None`` whenever that many seconds pass without a new event, so
        an SSE writer can emit a keep-alive comment (and notice a dead
        socket).  The generator never holds the lock while suspended.
        """
        seq = max(0, from_seq)
        while True:
            with self._cond:
                if len(self._events) <= seq:
                    self._cond.wait(timeout=heartbeat)
                batch = self._events[seq:]
            if not batch:
                yield None  # heartbeat tick (or spurious wake-up)
                continue
            seq += len(batch)
            for event in batch:
                yield event
                if event.terminal:
                    return
