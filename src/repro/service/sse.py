"""Server-Sent Events framing (RFC-less but WHATWG-spec-shaped).

One event frame per :class:`~repro.service.events.JobEvent`::

    id: <seq>
    event: <kind>
    data: <payload as canonical JSON>
    <blank line>

Payloads are serialized with sorted keys so the byte stream two
subscribers receive is identical, not merely equivalent.  Idle
connections get comment frames (``: heartbeat``) which browsers and
``curl`` ignore but which keep middleboxes from reaping the socket and
let the server notice a dead peer.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from .events import JobEvent

__all__ = ["HEARTBEAT_FRAME", "format_event", "parse_stream"]

#: Comment frame sent when a stream has been idle for a heartbeat period.
HEARTBEAT_FRAME = b": heartbeat\n\n"


def format_event(event: JobEvent) -> bytes:
    """The wire frame for one event."""
    data = json.dumps(event.payload, sort_keys=True, separators=(",", ":"))
    return (f"id: {event.seq}\n"
            f"event: {event.kind}\n"
            f"data: {data}\n\n").encode("utf-8")


def parse_stream(chunks: Iterator[bytes]
                 ) -> Iterator[Tuple[Optional[int], str, Dict]]:
    """Decode an SSE byte stream into ``(seq, kind, payload)`` tuples.

    The inverse of :func:`format_event`, used by the test suite and the
    benchmark subscribers.  Comment frames
    are dropped; incomplete trailing data is ignored (a closed stream
    ends mid-frame only when the peer died).
    """
    buffer = b""
    for chunk in chunks:
        buffer += chunk
        while b"\n\n" in buffer:
            frame, buffer = buffer.split(b"\n\n", 1)
            seq: Optional[int] = None
            kind = "message"
            data_lines: List[str] = []
            for line in frame.decode("utf-8").splitlines():
                if line.startswith(":"):
                    continue
                if line.startswith("id:"):
                    seq = int(line[3:].strip())
                elif line.startswith("event:"):
                    kind = line[6:].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[5:].lstrip())
            if not data_lines and seq is None:
                continue  # pure comment frame
            payload = json.loads("\n".join(data_lines)) if data_lines else {}
            yield seq, kind, payload
