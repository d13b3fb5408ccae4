"""Script behaviors and their execution against the instrumented APIs.

A third-party script in the synthetic universe carries a declarative
:class:`ScriptBehavior`.  When the browser "executes" the script, the
runtime expands the behavior into the exact sequence of instrumented API
calls a real script with that behavior would produce, plus any follow-up
network requests (tracking beacons, miner pool sockets).

The fidelity that matters is at the *log* level: the Englehardt-Narayanan
canvas heuristics and the paper's stricter ``measureText`` rule
(Section 5.1.3) must see the same evidence they would see from OpenWPM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .api import API, JSCall

__all__ = [
    "CanvasBehavior",
    "FontProbeBehavior",
    "ScriptBehavior",
    "execute_script",
]


@dataclass(frozen=True)
class CanvasBehavior:
    """Parameters of a canvas-drawing routine.

    The Englehardt-Narayanan fingerprinting filters key on exactly these
    properties: canvas size, color and character diversity, whether the
    pixels are read back (``toDataURL``/``getImageData``), and whether the
    script uses ``save``/``restore``/``addEventListener`` (which indicate a
    drawing app rather than a fingerprinter).
    """

    width: int = 300
    height: int = 150
    colors: int = 2
    text: str = "Cwm fjordbank glyphs vext quiz \U0001f60f"
    reads_back: bool = True            # calls toDataURL or getImageData
    read_api: str = API.CANVAS_TO_DATA_URL
    read_area: int = 0                 # area argument of getImageData
    uses_save_restore: bool = False
    uses_event_listener: bool = False


@dataclass(frozen=True)
class FontProbeBehavior:
    """Font-enumeration probing via ``measureText``.

    ``repeats_per_font`` calls of ``measureText`` with the *same* sample
    text per font; the paper's rule counts scripts that set the ``font``
    property and call ``measureText`` on the same text at least 50 times.
    """

    fonts: int = 60
    repeats_per_font: int = 1
    sample_text: str = "mmmmmmmmmmlli"
    #: When True each font is measured with its own sample string (the
    #: online-metrix.net pattern) — this defeats the paper's same-text
    #: counting rule but is caught by the font-enumeration detector.
    distinct_texts: bool = False


@dataclass(frozen=True)
class ScriptBehavior:
    """Everything a synthetic script does when executed."""

    canvas: Optional[CanvasBehavior] = None
    font_probe: Optional[FontProbeBehavior] = None
    uses_webrtc: bool = False
    is_miner: bool = False
    miner_pool: str = ""
    #: Absolute URLs requested after execution (analytics beacons etc.).
    beacons: Tuple[str, ...] = ()
    reads_navigator: bool = False
    sets_document_cookie: Optional[Tuple[str, str]] = None  # (name, value)

    @property
    def is_fingerprinting(self) -> bool:
        """Ground-truth flag: does this behavior try to fingerprint?"""
        return self.canvas is not None or self.font_probe is not None


def _canvas_calls(script_url: str, host: str, spec: CanvasBehavior) -> List[JSCall]:
    calls = [
        JSCall(script_url, host, API.CANVAS_CREATE,
               {"width": spec.width, "height": spec.height}),
    ]
    for index in range(spec.colors):
        calls.append(
            JSCall(script_url, host, API.CONTEXT_FILL_STYLE, {"color_index": index})
        )
    calls.append(JSCall(script_url, host, API.CONTEXT_FILL_TEXT, {"text": spec.text}))
    if spec.uses_save_restore:
        calls.append(JSCall(script_url, host, API.CONTEXT_SAVE, {}))
        calls.append(JSCall(script_url, host, API.CONTEXT_RESTORE, {}))
    if spec.uses_event_listener:
        calls.append(JSCall(script_url, host, API.ADD_EVENT_LISTENER, {"event": "click"}))
    if spec.reads_back:
        if spec.read_api == API.CONTEXT_GET_IMAGE_DATA:
            calls.append(
                JSCall(script_url, host, API.CONTEXT_GET_IMAGE_DATA,
                       {"area": spec.read_area or spec.width * spec.height})
            )
        else:
            calls.append(JSCall(script_url, host, API.CANVAS_TO_DATA_URL, {}))
    return calls


def _font_probe_calls(script_url: str, host: str, spec: FontProbeBehavior) -> List[JSCall]:
    calls: List[JSCall] = []
    for font_index in range(spec.fonts):
        calls.append(
            JSCall(script_url, host, API.CONTEXT_SET_FONT, {"font_index": font_index})
        )
        if spec.distinct_texts:
            text = f"{spec.sample_text}-{font_index}"
        else:
            text = spec.sample_text
        for _ in range(spec.repeats_per_font):
            calls.append(
                JSCall(script_url, host, API.CONTEXT_MEASURE_TEXT, {"text": text})
            )
    return calls


def execute_script(
    script_url: str,
    behavior: ScriptBehavior,
    *,
    document_host: str,
) -> Tuple[List[JSCall], List[str]]:
    """Run ``behavior`` and return ``(api_calls, follow_up_request_urls)``."""
    calls: List[JSCall] = []
    follow_ups: List[str] = []

    if behavior.reads_navigator:
        calls.append(JSCall(script_url, document_host, API.NAVIGATOR_USER_AGENT, {}))
        calls.append(JSCall(script_url, document_host, API.SCREEN_RESOLUTION, {}))
    if behavior.canvas is not None:
        calls.extend(_canvas_calls(script_url, document_host, behavior.canvas))
    if behavior.font_probe is not None:
        calls.extend(_font_probe_calls(script_url, document_host, behavior.font_probe))
    if behavior.uses_webrtc:
        calls.append(
            JSCall(script_url, document_host, API.RTC_PEER_CONNECTION,
                   {"config": "stun"})
        )
        calls.append(
            JSCall(script_url, document_host, API.RTC_ICE_CANDIDATE,
                   {"reveals": "local_and_public_ip"})
        )
    if behavior.sets_document_cookie is not None:
        name, value = behavior.sets_document_cookie
        calls.append(
            JSCall(script_url, document_host, API.DOCUMENT_COOKIE_SET,
                   {"name": name, "value": value})
        )
    if behavior.is_miner:
        calls.append(
            JSCall(script_url, document_host, API.WORKER_CREATE,
                   {"purpose": "cryptomining", "pool": behavior.miner_pool})
        )
        if behavior.miner_pool:
            follow_ups.append(behavior.miner_pool)

    follow_ups.extend(behavior.beacons)
    return calls, follow_ups
