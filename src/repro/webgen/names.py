"""Deterministic domain-name generation for the synthetic universe.

Corpus compilation (Section 3) discovers candidates by substring-matching
adult keywords against Alexa-indexed domains, so the generator must mint:

* porn-site domains that contain those keywords (most of them);
* porn-site domains *without* keywords (only discoverable via aggregators
  or Alexa's Adult category — the paper's motivation for multiple sources);
* non-porn domains that nevertheless contain a keyword (the false
  positives, e.g. ``youtube.com`` matching ``tube``);
* regular-web domains and third-party service domains.

Names are drawn from word pools with a seeded generator, and a registry
guarantees global uniqueness.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np

__all__ = ["ADULT_KEYWORDS", "NameFactory"]

#: The keyword bag from Section 3 step (3).
ADULT_KEYWORDS = ("porn", "tube", "sex", "gay", "lesbian", "mature", "xxx")

_ADULT_PREFIXES = (
    "hot", "free", "best", "real", "wild", "super", "mega", "ultra", "top",
    "big", "sweet", "dark", "red", "blue", "gold", "vip", "club", "my",
    "your", "euro", "asia", "latin", "amateur", "classic", "retro", "hd",
    "4k", "live", "daily", "prime", "crazy", "naughty", "secret", "private",
)

_ADULT_SUFFIXES = (
    "hub", "land", "zone", "world", "star", "stars", "videos", "video",
    "clips", "movies", "films", "cams", "cam", "dreams", "heaven", "palace",
    "planet", "city", "island", "garden", "vault", "box", "spot", "place",
    "base", "center", "network", "channel", "stream", "gallery", "archive",
)

#: Innocent words containing adult keywords — the false-positive generator.
_KEYWORD_TRAPS = {
    "sex": ("essex", "sussex", "middlesex", "sextet", "sextant"),
    "tube": ("tuberecipes", "tubestation", "innertube", "tubemap", "testtube"),
    "mature": ("maturefunds", "maturedbonds", "prematurecare"),
    "gay": ("gayleforum", "nagayama", "gaylordhotels"),
    "porn": (),            # hard to collide innocently; the paper saw few
    "lesbian": (),
    "xxx": ("xxxl-fashion", "sizexxxl"),
}

_REGULAR_WORDS = (
    "news", "daily", "tech", "cloud", "shop", "store", "media", "games",
    "sports", "travel", "food", "recipe", "health", "finance", "bank",
    "music", "radio", "photo", "design", "code", "dev", "data", "social",
    "forum", "blog", "wiki", "mail", "search", "weather", "auto", "home",
    "garden", "fashion", "style", "book", "movie", "stream", "learn",
    "school", "job", "career", "market", "trade", "crypto", "chart",
)

_ADTECH_WORDS = (
    "ad", "ads", "click", "track", "traffic", "media", "serve", "srv",
    "pixel", "tag", "sync", "bid", "rtb", "banner", "pop", "push",
    "native", "cpm", "cpa", "affiliate", "promo", "reach", "audience",
    "metric", "stat", "stats", "analytics", "count", "beacon", "deliver",
    "engine", "net", "hub", "flow", "link", "zone", "boost", "juicy",
)

_TLDS_PORN = ("com", "com", "com", "net", "org", "xxx", "tv", "me")
_TLDS_REGULAR = ("com", "com", "com", "net", "org", "io", "co.uk", "de", "fr", "es", "in", "ru")
_TLDS_ADTECH = ("com", "com", "net", "ru", "party", "top", "pro", "info", "biz")


class NameFactory:
    """Mints globally unique domain names from themed word pools."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._taken: Set[str] = set()

    def reserve(self, domain: str) -> str:
        """Mark a hand-picked domain as taken (idempotent) and return it."""
        self._taken.add(domain.lower())
        return domain.lower()

    def is_taken(self, domain: str) -> bool:
        return domain.lower() in self._taken

    def _choice(self, pool: Sequence[str]) -> str:
        return pool[int(self._rng.integers(0, len(pool)))]

    def _unique(self, build) -> str:
        """Call ``build()`` until it yields an unused name (suffixing if needed)."""
        for _ in range(64):
            name = build()
            if name not in self._taken:
                self._taken.add(name)
                return name
        # Exhausted the combinatorial pool; disambiguate numerically.
        base = build()
        counter = 2
        while f"{base[:-4]}{counter}{base[-4:]}" in self._taken:
            counter += 1
        name = f"{base[:-4]}{counter}{base[-4:]}"
        self._taken.add(name)
        return name

    # -- porn sites -----------------------------------------------------------

    def porn_domain(self, *, with_keyword: bool = True) -> str:
        """A porn-site domain, with or without an adult keyword in it."""
        def build() -> str:
            if with_keyword:
                tld = self._choice(_TLDS_PORN)
            else:
                # ".xxx" itself is one of the discovery keywords, so
                # keyword-free domains must avoid it.
                tld = self._choice(tuple(t for t in _TLDS_PORN if t != "xxx"))
            if with_keyword:
                keyword = self._choice(ADULT_KEYWORDS)
                pattern = int(self._rng.integers(0, 3))
                if pattern == 0:
                    stem = f"{self._choice(_ADULT_PREFIXES)}{keyword}{self._choice(_ADULT_SUFFIXES)}"
                elif pattern == 1:
                    stem = f"{keyword}{self._choice(_ADULT_SUFFIXES)}{int(self._rng.integers(1, 100))}"
                else:
                    stem = f"{self._choice(_ADULT_PREFIXES)}-{keyword}-{self._choice(_ADULT_SUFFIXES)}"
            else:
                # Brandable names with no keyword (e.g. livejasmin-style).
                stem = (
                    f"{self._choice(_ADULT_PREFIXES)}"
                    f"{self._choice(('desire', 'velvet', 'night', 'blush', 'flirt', 'tease', 'vixen', 'amour'))}"
                    f"{self._choice(_ADULT_SUFFIXES)}"
                )
            return f"{stem}.{tld}"
        return self._unique(build)

    def false_positive_domain(self) -> str:
        """A *non-porn* domain that contains an adult keyword substring."""
        def build() -> str:
            trap_keyword = self._choice(("sex", "tube", "mature", "gay", "xxx"))
            traps = _KEYWORD_TRAPS[trap_keyword]
            if traps and self._rng.random() < 0.7:
                stem = f"{self._choice(traps)}{self._choice(('', '-online', '-hq', 'group'))}"
            else:
                stem = f"{self._choice(_REGULAR_WORDS)}{trap_keyword}{self._choice(_REGULAR_WORDS)}"
            return f"{stem}.{self._choice(('com', 'com', 'co.uk', 'org', 'net'))}"
        return self._unique(build)

    # -- regular sites -----------------------------------------------------------

    def regular_domain(self) -> str:
        def build() -> str:
            pattern = int(self._rng.integers(0, 3))
            if pattern == 0:
                stem = f"{self._choice(_REGULAR_WORDS)}{self._choice(_REGULAR_WORDS)}"
            elif pattern == 1:
                stem = f"{self._choice(_REGULAR_WORDS)}-{self._choice(_REGULAR_WORDS)}"
            else:
                stem = f"{self._choice(_REGULAR_WORDS)}{int(self._rng.integers(1, 1000))}"
            return f"{stem}.{self._choice(_TLDS_REGULAR)}"
        return self._unique(build)

    # -- third parties -----------------------------------------------------------

    def adtech_domain(self, *, tld: Optional[str] = None) -> str:
        """A plausible ad-tech / analytics service domain."""
        def build() -> str:
            chosen_tld = tld or self._choice(_TLDS_ADTECH)
            pattern = int(self._rng.integers(0, 4))
            first = self._choice(_ADTECH_WORDS)
            second = self._choice(_ADTECH_WORDS)
            if pattern == 0:
                stem = f"{first}{second}"
            elif pattern == 1:
                stem = f"{first}-{second}"
            elif pattern == 2:
                stem = f"{first}{second}{int(self._rng.integers(1, 100))}"
            else:
                stem = f"{first}{self._choice(('ly', 'ify', 'io', 'x', 'z'))}"
            return f"{stem}.{chosen_tld}"
        return self._unique(build)

    def obscure_domain(self) -> str:
        """A throwaway-looking tracker domain (``xcvgdf.party`` style)."""
        def build() -> str:
            consonants = "bcdfghjklmnpqrstvwxz"
            length = int(self._rng.integers(5, 9))
            letters = "".join(
                consonants[int(self._rng.integers(0, len(consonants)))]
                for _ in range(length)
            )
            return f"{letters}.{self._choice(('party', 'top', 'pro', 'info', 'biz'))}"
        return self._unique(build)

    def cdn_domain(self) -> str:
        def build() -> str:
            stem = (
                f"{self._choice(('cdn', 'static', 'img', 'media', 'assets', 'cache', 'edge'))}"
                f"{self._choice(('fast', 'net', 'wave', 'core', 'layer', 'stack', 'grid'))}"
                f"{int(self._rng.integers(1, 50))}"
            )
            return f"{stem}.{self._choice(('com', 'net', 'io'))}"
        return self._unique(build)
