"""An Adblock Plus filter-list engine (EasyList / EasyPrivacy).

Section 4.2 classifies third-party domains as advertising-and-tracking
services (ATS) by matching the *full request URL* against EasyList and
EasyPrivacy, because the lists are rule-based (``bbc.co.uk`` is clean while
``bbc.co.uk/analytics`` is blocked).  The paper also uses a relaxed
base-domain match.  This module implements the filter syntax subset those
lists actually rely on:

* ``||domain^`` domain-anchor rules (host or any subdomain);
* ``|`` start-of-URL anchors;
* plain substring rules with ``*`` wildcards and ``^`` separators;
* ``@@`` exception rules;
* ``$`` options: ``third-party``, ``~third-party``, resource types
  (``script``, ``image``, ``subdocument``, ``xmlhttprequest``), and
  ``domain=``;
* ``!`` comments and ``[Adblock...]`` headers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from ..net.url import URL, is_subdomain_of, parse_url, registrable_domain

__all__ = ["FilterRule", "FilterList", "MatchContext", "parse_rule"]

_SEPARATOR_CLASS = r"[^\w.%-]"

_TYPE_OPTIONS = {"script", "image", "subdocument", "xmlhttprequest", "document"}

_RESOURCE_ALIASES = {
    "sub_frame": "subdocument",
    "xhr": "xmlhttprequest",
}


@dataclass(frozen=True)
class MatchContext:
    """Request context needed to evaluate rule options."""

    first_party_host: str = ""
    resource_type: str = "document"

    @property
    def canonical_type(self) -> str:
        return _RESOURCE_ALIASES.get(self.resource_type, self.resource_type)


@dataclass
class FilterRule:
    """One compiled filter rule."""

    raw: str
    is_exception: bool = False
    anchor_domain: Optional[str] = None
    pattern: Optional[re.Pattern] = None
    third_party: Optional[bool] = None
    resource_types: Optional[Set[str]] = None
    include_domains: Optional[Set[str]] = None
    exclude_domains: Optional[Set[str]] = None
    #: The ABP pattern body the regex was compiled from, plus its anchors —
    #: kept so the token index can extract guaranteed substrings.
    pattern_text: Optional[str] = None
    start_anchor: bool = False
    end_anchor: bool = False

    def matches(self, url: URL, context: MatchContext) -> bool:
        """Evaluate this rule against a request URL and its context."""
        if self.anchor_domain is not None:
            if not is_subdomain_of(url.host, self.anchor_domain):
                return False
        if self.pattern is not None and not self.pattern.search(str(url)):
            return False
        if self.third_party is not None and context.first_party_host:
            request_party = registrable_domain(url.host)
            page_party = registrable_domain(context.first_party_host)
            is_third = request_party != page_party
            if self.third_party != is_third:
                return False
        if self.resource_types is not None:
            if context.canonical_type not in self.resource_types:
                return False
        if self.include_domains is not None and context.first_party_host:
            if not any(
                is_subdomain_of(context.first_party_host, domain)
                for domain in self.include_domains
            ):
                return False
        if self.exclude_domains is not None and context.first_party_host:
            if any(
                is_subdomain_of(context.first_party_host, domain)
                for domain in self.exclude_domains
            ):
                return False
        return True


def _compile_pattern(body: str, *, start_anchor: bool, end_anchor: bool) -> Optional[re.Pattern]:
    """Translate an ABP pattern body into a regular expression."""
    if not body and not start_anchor and not end_anchor:
        return None
    escaped = []
    for char in body:
        if char == "*":
            escaped.append(".*")
        elif char == "^":
            escaped.append(f"(?:{_SEPARATOR_CLASS}|$)")
        else:
            escaped.append(re.escape(char))
    regex = "".join(escaped)
    if start_anchor:
        regex = "^" + regex
    if end_anchor:
        regex += "$"
    return re.compile(regex)


def parse_rule(line: str) -> Optional[FilterRule]:
    """Parse one filter-list line; return ``None`` for comments/unsupported."""
    line = line.strip()
    if not line or line.startswith("!") or line.startswith("["):
        return None
    # Element-hiding rules (##, #@#) are irrelevant to request classification.
    if "##" in line or "#@#" in line or "#?#" in line:
        return None

    raw = line
    is_exception = line.startswith("@@")
    if is_exception:
        line = line[2:]

    options_text = ""
    dollar = line.rfind("$")
    if dollar > 0 and "/" not in line[dollar:]:
        options_text = line[dollar + 1:]
        line = line[:dollar]

    rule = FilterRule(raw=raw, is_exception=is_exception)

    if options_text:
        types: Set[str] = set()
        for option in options_text.split(","):
            option = option.strip()
            if option == "third-party":
                rule.third_party = True
            elif option == "~third-party":
                rule.third_party = False
            elif option in _TYPE_OPTIONS:
                types.add(option)
            elif option.startswith("domain="):
                include: Set[str] = set()
                exclude: Set[str] = set()
                for domain in option[len("domain="):].split("|"):
                    if domain.startswith("~"):
                        exclude.add(domain[1:].lower())
                    elif domain:
                        include.add(domain.lower())
                rule.include_domains = include or None
                rule.exclude_domains = exclude or None
            # Unknown options are ignored rather than rejected; EasyList
            # carries many options that do not affect URL classification.
        rule.resource_types = types or None

    if line.startswith("||"):
        body = line[2:]
        # Split the domain part from any path part.
        cut = len(body)
        for index, char in enumerate(body):
            if char in "/^*":
                cut = index
                break
        rule.anchor_domain = body[:cut].lower()
        remainder = body[cut:]
        if remainder and remainder != "^":
            rule.pattern = _compile_pattern(remainder.lstrip("^"), start_anchor=False,
                                            end_anchor=False)
        return rule

    start_anchor = line.startswith("|")
    if start_anchor:
        line = line[1:]
    end_anchor = line.endswith("|")
    if end_anchor:
        line = line[:-1]
    rule.pattern = _compile_pattern(line, start_anchor=start_anchor,
                                    end_anchor=end_anchor)
    rule.pattern_text = line
    rule.start_anchor = start_anchor
    rule.end_anchor = end_anchor
    if rule.pattern is None and rule.anchor_domain is None:
        return None
    return rule


# ---------------------------------------------------------------------------
# Token index (Adblock-Plus style)
# ---------------------------------------------------------------------------

#: Characters that form a token both in filter patterns and in URLs.
_TOKEN_RE = re.compile(r"[a-zA-Z0-9%]+")


def _safe_tokens(body: str, *, start_anchor: bool, end_anchor: bool) -> List[str]:
    """Literal substrings every matching URL must contain as *whole* tokens.

    A run of token characters in the pattern body is safe to index on only
    when both its edges are known non-token characters in any matching URL:
    a literal separator, an ABP ``^`` placeholder, or a ``|`` anchor.  Runs
    touching a ``*`` wildcard or an unanchored pattern edge may continue
    into neighbouring token characters of the URL (``ads`` matching inside
    ``loads.js``) and are skipped.
    """
    tokens: List[str] = []
    for segment_index, segment in enumerate(body.split("*")):
        first_segment = segment_index == 0
        last_segment = segment_index == body.count("*")
        for match in _TOKEN_RE.finditer(segment):
            left_safe = match.start() > 0 or (first_segment and start_anchor)
            right_safe = match.end() < len(segment) or (last_segment and end_anchor)
            if left_safe and right_safe:
                tokens.append(match.group())
    return tokens


class _TokenIndex:
    """Maps one representative token per rule to its candidate list.

    Rules without a safe token land in the always-checked bucket, so the
    candidate set is a superset of the matching set and evaluating every
    candidate with :meth:`FilterRule.matches` reproduces the linear scan
    exactly.
    """

    def __init__(self) -> None:
        self._by_token: Dict[str, List[FilterRule]] = {}
        self._no_token: List[FilterRule] = []

    def add(self, rule: FilterRule) -> None:
        tokens = ()
        if rule.pattern_text is not None:
            tokens = _safe_tokens(rule.pattern_text,
                                  start_anchor=rule.start_anchor,
                                  end_anchor=rule.end_anchor)
        if not tokens:
            self._no_token.append(rule)
            return
        # Prefer the rarest token so far (longest as tie-break): candidate
        # lists stay short even when many rules share a common prefix.
        best = min(tokens, key=lambda t: (len(self._by_token.get(t, ())), -len(t)))
        self._by_token.setdefault(best, []).append(rule)

    def candidates(self, url_text: str) -> Iterable[FilterRule]:
        yield from self._no_token
        if not self._by_token:
            return
        for token in dict.fromkeys(_TOKEN_RE.findall(url_text)):
            rules = self._by_token.get(token)
            if rules:
                yield from rules


class FilterList:
    """A compiled filter list with EasyList-style matching semantics."""

    def __init__(self, rules: Iterable[FilterRule] = ()) -> None:
        self._block_by_domain: Dict[str, List[FilterRule]] = {}
        self._block_index = _TokenIndex()
        self._exc_by_domain: Dict[str, List[FilterRule]] = {}
        self._exc_index = _TokenIndex()
        self._size = 0
        for rule in rules:
            self.add_rule(rule)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "FilterList":
        rules = (parse_rule(line) for line in lines)
        return cls(rule for rule in rules if rule is not None)

    @classmethod
    def from_text(cls, text: str) -> "FilterList":
        return cls.from_lines(text.splitlines())

    def add_rule(self, rule: FilterRule) -> None:
        self._size += 1
        if rule.is_exception:
            if rule.anchor_domain is not None:
                key = registrable_domain(rule.anchor_domain)
                self._exc_by_domain.setdefault(key, []).append(rule)
            else:
                self._exc_index.add(rule)
            return
        if rule.anchor_domain is not None:
            key = registrable_domain(rule.anchor_domain)
            self._block_by_domain.setdefault(key, []).append(rule)
        else:
            self._block_index.add(rule)

    def __len__(self) -> int:
        return self._size

    def matches(self, url, context: Optional[MatchContext] = None) -> bool:
        """True if the request would be blocked (exceptions honored).

        Candidate rules come from a token index (domain-anchored rules by
        the host's registrable domain, generic rules by URL substring
        tokens), so the scan touches a handful of rules per URL instead of
        the whole list.
        """
        if not isinstance(url, URL):
            url = parse_url(str(url))
        context = context or MatchContext()
        url_text = str(url)
        blocked = any(
            rule.matches(url, context)
            for rule in self._indexed_block_candidates(url, url_text)
        )
        if not blocked:
            return False
        return not any(
            rule.matches(url, context)
            for rule in self._indexed_exception_candidates(url, url_text)
        )

    def _indexed_block_candidates(self, url: URL, url_text: str) -> Iterable[FilterRule]:
        yield from self._block_by_domain.get(registrable_domain(url.host), ())
        yield from self._block_index.candidates(url_text)

    def _indexed_exception_candidates(self, url: URL, url_text: str) -> Iterable[FilterRule]:
        yield from self._exc_by_domain.get(registrable_domain(url.host), ())
        yield from self._exc_index.candidates(url_text)

    def matches_domain(self, host: str) -> bool:
        """Relaxed base-FQDN match used by the paper to count ATS *organizations*.

        True when any domain-anchored rule targets the host's registrable
        domain (ignoring path parts and options).
        """
        return registrable_domain(host) in self._block_by_domain

    def blocked_domains(self) -> Set[str]:
        """Registrable domains with at least one domain-anchored block rule."""
        return set(self._block_by_domain)
