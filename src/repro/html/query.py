"""DOM queries used by the crawlers and detectors."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from .dom import Element

__all__ = [
    "find_all",
    "find_first",
    "elements_with_keyword",
    "links",
    "scripts",
    "meta_tags",
    "head",
    "body",
]


def find_all(
    root: Element,
    tag: Optional[str] = None,
    *,
    predicate: Optional[Callable[[Element], bool]] = None,
) -> List[Element]:
    """All descendant elements matching ``tag`` and/or ``predicate``."""
    results = []
    for element in root.iter():
        if tag is not None and element.tag != tag.lower():
            continue
        if predicate is not None and not predicate(element):
            continue
        results.append(element)
    return results


def find_first(
    root: Element,
    tag: Optional[str] = None,
    *,
    predicate: Optional[Callable[[Element], bool]] = None,
) -> Optional[Element]:
    """First matching descendant, or ``None``."""
    for element in root.iter():
        if tag is not None and element.tag != tag.lower():
            continue
        if predicate is not None and not predicate(element):
            continue
        return element
    return None


def elements_with_keyword(root: Element, keywords: Iterable[str]) -> List[Element]:
    """Elements whose *own* text contains any keyword (case-insensitive).

    Matching on own text (not descendant text) pinpoints the clickable
    element itself, the way the paper's Selenium crawler locates age-gate
    buttons before inspecting their ancestors.
    """
    lowered_keywords = [keyword.lower() for keyword in keywords]
    matches = []
    for element in root.iter():
        text = element.own_text().lower()
        if not text:
            continue
        if any(keyword in text for keyword in lowered_keywords):
            matches.append(element)
    return matches


def links(root: Element) -> List[Element]:
    """All anchor elements with an ``href``."""
    return find_all(root, "a", predicate=lambda e: bool(e.get("href")))


def scripts(root: Element) -> List[Element]:
    """All ``<script>`` elements (external and inline)."""
    return find_all(root, "script")


def meta_tags(root: Element, name: Optional[str] = None) -> List[Element]:
    """All ``<meta>`` tags, optionally filtered by ``name`` attribute.

    Used to detect the ASACP Restricted-To-Adults label
    (``<meta name="rating" content="RTA-5042-1996-1400-1577-RTA">``).
    """
    tags = find_all(root, "meta")
    if name is None:
        return tags
    lowered = name.lower()
    return [tag for tag in tags if (tag.get("name") or "").lower() == lowered]


def head(root: Element) -> Optional[Element]:
    return find_first(root, "head")


def body(root: Element) -> Optional[Element]:
    return find_first(root, "body")
