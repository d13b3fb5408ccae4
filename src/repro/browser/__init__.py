"""Instrumented browser and crawl log schema."""

from .browser import Browser, MAX_REDIRECTS
from .events import CookieRecord, CrawlLog, PageVisit, RequestRecord

__all__ = [
    "Browser",
    "MAX_REDIRECTS",
    "CookieRecord",
    "CrawlLog",
    "PageVisit",
    "RequestRecord",
]
