"""Crawlers: OpenWPM-style measurement, Selenium-style interaction, VPNs,
and the crawl executor every crawl runs through."""

from .executor import (
    CrawlExecutionError,
    CrawlExecutor,
    CrawlOutcome,
    CrawlSpec,
    default_parallelism,
)
from .openwpm import OpenWPMCrawler
from .selenium import (
    AgeGateObservation,
    PolicyObservation,
    SeleniumCrawler,
    SiteInspection,
    find_age_gate_button,
)
from .vpn import VantagePointManager, client_for

__all__ = [
    "CrawlExecutionError",
    "CrawlExecutor",
    "CrawlOutcome",
    "CrawlSpec",
    "default_parallelism",
    "OpenWPMCrawler",
    "AgeGateObservation",
    "PolicyObservation",
    "SeleniumCrawler",
    "SiteInspection",
    "find_age_gate_button",
    "VantagePointManager",
    "client_for",
]
