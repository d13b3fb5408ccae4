"""The OpenWPM-style measurement crawler (§3.1).

One browser session is reused for the entire crawl — the paper keeps the
session alive to capture cookie synchronization — and only landing pages
are visited (a deliberate lower bound on tracking).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple

from ..browser.browser import Browser
from ..browser.events import CrawlLog
from ..net.geo import VantagePoint
from ..webgen.universe import ClientContext, Universe
from .vpn import client_for

__all__ = ["OpenWPMCrawler"]


class OpenWPMCrawler:
    """Crawls landing pages with full instrumentation from one vantage point."""

    def __init__(
        self,
        universe: Universe,
        vantage: VantagePoint,
        *,
        epoch: str = "crawl",
        keep_html: bool = True,
    ) -> None:
        self.universe = universe
        self.vantage = vantage
        self.client: ClientContext = client_for(vantage, epoch=epoch)
        self.keep_html = keep_html

    def browser_for(self, log: Optional[CrawlLog] = None) -> Browser:
        """The session browser :meth:`crawl` drives, for callers that
        interleave real visits with other work (the delta-crawl layer
        splices stored sites between visits of changed ones)."""
        return Browser(self.universe, self.client, log=log,
                       keep_html=self.keep_html)

    def visit_site(self, browser: Browser, domain: str,
                   checkpoint: Optional[Callable[
                       [str, CrawlLog, Tuple[int, int, int, int]], None
                   ]] = None) -> None:
        """One landing-page visit plus its checkpoint/trim handling."""
        log = browser.log
        marks = log.mark_site(domain)
        browser.visit(domain)
        if checkpoint is not None and checkpoint(domain, log, marks):
            log.clear_events()

    def crawl(self, domains: Iterable[str],
              *, log: Optional[CrawlLog] = None,
              checkpoint: Optional[Callable[
                  [str, CrawlLog, Tuple[int, int, int, int]], None
              ]] = None,
              progress: Optional[Callable[..., None]] = None) -> CrawlLog:
        """Visit each domain's landing page once, in order.

        A single cookie jar spans the whole crawl; pass an existing ``log``
        to append (used when crawling the porn and regular corpora in the
        same session, and by the datastore when resuming an aborted run).

        ``checkpoint(domain, log, marks)`` fires after every completed
        visit with the pre-visit lengths of the log's (visits, requests,
        cookies, js_calls) lists, so a persistence layer can durably
        append exactly that site's event slice (see
        :func:`repro.datastore.stored_crawl`).  A checkpoint returning a
        truthy value asks for *trim mode*: the just-persisted events are
        dropped from memory (the sequence counter keeps running), which
        bounds crawl RSS by one site's events instead of the whole run.

        ``progress(event, **fields)`` is the generic observation hook the
        CLI ``--stats`` output and the measurement service share: it
        fires as ``progress("site_started", country=..., domain=...,
        index=i, total=n)`` before each visit and ``"site_finished"``
        *after* the visit's checkpoint has committed — so an exception
        raised from a ``site_finished`` callback (the service's
        cooperative cancellation) can never tear a site's stored slice.
        """
        browser = self.browser_for(log)
        log = browser.log
        domains = list(domains)
        country = self.vantage.country_code
        for index, domain in enumerate(domains):
            if progress is not None:
                progress("site_started", country=country, domain=domain,
                         index=index, total=len(domains))
            self.visit_site(browser, domain, checkpoint)
            if progress is not None:
                progress("site_finished", country=country, domain=domain,
                         index=index, total=len(domains))
        return log
