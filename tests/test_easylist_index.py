"""Token-index property tests: indexed ``matches()`` == linear scan.

The index may only ever *narrow* the candidate set it evaluates, never
change the verdict.  These tests drive it with (a) the universe's full
synthetic EasyList/EasyPrivacy corpora against real crawl-shaped URLs,
and (b) randomized rules — wildcards, anchors, ``^`` separators,
exceptions, ``$domain=`` / type / party options — against randomized
URLs, asserting agreement with the exhaustive scan of
:class:`tests.reference.LinearFilterList` on every single query.
"""

from __future__ import annotations

import random

import pytest

from repro.blocklists.easylist import MatchContext, _safe_tokens, parse_rule

from .reference import LinearFilterList as FilterList

SEED = 20191021


# ---------------------------------------------------------------------------
# Token-extraction unit properties
# ---------------------------------------------------------------------------

class TestSafeTokens:
    def test_bounded_tokens_are_extracted(self):
        assert "banner" in _safe_tokens("/ad/banner-", start_anchor=False,
                                        end_anchor=False)
        assert "ads" in _safe_tokens("/ads/", start_anchor=False,
                                     end_anchor=False)

    def test_edge_tokens_are_rejected_without_anchor(self):
        # "ads" at the pattern edge may continue inside a URL token
        # ("loads.js"), so it must not be indexed on.
        assert _safe_tokens("ads", start_anchor=False, end_anchor=False) == []
        assert "ads" not in _safe_tokens("ads/track", start_anchor=False,
                                         end_anchor=False)

    def test_anchor_makes_edge_token_safe(self):
        assert "http" in _safe_tokens("http://x/", start_anchor=True,
                                      end_anchor=False)
        assert "gif" in _safe_tokens("/px.gif", start_anchor=False,
                                     end_anchor=True)

    def test_wildcard_edges_are_unsafe(self):
        tokens = _safe_tokens("/a*tracker*b/", start_anchor=False,
                              end_anchor=False)
        assert "tracker" not in tokens


# ---------------------------------------------------------------------------
# Corpus rules vs crawl-shaped URLs
# ---------------------------------------------------------------------------

def crawl_urls(universe, porn_log):
    urls = [record.url for record in porn_log.requests[:4000]]
    # Stress the miss path too: hosts the lists never mention.
    urls.extend(
        f"https://unlisted-{index}.example.com/ad/banner-{index}.js"
        for index in range(50)
    )
    return urls


class TestCorpusParity:
    @pytest.fixture(scope="class")
    def lists(self, universe):
        return (FilterList.from_text(universe.easylist_text),
                FilterList.from_text(universe.easyprivacy_text))

    def test_index_agrees_on_crawl_urls(self, universe, porn_log, lists):
        contexts = (
            MatchContext(),
            MatchContext(first_party_host="pornsite.com",
                         resource_type="script"),
            MatchContext(first_party_host="example.com",
                         resource_type="image"),
        )
        checked = 0
        for filter_list in lists:
            for url in crawl_urls(universe, porn_log):
                for context in contexts:
                    assert filter_list.matches(url, context) == \
                        filter_list.matches_linear(url, context), (url, context)
                    checked += 1
        assert checked > 1000

    def test_some_corpus_urls_match(self, universe, porn_log, lists):
        easylist, _ = lists
        assert any(
            easylist.matches(record.url,
                             MatchContext(first_party_host=record.page_domain,
                                          resource_type=record.resource_type))
            for record in porn_log.requests
            if not record.failed
        )


# ---------------------------------------------------------------------------
# Randomized rules vs randomized URLs
# ---------------------------------------------------------------------------

def random_rules(rng: random.Random, count: int):
    """Deterministic random filter lines spanning the supported syntax."""
    hosts = ("tracker.io", "ads.example.com", "cdn.net", "stats.co.uk")
    words = ("ad", "ads", "banner", "track", "pixel", "sync", "js", "img",
             "collect", "beacon")
    lines = []
    for _ in range(count):
        shape = rng.randrange(6)
        if shape == 0:
            line = f"||{rng.choice(hosts)}^"
        elif shape == 1:
            line = f"||{rng.choice(hosts)}/{rng.choice(words)}/"
        elif shape == 2:
            line = f"/{rng.choice(words)}/{rng.choice(words)}-"
        elif shape == 3:
            line = f"|https://{rng.choice(hosts)}/{rng.choice(words)}"
        elif shape == 4:
            line = f"/{rng.choice(words)}*{rng.choice(words)}^"
        else:
            line = f"{rng.choice(words)}.{rng.choice(('gif', 'js', 'png'))}|"
        options = []
        if rng.random() < 0.3:
            options.append(rng.choice(("third-party", "~third-party")))
        if rng.random() < 0.3:
            options.append(rng.choice(("script", "image", "subdocument",
                                       "xmlhttprequest")))
        if rng.random() < 0.3:
            domains = rng.sample(
                ("site1.com", "site2.com", "~bad.com", "~other.net"),
                rng.randrange(1, 3),
            )
            options.append("domain=" + "|".join(domains))
        if options:
            line += "$" + ",".join(options)
        if rng.random() < 0.25:
            line = "@@" + line
        lines.append(line)
    return lines


def random_urls(rng: random.Random, count: int):
    hosts = ("tracker.io", "sub.tracker.io", "ads.example.com", "clean.org",
             "cdn.net", "stats.co.uk", "unrelated.com")
    paths = ("/", "/ad/banner-x.js", "/ads/pixel.gif", "/loads.js",
             "/track/sync", "/js/app.js", "/collect?v=1&uid=abc",
             "/img/banner.png", "/static/beacon.gif", "/adsbygoogle.js")
    return [
        f"{rng.choice(('http', 'https'))}://{rng.choice(hosts)}{rng.choice(paths)}"
        for _ in range(count)
    ]


class TestRandomizedParity:
    def test_random_rules_random_urls(self):
        rng = random.Random(SEED)
        contexts = (
            MatchContext(),
            MatchContext(first_party_host="site1.com", resource_type="script"),
            MatchContext(first_party_host="bad.com", resource_type="image"),
            MatchContext(first_party_host="tracker.io",
                         resource_type="sub_frame"),
            MatchContext(first_party_host="unrelated.com",
                         resource_type="xhr"),
        )
        for trial in range(20):
            lines = random_rules(rng, 40)
            filter_list = FilterList.from_text("\n".join(lines))
            for url in random_urls(rng, 40):
                for context in contexts:
                    assert filter_list.matches(url, context) == \
                        filter_list.matches_linear(url, context), \
                        (trial, url, context)

    def test_exception_rules_survive_indexing(self):
        filter_list = FilterList.from_text(
            "||tracker.io^\n"
            "/ads/banner-\n"
            "@@||tracker.io/allowed/\n"
            "@@/ads/banner-ok-$domain=site1.com\n"
        )
        blocked = "https://tracker.io/x.js"
        allowed = "https://tracker.io/allowed/x.js"
        assert filter_list.matches(blocked)
        assert not filter_list.matches(allowed)
        assert filter_list.matches(blocked) == filter_list.matches_linear(blocked)
        assert filter_list.matches(allowed) == filter_list.matches_linear(allowed)
        banner = "https://cdn.net/ads/banner-ok-1.png"
        ctx_covered = MatchContext(first_party_host="site1.com")
        ctx_other = MatchContext(first_party_host="site2.com")
        assert not filter_list.matches(banner, ctx_covered)
        assert filter_list.matches(banner, ctx_other)
        assert filter_list.matches(banner, ctx_covered) == \
            filter_list.matches_linear(banner, ctx_covered)
        assert filter_list.matches(banner, ctx_other) == \
            filter_list.matches_linear(banner, ctx_other)

    def test_domain_option_parity(self):
        filter_list = FilterList.from_text(
            "/track/$domain=site1.com|~sub.site1.com\n"
            "||stats.co.uk^$third-party,script\n"
        )
        url = "https://stats.co.uk/track/x.js"
        for host in ("site1.com", "sub.site1.com", "stats.co.uk", ""):
            for rtype in ("script", "image", "document"):
                context = MatchContext(first_party_host=host,
                                       resource_type=rtype)
                assert filter_list.matches(url, context) == \
                    filter_list.matches_linear(url, context), (host, rtype)
