"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocklists.easylist import FilterList
from repro.core.cookie_sync import _url_tokens
from repro.net.cookies import CookieJar, parse_set_cookie
from repro.net.url import URL, parse_url, registrable_domain
from repro.text.levenshtein import levenshtein_distance, similarity
from repro.text.tfidf import TfIdfVectorizer, cosine_similarity
from repro.text.tokenize import tokenize
from repro.util import stable_hash, token_for

label = st.text(alphabet=string.ascii_lowercase + string.digits,
                min_size=1, max_size=8)
hostname = st.builds(
    lambda labels: ".".join(labels),
    st.lists(label, min_size=2, max_size=4),
)
words = st.text(alphabet=string.ascii_letters + " ", min_size=0, max_size=200)


class TestUrlProperties:
    @given(hostname, st.sampled_from(["http", "https"]))
    def test_parse_str_round_trip(self, host, scheme):
        url = URL(scheme, host, None, "/p", "a=1")
        assert parse_url(str(url)) == url

    @given(hostname)
    def test_registrable_domain_is_suffix(self, host):
        base = registrable_domain(host)
        assert host == base or host.endswith("." + base)

    @given(hostname)
    def test_registrable_domain_idempotent(self, host):
        base = registrable_domain(host)
        assert registrable_domain(base) == base


class TestLevenshteinProperties:
    @given(st.text(max_size=30), st.text(max_size=30))
    def test_symmetry(self, a, b):
        assert levenshtein_distance(a, b) == levenshtein_distance(b, a)

    @given(st.text(max_size=30))
    def test_identity(self, a):
        assert levenshtein_distance(a, a) == 0
        assert similarity(a, a) == 1.0

    @given(st.text(max_size=20), st.text(max_size=20), st.text(max_size=20))
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein_distance(a, c) <= \
            levenshtein_distance(a, b) + levenshtein_distance(b, c)

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_similarity_bounds(self, a, b):
        assert 0.0 <= similarity(a, b) <= 1.0

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_distance_bounded_by_longer(self, a, b):
        assert levenshtein_distance(a, b) <= max(len(a), len(b))


class TestTfIdfProperties:
    @given(st.lists(words, min_size=2, max_size=6))
    def test_cosine_bounds(self, corpus):
        vectorizer = TfIdfVectorizer()
        vectors = vectorizer.fit_transform(corpus)
        for i in range(len(vectors)):
            for j in range(len(vectors)):
                value = cosine_similarity(vectors[i], vectors[j])
                assert -1e-9 <= value <= 1.0 + 1e-9

    @given(words)
    def test_self_similarity(self, document):
        vectorizer = TfIdfVectorizer()
        vectors = vectorizer.fit_transform([document, "other words here"])
        if vectors[0]:
            assert cosine_similarity(vectors[0], vectors[0]) == \
                __import__("pytest").approx(1.0)

    @given(st.text(max_size=300))
    def test_tokens_are_lowercase(self, text):
        for token in tokenize(text):
            assert token == token.lower()


class TestCookieJarProperties:
    cookie_name = st.text(alphabet=string.ascii_lowercase, min_size=1,
                          max_size=8)
    cookie_value = st.text(alphabet=string.ascii_letters + string.digits,
                           min_size=1, max_size=30)

    @given(st.lists(st.tuples(cookie_name, cookie_value), min_size=1,
                    max_size=20))
    def test_jar_size_bounded_by_distinct_names(self, pairs):
        jar = CookieJar()
        for name, value in pairs:
            cookie = parse_set_cookie(f"{name}={value}", request_host="t.com")
            jar.store(cookie)
        assert len(jar) == len({name for name, _ in pairs})

    @given(cookie_name, cookie_value)
    def test_stored_cookie_always_sent_back(self, name, value):
        jar = CookieJar()
        jar.store(parse_set_cookie(f"{name}={value}", request_host="t.com"))
        header = jar.cookie_header_for(parse_url("https://t.com/"))
        assert header == f"{name}={value}"

    @given(st.lists(hostname, min_size=1, max_size=10))
    def test_cookies_never_leak_across_unrelated_hosts(self, hosts):
        jar = CookieJar()
        for index, host in enumerate(hosts):
            jar.store(parse_set_cookie(f"c{index}=v{index}",
                                       request_host=host))
        for host in hosts:
            header = jar.cookie_header_for(parse_url(f"https://{host}/")) or ""
            for index, other in enumerate(hosts):
                if other != host:
                    assert f"c{index}=v{index}" not in header or \
                        other == host


class TestDeterminismProperties:
    @given(st.lists(st.text(max_size=20), min_size=1, max_size=5))
    def test_stable_hash_deterministic(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)

    @given(st.integers(min_value=0, max_value=200),
           st.text(max_size=20))
    def test_token_length_exact(self, length, seed_text):
        token = token_for(length, seed_text)
        assert len(token) == length
        assert all(c in string.ascii_lowercase + string.digits for c in token)

    @given(st.text(max_size=20), st.text(max_size=20))
    def test_token_differs_across_keys(self, a, b):
        if a != b:
            assert token_for(16, a) != token_for(16, b)


class TestFilterListProperties:
    @given(hostname)
    def test_domain_rule_matches_all_subdomains(self, host):
        base = registrable_domain(host)
        rules = FilterList.from_text(f"||{base}^")
        assert rules.matches(f"https://{host}/anything")
        assert rules.matches_domain(host)

    @given(hostname, hostname)
    def test_unrelated_domains_unmatched(self, host, other):
        if registrable_domain(host) == registrable_domain(other):
            return
        rules = FilterList.from_text(f"||{registrable_domain(host)}^")
        assert not rules.matches(f"https://{other}/x")


class TestSyncTokenProperties:
    @given(st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6),
        st.text(alphabet=string.ascii_lowercase + string.digits,
                min_size=8, max_size=24),
        min_size=0, max_size=5,
    ))
    def test_query_values_extracted(self, params):
        query = "&".join(f"{k}={v}" for k, v in params.items())
        url = f"https://x.com/p?{query}" if query else "https://x.com/p"
        tokens = set(_url_tokens(url))
        for value in params.values():
            assert value in tokens


def _exact_levenshtein(a, b):
    """Reference unbanded DP, independent of the production implementation."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


class TestBandedLevenshteinProperties:
    """Satellite: the banded DP must agree with the exact DP — exact when
    the distance is within the band, ``max_distance + 1`` when beyond."""

    @given(st.text(max_size=25), st.text(max_size=25),
           st.integers(min_value=0, max_value=30))
    def test_banded_agrees_with_exact_dp(self, a, b, k):
        exact = _exact_levenshtein(a, b)
        banded = levenshtein_distance(a, b, max_distance=k)
        if exact <= k:
            assert banded == exact
        else:
            assert banded == k + 1

    @given(st.text(max_size=25), st.text(max_size=25))
    def test_unbanded_agrees_with_exact_dp(self, a, b):
        assert levenshtein_distance(a, b) == _exact_levenshtein(a, b)

    @given(st.text(max_size=25), st.text(max_size=25))
    def test_zero_band_is_equality_test(self, a, b):
        banded = levenshtein_distance(a, b, max_distance=0)
        assert (banded == 0) == (a == b)

    def test_negative_band_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            levenshtein_distance("a", "b", max_distance=-1)

    @given(hostname, hostname)
    def test_domains_similar_matches_unbanded_formula(self, a, b):
        from repro.text.levenshtein import domains_similar

        def reference(x, y, threshold=0.7):
            x, y = x.lower(), y.lower()
            if x.startswith("www."):
                x = x[4:]
            if y.startswith("www."):
                y = y[4:]
            if x == y:
                return True
            return similarity(x, y) > threshold

        assert domains_similar(a, b) == reference(a, b)

    @given(hostname)
    def test_domains_similar_www_invariant(self, host):
        from repro.text.levenshtein import domains_similar

        assert domains_similar("www." + host, host)


def _spell(host, upper_mask, www):
    """``host`` with the letters at ``upper_mask`` positions upper-cased
    and an optional ``www.`` prefix (itself in mixed case)."""
    spelled = "".join(ch.upper() if flip else ch
                      for ch, flip in zip(host, upper_mask))
    spelled += host[len(upper_mask):]
    return (www + "." + spelled) if www else spelled


@st.composite
def domain_pairs(draw):
    """Two spellings of hosts that are either unrelated or one edit apart,
    so both verdicts of the similarity test are exercised."""
    a = draw(hostname)
    if draw(st.booleans()):
        b = draw(hostname)
    else:
        index = draw(st.integers(min_value=0, max_value=len(a) - 1))
        b = a[:index] + draw(st.sampled_from("abcxyz0")) + a[index + 1:]
    spell = st.tuples(st.lists(st.booleans(), max_size=40),
                      st.sampled_from(["", "www", "WWW", "Www"]))
    return _spell(a, *draw(spell)), _spell(b, *draw(spell))


class TestPartyLabelSimilarityMemo:
    """Party labeling compares domains through a memoized, order-normalized
    wrapper; it must give the per-call verdict for every spelling."""

    @given(domain_pairs(), st.sampled_from([0.0, 0.5, 0.7, 0.9, 1.0]))
    def test_memoized_equals_per_call(self, pair, threshold):
        from repro.core.partylabel import _domains_similar
        from repro.text.levenshtein import domains_similar

        a, b = pair
        expected = domains_similar(a, b, threshold=threshold)
        assert _domains_similar(a, b, threshold) == expected
        assert _domains_similar(b, a, threshold) == \
            domains_similar(b, a, threshold=threshold) == expected
