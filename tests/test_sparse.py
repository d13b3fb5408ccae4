"""Sparse similarity engine: parity with the linear/dense references,
edge cases, block-size invariance, and the memory regression that proves
no dense ``(n_docs × vocab)`` or ``n × n`` array ever materializes."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.compliance.policies import pairwise_similarity_fractions
from repro.core.owners import _policy_similarity_pairs
from repro.text.sparse import CsrMatrix, SimilarityEngine, engine_stats
from repro.text.tfidf import TfIdfVectorizer, pairwise_similarities

from .reference import (
    _policy_similarity_pairs_dense,
    pairwise_similarities_linear,
    pairwise_similarity_fractions_dense,
)


def make_corpus(n_docs, vocab=120, seed=7, min_len=5, max_len=60):
    rng = np.random.default_rng(seed)
    words = [f"term{i}" for i in range(vocab)]
    return [
        " ".join(rng.choice(words, size=int(rng.integers(min_len, max_len))))
        for _ in range(n_docs)
    ]


class TestCsrMatrix:
    def test_dense_rows_roundtrip(self):
        engine = SimilarityEngine(use_idf=False).fit(["a b b", "c", "a c"])
        matrix = engine.matrix
        full = matrix.dense_rows(0, matrix.shape[0])
        for start in range(matrix.shape[0]):
            block = matrix.dense_rows(start, start + 1)
            assert np.array_equal(block[0], full[start])

    def test_rows_are_l2_normalized(self):
        engine = SimilarityEngine(use_idf=True).fit(make_corpus(12))
        norms = engine.matrix.row_norms()
        assert np.allclose(norms[norms > 0], 1.0)

    def test_empty_matrix(self):
        matrix = CsrMatrix(np.zeros(0), np.zeros(0, dtype=np.int64),
                           np.zeros(1, dtype=np.int64), (0, 0))
        assert matrix.nnz == 0
        assert matrix.row_norms().shape == (0,)


class TestEdgeCases:
    """Each edge case runs through BOTH the sparse engine and the
    retained linear/dense reference, asserting equal results to 1e-9."""

    def assert_stream_parity(self, documents):
        sparse = list(pairwise_similarities(documents))
        linear = list(pairwise_similarities_linear(documents))
        assert [pair[:2] for pair in sparse] == [pair[:2] for pair in linear]
        for (_, _, a), (_, _, b) in zip(sparse, linear):
            assert a == pytest.approx(b, abs=1e-9)

    def assert_fraction_parity(self, documents, threshold=0.5):
        sparse = pairwise_similarity_fractions(documents,
                                               threshold=threshold)
        dense = pairwise_similarity_fractions_dense(documents,
                                                    threshold=threshold)
        assert sparse[1] == dense[1]
        assert sparse[0] == pytest.approx(dense[0], abs=1e-9)

    def test_empty_corpus(self):
        assert list(pairwise_similarities([])) == []
        assert list(pairwise_similarities_linear([])) == []
        assert pairwise_similarity_fractions([]) == (0.0, 0)
        assert _policy_similarity_pairs(None, [], threshold=0.5) == []
        engine = SimilarityEngine().fit([])
        assert engine.n_docs == 0
        assert engine.count_pairs_above(0.5) == (0, 0)
        assert list(engine.similar_pairs(0.5)) == []

    def test_single_document(self):
        assert list(pairwise_similarities(["only doc"])) == []
        assert pairwise_similarity_fractions(["only doc"]) == (0.0, 0)
        assert _policy_similarity_pairs(None, ["only doc"],
                                        threshold=0.5) == []

    def test_all_identical_documents(self):
        documents = ["same text here"] * 6
        self.assert_stream_parity(documents)
        self.assert_fraction_parity(documents)
        fraction, pairs = pairwise_similarity_fractions(documents)
        assert pairs == 15
        assert fraction == pytest.approx(1.0)
        assert _policy_similarity_pairs(None, documents, threshold=0.9) == \
            [(i, j) for i in range(6) for j in range(i + 1, 6)]

    def test_zero_in_vocabulary_terms(self):
        # min_df=2 drops every term of the singleton documents; their
        # rows are all-zero and must cosine to 0 against everything.
        documents = ["shared words here", "shared words here",
                     "unique singleton text", "another lonely document"]
        vectorizer = TfIdfVectorizer(min_df=2)
        sparse = list(pairwise_similarities(documents,
                                            vectorizer=vectorizer))
        linear = list(pairwise_similarities_linear(
            documents, vectorizer=TfIdfVectorizer(min_df=2)))
        for (_, _, a), (_, _, b) in zip(sparse, linear):
            assert a == pytest.approx(b, abs=1e-9)
        values = {pair[:2]: pair[2] for pair in sparse}
        assert values[(0, 1)] == pytest.approx(1.0)
        assert values[(0, 2)] == 0.0
        assert values[(2, 3)] == 0.0

    def test_empty_string_documents(self):
        documents = ["", "words appear here", "", "words appear here"]
        self.assert_stream_parity(documents)
        self.assert_fraction_parity(documents)

    def test_min_df_filtering(self):
        documents = make_corpus(15, vocab=30, seed=3)
        for min_df in (1, 2, 4):
            engine = SimilarityEngine(min_df=min_df).fit(documents)
            vectorizer = TfIdfVectorizer(min_df=min_df)
            vectorizer.fit(documents)
            assert engine.vocabulary_size == vectorizer.vocabulary_size
            sparse = list(pairwise_similarities(
                documents, vectorizer=TfIdfVectorizer(min_df=min_df)))
            linear = list(pairwise_similarities_linear(
                documents, vectorizer=TfIdfVectorizer(min_df=min_df)))
            for (_, _, a), (_, _, b) in zip(sparse, linear):
                assert a == pytest.approx(b, abs=1e-9)

    def test_random_corpus_parity(self):
        documents = make_corpus(40)
        self.assert_stream_parity(documents)
        for threshold in (0.1, 0.3, 0.5, 0.8):
            self.assert_fraction_parity(documents, threshold)
            assert _policy_similarity_pairs(
                None, documents, threshold=threshold
            ) == _policy_similarity_pairs_dense(
                None, documents, threshold=threshold)


class TestBlocking:
    def test_block_size_invariance(self):
        documents = make_corpus(33, seed=11)
        reference = SimilarityEngine(block_size=1000).fit(documents)
        expected_counts = reference.count_pairs_above(0.3)
        expected_pairs = list(
            SimilarityEngine(block_size=1000).fit(documents)
            .similar_pairs(0.3))
        for block_size in (1, 2, 7, 32, 33):
            engine = SimilarityEngine(block_size=block_size).fit(documents)
            assert engine.count_pairs_above(0.3) == expected_counts
            engine = SimilarityEngine(block_size=block_size).fit(documents)
            assert list(engine.similar_pairs(0.3)) == expected_pairs

    def test_pair_order_matches_argwhere(self):
        # Row-major upper-triangle order, exactly like
        # np.argwhere(np.triu(gram > t, k=1)) on the dense path.
        documents = make_corpus(21, seed=5)
        pairs = _policy_similarity_pairs(None, documents, threshold=0.2)
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)

    def test_strip_shapes(self):
        engine = SimilarityEngine(block_size=4).fit(make_corpus(10))
        strips = list(engine.gram_strips())
        assert [start for start, _ in strips] == [0, 4, 8]
        assert [strip.shape for _, strip in strips] == \
            [(4, 10), (4, 6), (2, 2)]

    def test_counters(self):
        before = engine_stats().snapshot()
        engine = SimilarityEngine(block_size=8).fit(make_corpus(20))
        count, _ = engine.count_pairs_above(0.2)
        after = engine_stats().snapshot()
        assert after["engines"] == before["engines"] + 1
        assert after["documents"] == before["documents"] + 20
        assert after["blocks"] > before["blocks"]
        assert after["candidate_pairs"] == \
            before["candidate_pairs"] + count
        assert engine.pairs_streamed == count
        assert engine.blocks_computed == 6  # 3 + 2 + 1 upper blocks


class TestMemoryRegression:
    """Scale-0.2-sized corpus (~1,400 documents): the sparse path must
    stay far below the dense path's peak and must never allocate an
    ``n × n`` float matrix."""

    N_DOCS = 1400  # the scale-0.2 corpus holds 1,368 sites

    @pytest.fixture(scope="class")
    def corpus(self):
        return make_corpus(self.N_DOCS, vocab=800, seed=2, min_len=20,
                           max_len=120)

    def _peak_bytes(self, thunk):
        # Warm-up run first: tokenization fills the shared term-count
        # cache, and those dict allocations would otherwise drown the
        # engine's own footprint at this corpus size.  The second run
        # measures the similarity path itself.
        thunk()
        tracemalloc.start()
        tracemalloc.reset_peak()
        thunk()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    def test_owner_pairs_peak_memory(self, corpus):
        n = len(corpus)
        sparse_peak = self._peak_bytes(
            lambda: _policy_similarity_pairs(None, corpus, threshold=0.9))
        dense_peak = self._peak_bytes(
            lambda: _policy_similarity_pairs_dense(None, corpus,
                                                   threshold=0.9))
        # No n×n float gram (and certainly no (n × vocab) dense matrix).
        assert sparse_peak < n * n * 8
        assert sparse_peak < dense_peak / 2

    def test_fraction_peak_memory(self, corpus):
        n = len(corpus)
        sparse_peak = self._peak_bytes(
            lambda: pairwise_similarity_fractions(corpus))
        dense_peak = self._peak_bytes(
            lambda: pairwise_similarity_fractions_dense(corpus))
        assert sparse_peak < n * n * 8
        assert sparse_peak < dense_peak / 2
