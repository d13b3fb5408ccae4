"""Numpy-only sparse text-similarity engine (CSR + blocked gram kernel).

The paper's two TF-IDF workloads — §4.1 owner-candidate discovery and the
§7.3 all-pairs policy comparison (1.2M pairs) — are set-similarity math
over very sparse document vectors: a policy holds a few hundred distinct
terms out of a corpus vocabulary of thousands.  The historical
implementations materialized a dense ``(n_docs × vocab)`` matrix, its
full ``n × n`` gram product, and an ``n × n`` ``np.triu`` boolean mask —
a multi-GB memory cliff at scale 1.0 (6,843 documents).

This module keeps the exact same math on sparse structures:

:class:`CsrMatrix`
    A hand-rolled compressed-sparse-row matrix — ``data`` / ``indices``
    / ``indptr`` arrays, no scipy dependency — with vectorized row
    densification for small row blocks.
:class:`SimilarityEngine`
    Fits a shared vocabulary (first-seen order, matching the dense
    code), weights rows with log-TF and optionally the smoothed IDF of
    :class:`~repro.text.tfidf.TfIdfVectorizer`
    (``ln((1+N)/(1+df)) + 1``), L2-normalizes rows (zero rows stay
    zero), and exposes a **row-blocked** gram kernel: for each block of
    ``block_size`` rows it emits ``X[s:e] @ X[s:].T`` — cosine rows
    against all columns ``j >= s`` — so peak memory is
    ``O(block × n)`` per strip plus two densified row blocks, never
    ``O(n × vocab)`` or ``O(n²)``.  Column blocks below the diagonal
    are never computed, halving the FLOPs of a full gram product.

Every consumer streams: :meth:`SimilarityEngine.similar_pairs` yields
above-threshold upper-triangle pairs in the same row-major order
``np.argwhere(np.triu(gram > t, k=1))`` produced,
:meth:`SimilarityEngine.count_pairs_above` aggregates counts without
ever materializing the pair list, and :meth:`SimilarityEngine.iter_pairs`
re-creates the ``(i, j, similarity)`` generator contract of
:func:`~repro.text.tfidf.pairwise_similarities`.

Term-count maps are memoized by content hash (thread-safe, bounded):
the §4.1 and §7.3 consumers tokenize overlapping policy corpora, and
tokenization — not linear algebra — dominates the similarity wall time.

Module-level counters (:func:`engine_stats`) aggregate docs, vocabulary
size, computed blocks, and streamed candidate pairs across every engine
built in the process, for ``repro study --stats``.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cache import BoundedCache, content_key
from .tokenize import term_counts

__all__ = [
    "CsrMatrix",
    "SimilarityEngine",
    "EngineStats",
    "engine_stats",
    "cached_term_counts",
]

#: Default number of rows densified per gram block.
DEFAULT_BLOCK_SIZE = 256

# ---------------------------------------------------------------------------
# Shared tokenization memo
# ---------------------------------------------------------------------------

#: The same policy text flows through owner discovery (§4.1), the §7.3
#: fraction computation, and the streaming generator; tokenizing it once
#: per process is the single largest win on the similarity path.
_TERM_COUNT_CACHE: BoundedCache = BoundedCache(maxsize=16384)


def cached_term_counts(text: str) -> Dict[str, int]:
    """``term_counts`` memoized on a content hash (returned dict is shared —
    callers must not mutate it)."""
    return _TERM_COUNT_CACHE.get_or_create(
        content_key(text), lambda: term_counts(text)
    )


# ---------------------------------------------------------------------------
# Engine counters
# ---------------------------------------------------------------------------


class EngineStats:
    """Aggregated similarity-engine counters (approximate under threads)."""

    __slots__ = ("engines", "documents", "vocabulary", "nonzeros",
                 "blocks", "candidate_pairs")

    def __init__(self) -> None:
        self.engines = 0
        self.documents = 0
        self.vocabulary = 0
        self.nonzeros = 0
        self.blocks = 0
        self.candidate_pairs = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


_STATS = EngineStats()
_STATS_LOCK = threading.Lock()


def engine_stats() -> EngineStats:
    """Process-wide counters across every :class:`SimilarityEngine`."""
    return _STATS


# ---------------------------------------------------------------------------
# CSR matrix
# ---------------------------------------------------------------------------


class CsrMatrix:
    """Compressed sparse rows over plain numpy arrays.

    ``data[indptr[i]:indptr[i+1]]`` are row ``i``'s values at column
    positions ``indices[indptr[i]:indptr[i+1]]`` (sorted ascending per
    row for determinism).  Only what the gram kernel needs is
    implemented; there is deliberately no scipy fallback.
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data: np.ndarray, indices: np.ndarray,
                 indptr: np.ndarray, shape: Tuple[int, int]) -> None:
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = shape

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    def row_norms(self) -> np.ndarray:
        """Per-row L2 norms, computed without densifying (cumsum trick)."""
        squares = np.concatenate(([0.0], np.cumsum(self.data * self.data)))
        return np.sqrt(squares[self.indptr[1:]] - squares[self.indptr[:-1]])

    def scale_rows(self, factors: np.ndarray) -> None:
        """Multiply each row by its factor, in place."""
        counts = np.diff(self.indptr)
        if self.data.size:
            self.data *= np.repeat(factors, counts)

    def dense_rows(self, start: int, stop: int) -> np.ndarray:
        """Densify rows ``[start, stop)`` to a ``(stop-start, n_cols)``
        float64 block (the only densification the engine ever performs)."""
        rows, cols = stop - start, self.shape[1]
        block = np.zeros((rows, cols))
        lo, hi = self.indptr[start], self.indptr[stop]
        if hi > lo:
            row_ids = np.repeat(
                np.arange(rows), np.diff(self.indptr[start:stop + 1])
            )
            block[row_ids, self.indices[lo:hi]] = self.data[lo:hi]
        return block


# ---------------------------------------------------------------------------
# Similarity engine
# ---------------------------------------------------------------------------


class SimilarityEngine:
    """Fitted sparse TF(-IDF) vectors with a blocked cosine-gram kernel.

    ``use_idf=True`` reproduces :class:`~repro.text.tfidf.TfIdfVectorizer`
    weighting (log-TF × smoothed IDF, ``min_df`` filtering);
    ``use_idf=False`` reproduces the §4.1 owner-discovery weighting
    (log-TF only).  Rows are L2-normalized either way, so every gram
    entry is exactly the cosine the dense/dict implementations computed.
    """

    def __init__(self, *, min_df: int = 1, use_idf: bool = True,
                 block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.min_df = min_df
        self.use_idf = use_idf
        self.block_size = block_size
        self.matrix: Optional[CsrMatrix] = None
        self.vocabulary: Dict[str, int] = {}
        self.blocks_computed = 0
        self.pairs_streamed = 0

    # -- fitting --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return self.matrix is not None

    @property
    def n_docs(self) -> int:
        return self.matrix.shape[0] if self.matrix is not None else 0

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)

    @property
    def nnz(self) -> int:
        return self.matrix.nnz if self.matrix is not None else 0

    def fit(self, documents: Sequence[str]) -> "SimilarityEngine":
        """Tokenize, build the shared vocabulary, and assemble the CSR."""
        counts = [cached_term_counts(document) for document in documents]
        return self.fit_counts(counts)

    def fit_counts(
        self, counts: Sequence[Dict[str, int]]
    ) -> "SimilarityEngine":
        """Fit from precomputed term-count maps (one per document)."""
        n = len(counts)
        document_frequency: Dict[str, int] = {}
        for count in counts:
            for term in count:
                document_frequency[term] = \
                    document_frequency.get(term, 0) + 1
        # First-seen vocabulary order, exactly like the dense code's
        # ``vocabulary.setdefault(term, len(vocabulary))`` loop.
        vocabulary: Dict[str, int] = {}
        for count in counts:
            for term in count:
                if document_frequency[term] >= self.min_df:
                    vocabulary.setdefault(term, len(vocabulary))
        self.vocabulary = vocabulary

        if self.use_idf:
            idf = np.empty(len(vocabulary))
            for term, index in vocabulary.items():
                idf[index] = math.log(
                    (1 + n) / (1 + document_frequency[term])
                ) + 1.0
        else:
            idf = None

        indptr = np.zeros(n + 1, dtype=np.int64)
        all_cols: List[np.ndarray] = []
        all_tfs: List[np.ndarray] = []
        for row, count in enumerate(counts):
            items = sorted(
                (vocabulary[term], frequency)
                for term, frequency in count.items() if term in vocabulary
            )
            indptr[row + 1] = indptr[row] + len(items)
            if items:
                pairs = np.asarray(items, dtype=np.float64)
                all_cols.append(pairs[:, 0].astype(np.int64))
                all_tfs.append(pairs[:, 1])
        indices = np.concatenate(all_cols) if all_cols else \
            np.zeros(0, dtype=np.int64)
        tf = np.concatenate(all_tfs) if all_tfs else np.zeros(0)
        data = 1.0 + np.log(tf) if tf.size else tf
        if idf is not None and data.size:
            data = data * idf[indices]

        matrix = CsrMatrix(data, indices, indptr, (n, len(vocabulary)))
        norms = matrix.row_norms()
        # Zero rows (no in-vocabulary terms) stay zero: cosine 0 against
        # everything, matching both dense implementations and the dict
        # path's "empty vector => 0.0".
        norms[norms == 0.0] = 1.0
        matrix.scale_rows(1.0 / norms)
        self.matrix = matrix

        with _STATS_LOCK:
            _STATS.engines += 1
            _STATS.documents += n
            _STATS.vocabulary += len(vocabulary)
            _STATS.nonzeros += matrix.nnz
        return self

    # -- blocked gram kernel --------------------------------------------

    def gram_strips(
        self, block_size: Optional[int] = None
    ) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(row_start, strip)`` with ``strip = X[s:e] @ X[s:].T``.

        ``strip[r, c]`` is the cosine of documents ``s + r`` and
        ``s + c`` — columns start at the strip's own first row, so
        column blocks strictly below the diagonal are never computed.
        Peak live memory per iteration is the ``(block × (n - s))``
        strip plus two ``(block × vocab)`` densified row blocks.
        """
        if self.matrix is None:
            raise RuntimeError("engine is not fitted; call fit() first")
        n = self.matrix.shape[0]
        block = block_size or self.block_size
        for s in range(0, n, block):
            e = min(s + block, n)
            left = self.matrix.dense_rows(s, e)
            strip = np.empty((e - s, n - s))
            for cs in range(s, n, block):
                ce = min(cs + block, n)
                right = left if cs == s else self.matrix.dense_rows(cs, ce)
                strip[:, cs - s:ce - s] = left @ right.T
                self.blocks_computed += 1
                with _STATS_LOCK:
                    _STATS.blocks += 1
            yield s, strip

    def _upper_mask(self, start: int, strip: np.ndarray,
                    threshold: float) -> np.ndarray:
        """Boolean ``strip > threshold`` restricted to ``j > i`` (the
        leading ``rows × rows`` square of a strip is the diagonal block)."""
        mask = strip > threshold
        rows = strip.shape[0]
        lower = np.tril_indices(rows)
        mask[lower] = False
        return mask

    # -- consumers ------------------------------------------------------

    def similar_pairs(
        self, threshold: float, *, block_size: Optional[int] = None
    ) -> Iterator[Tuple[int, int]]:
        """Stream upper-triangle pairs with cosine strictly above
        ``threshold``, in the row-major ``(i asc, j asc)`` order of
        ``np.argwhere(np.triu(gram > threshold, k=1))``."""
        for start, strip in self.gram_strips(block_size):
            mask = self._upper_mask(start, strip, threshold)
            for i_local, j_local in np.argwhere(mask):
                self.pairs_streamed += 1
                with _STATS_LOCK:
                    _STATS.candidate_pairs += 1
                yield (start + int(i_local), start + int(j_local))

    def count_pairs_above(
        self, threshold: float, *, block_size: Optional[int] = None
    ) -> Tuple[int, int]:
        """``(count above threshold, total unordered pairs)`` without
        materializing any pair list or full mask."""
        n = self.n_docs
        total = n * (n - 1) // 2
        count = 0
        for start, strip in self.gram_strips(block_size):
            block_count = int(np.count_nonzero(
                self._upper_mask(start, strip, threshold)
            ))
            count += block_count
            with _STATS_LOCK:
                _STATS.candidate_pairs += block_count
        self.pairs_streamed += count
        return (count, total)

    def iter_pairs(
        self, *, block_size: Optional[int] = None
    ) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(i, j, similarity)`` for every unordered pair, in the
        nested-loop order of the historical generator."""
        for start, strip in self.gram_strips(block_size):
            rows, width = strip.shape
            for i_local in range(rows):
                row = strip[i_local]
                for j_local in range(i_local + 1, width):
                    yield (start + i_local, start + j_local,
                           float(row[j_local]))
