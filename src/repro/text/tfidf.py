"""TF-IDF vectorization and cosine similarity.

The paper uses TF-IDF twice:

* Section 4.1 — similarity between privacy policies and between the HTML
  ``<head>`` elements of site pairs, to cluster sites under a common owner;
* Section 7.3 — pairwise similarity of all collected privacy policies
  (76% of pairs above 0.5).

Documents are vectorized with log-scaled term frequency and smoothed
inverse document frequency; similarity is the cosine of the two vectors,
which lies in [0, 1] for non-negative weights (the paper describes the
range as [-1, 1], the general cosine bound).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .tokenize import term_counts

__all__ = [
    "TfIdfVectorizer",
    "cosine_similarity",
    "pairwise_similarities",
]

Vector = Dict[str, float]


class TfIdfVectorizer:
    """Fits IDF weights on a corpus and transforms documents to vectors."""

    def __init__(self, *, min_df: int = 1) -> None:
        if min_df < 1:
            raise ValueError("min_df must be >= 1")
        self.min_df = min_df
        self._idf: Optional[Dict[str, float]] = None
        self._documents = 0

    @property
    def is_fitted(self) -> bool:
        return self._idf is not None

    @property
    def vocabulary_size(self) -> int:
        return len(self._idf) if self._idf else 0

    def fit(self, corpus: Sequence[str]) -> "TfIdfVectorizer":
        """Learn IDF weights from ``corpus``."""
        document_frequency: Dict[str, int] = {}
        for document in corpus:
            for term in set(term_counts(document)):
                document_frequency[term] = document_frequency.get(term, 0) + 1
        self._documents = len(corpus)
        # Smoothed IDF: idf(t) = ln((1 + N) / (1 + df)) + 1, always > 0.
        self._idf = {
            term: math.log((1 + self._documents) / (1 + df)) + 1.0
            for term, df in document_frequency.items()
            if df >= self.min_df
        }
        return self

    def transform(self, document: str) -> Vector:
        """Vectorize one document using the fitted IDF weights."""
        if self._idf is None:
            raise RuntimeError("vectorizer is not fitted; call fit() first")
        vector: Vector = {}
        for term, count in term_counts(document).items():
            idf = self._idf.get(term)
            if idf is None:
                continue
            vector[term] = (1.0 + math.log(count)) * idf
        return vector

    def fit_transform(self, corpus: Sequence[str]) -> List[Vector]:
        self.fit(corpus)
        return [self.transform(document) for document in corpus]


def cosine_similarity(a: Vector, b: Vector) -> float:
    """Cosine similarity between two sparse vectors (0 when either is empty)."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(weight * b.get(term, 0.0) for term, weight in a.items())
    if dot == 0.0:
        return 0.0
    norm_a = math.sqrt(sum(w * w for w in a.values()))
    norm_b = math.sqrt(sum(w * w for w in b.values()))
    return dot / (norm_a * norm_b)


def pairwise_similarities(
    documents: Sequence[str], *, vectorizer: Optional[TfIdfVectorizer] = None
) -> Iterable[Tuple[int, int, float]]:
    """Yield ``(i, j, similarity)`` for every unordered document pair.

    This is the Section 7.3 computation (1.2M pairs in the paper); it is
    a generator so callers can stream and aggregate without materializing
    the full pair list.  Pairs come from the blocked sparse gram kernel
    (:class:`~repro.text.sparse.SimilarityEngine`, same log-TF × smoothed
    IDF weighting as :class:`TfIdfVectorizer`) in the nested-loop order
    of the historical dict-cosine implementation.
    """
    from .sparse import SimilarityEngine

    if vectorizer is not None:
        min_df = vectorizer.min_df
        vectorizer.fit(documents)  # preserve the fit side effect
    else:
        min_df = 1
    engine = SimilarityEngine(min_df=min_df, use_idf=True).fit(documents)
    return engine.iter_pairs()
