"""Text substrate: tokenization, string similarity and sentence embeddings.

The paper relies on three text-level capabilities:

* token counting against the LLM provider's tokenizer (for API cost and for the
  token-weighted Batch Covering objective) — provided by
  :class:`repro.text.tokenizer.ApproxTokenizer`;
* string similarity functions used by the structure-aware feature extractor
  (Levenshtein ratio, Eq. 5; Jaccard, Eq. 4) — provided by
  :mod:`repro.text.similarity`;
* sentence embeddings used by the semantics-based feature extractor (the paper
  uses SBERT; offline we substitute a deterministic hashing encoder) — provided
  by :class:`repro.text.embeddings.HashingSentenceEncoder`.
"""

from repro.text.tokenizer import ApproxTokenizer, count_tokens
from repro.text.similarity import (
    cosine_token_similarity,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_ratio,
    levenshtein_ratios,
    monge_elkan_similarity,
    overlap_coefficient,
    tokenize_value,
)
from repro.text.embeddings import HashingSentenceEncoder

__all__ = [
    "ApproxTokenizer",
    "HashingSentenceEncoder",
    "cosine_token_similarity",
    "count_tokens",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_ratio",
    "levenshtein_ratios",
    "monge_elkan_similarity",
    "overlap_coefficient",
    "tokenize_value",
]
