"""Approximate LLM tokenizer used for token counting and API cost estimation.

The paper's cost model is priced per 1K tokens of the prompt sent to the LLM
API.  Offline we cannot call ``tiktoken``, so this module provides a
deterministic approximation that mirrors the well-known heuristics for GPT-style
BPE tokenizers:

* whitespace-separated words are split further into sub-word chunks of roughly
  four characters,
* punctuation and digits tend to become their own tokens,
* long alphanumeric identifiers (product model numbers, ids) cost proportionally
  more tokens.

The absolute counts do not need to match OpenAI's tokenizer exactly — every
method in the benchmark is priced with the *same* tokenizer, so relative cost
comparisons (the paper's 4x-7x savings claims) are preserved.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_WORD_PATTERN = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]")

#: Average number of characters covered by one BPE token for alphabetic words.
_CHARS_PER_ALPHA_TOKEN = 4
#: Average number of characters covered by one BPE token for digit runs.
_CHARS_PER_DIGIT_TOKEN = 3

#: One match per estimated token: greedy runs of at most 4 letters or 3
#: digits split a word chunk into exactly ``ceil(len / 4)`` or
#: ``ceil(len / 3)`` pieces, and every other chunk is one character.
_TOKEN_PATTERN = re.compile(
    rf"[A-Za-z]{{1,{_CHARS_PER_ALPHA_TOKEN}}}|\d{{1,{_CHARS_PER_DIGIT_TOKEN}}}|[^\sA-Za-z\d]"
)


@dataclass(frozen=True)
class TokenizationResult:
    """Tokenization outcome: the surface chunks and the estimated token count."""

    chunks: tuple[str, ...]
    token_count: int


class ApproxTokenizer:
    """Deterministic approximation of a GPT-style BPE tokenizer.

    The tokenizer is stateless; a single shared instance may be reused across
    the whole pipeline.  ``count`` is the primary entry point.
    """

    def tokenize(self, text: str | None) -> TokenizationResult:
        """Split ``text`` into word-level chunks and estimate the BPE token count."""
        if not text:
            return TokenizationResult(chunks=(), token_count=0)
        chunks = tuple(_WORD_PATTERN.findall(text))
        token_count = 0
        for chunk in chunks:
            if chunk.isalpha():
                token_count += max(1, -(-len(chunk) // _CHARS_PER_ALPHA_TOKEN))
            elif chunk.isdigit():
                token_count += max(1, -(-len(chunk) // _CHARS_PER_DIGIT_TOKEN))
            else:
                token_count += 1
        return TokenizationResult(chunks=chunks, token_count=token_count)

    def count(self, text: str | None) -> int:
        """Return the estimated number of tokens in ``text``.

        Equal to ``tokenize(text).token_count``, without building the chunks.
        """
        return len(_TOKEN_PATTERN.findall(text)) if text else 0

    def count_many(self, texts: list[str]) -> int:
        """Return the total estimated token count over a list of texts."""
        return sum(self.count(text) for text in texts)


_DEFAULT_TOKENIZER = ApproxTokenizer()


def count_tokens(text: str | None) -> int:
    """Estimate the token count of ``text`` using the shared default tokenizer."""
    return _DEFAULT_TOKENIZER.count(text)
