"""String similarity functions used by the structure-aware feature extractor.

The paper (Section III-B) builds feature vectors for an entity pair by computing
per-attribute string similarities.  Two functions are named explicitly:

* the token-set **Jaccard** similarity (Eq. 4), and
* the **Levenshtein ratio** (Eq. 5), defined as ``1 - LED(a, b) / (len(a) + len(b))``
  where ``LED`` is the Levenshtein edit distance.

Beyond those, this module ships the usual record-linkage similarity toolbox
(Jaro, Jaro-Winkler, Monge-Elkan, overlap coefficient, token cosine) so that the
feature extractor can be configured with alternatives, and so that ablations
over the similarity function are possible.

All functions accept plain strings, treat ``None``/empty values as empty
strings, and return a float in ``[0, 1]`` (except ``levenshtein_distance``,
which returns a non-negative integer).
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def _normalise(value: str | None) -> str:
    """Return a lower-cased, stripped string; ``None`` becomes the empty string."""
    if value is None:
        return ""
    return str(value).strip().lower()


def tokenize_value(value: str | None) -> list[str]:
    """Split an attribute value into lower-case alphanumeric tokens.

    >>> tokenize_value("Here Comes The Fuzz [Explicit]")
    ['here', 'comes', 'the', 'fuzz', 'explicit']
    """
    return _TOKEN_PATTERN.findall(_normalise(value))


def _edit_distance(a: str, b: str) -> int:
    """Levenshtein distance of two already-normalised strings.

    Myers' (1999) bit-vector algorithm in Hyyrö's (2003) formulation: the
    longer string is the pattern, one bit per character, and every character
    of the shorter string advances a whole column of the edit-distance matrix
    with one fixed chain of bitwise operations.  ``pv``/``mv`` hold the
    column's +1/-1 vertical deltas and ``distance`` tracks its last cell.
    Python ints have no fixed width, so patterns longer than a machine word
    need no blocking.  ``~`` makes the horizontal vectors negative (infinite
    two's-complement ones), which the bit tests read correctly; ``& mask``
    keeps ``pv``, and with it ``mv``, non-negative and inside the pattern.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv = mask
    mv = 0
    distance = len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            distance += 1
        elif mh & last:
            distance -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return distance


def levenshtein_distance(left: str | None, right: str | None) -> int:
    """Compute the Levenshtein edit distance between two strings.

    Bit-parallel (Myers/Hyyrö): O(ceil(m / w) * n) word operations for a
    longer string of length ``m``, a shorter one of length ``n`` and machine
    word size ``w``, plus one ``m``-bit mask per distinct character of the
    longer string.  Exact: the result is the same integer the classic
    O(m * n) dynamic program computes.
    """
    return _edit_distance(_normalise(left), _normalise(right))


def levenshtein_ratio(left: str | None, right: str | None) -> float:
    """Levenshtein ratio as defined by Eq. 5 of the paper.

    ``LR(a, b) = 1 - LED(a, b) / (len(a) + len(b))``.  Two empty strings are
    defined to have similarity 1.0 (nothing distinguishes them); a single empty
    string against a non-empty one yields ``1 - len/len = 0`` under the paper's
    formula only when the edit distance equals the total length, which it does,
    so no special case is needed there.
    """
    a = _normalise(left)
    b = _normalise(right)
    total_length = len(a) + len(b)
    if total_length == 0:
        return 1.0
    return 1.0 - _edit_distance(a, b) / total_length


def jaccard_similarity(left: str | None, right: str | None) -> float:
    """Token-set Jaccard similarity as defined by Eq. 4 of the paper.

    Values are tokenized into sets; two empty token sets have similarity 1.0.
    """
    tokens_a = set(tokenize_value(left))
    tokens_b = set(tokenize_value(right))
    if not tokens_a and not tokens_b:
        return 1.0
    union_size = len(tokens_a | tokens_b)
    if union_size == 0:
        return 1.0
    return len(tokens_a & tokens_b) / union_size


def overlap_coefficient(left: str | None, right: str | None) -> float:
    """Szymkiewicz-Simpson overlap coefficient over token sets."""
    tokens_a = set(tokenize_value(left))
    tokens_b = set(tokenize_value(right))
    if not tokens_a and not tokens_b:
        return 1.0
    smaller = min(len(tokens_a), len(tokens_b))
    if smaller == 0:
        return 0.0
    return len(tokens_a & tokens_b) / smaller


def cosine_token_similarity(left: str | None, right: str | None) -> float:
    """Cosine similarity between token multiset frequency vectors."""
    tokens_a = tokenize_value(left)
    tokens_b = tokenize_value(right)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for token in tokens_a:
        counts_a[token] = counts_a.get(token, 0) + 1
    for token in tokens_b:
        counts_b[token] = counts_b.get(token, 0) + 1
    dot = sum(count * counts_b.get(token, 0) for token, count in counts_a.items())
    norm_a = math.sqrt(sum(count * count for count in counts_a.values()))
    norm_b = math.sqrt(sum(count * count for count in counts_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def jaro_similarity(left: str | None, right: str | None) -> float:
    """Jaro similarity between two strings."""
    a = _normalise(left)
    b = _normalise(right)
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if a == b:
        return 1.0
    match_window = max(len(a), len(b)) // 2 - 1
    match_window = max(match_window, 0)
    a_matched = [False] * len(a)
    b_matched = [False] * len(b)
    matches = 0
    for i, char_a in enumerate(a):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(b))
        for j in range(start, end):
            if b_matched[j] or b[j] != char_a:
                continue
            a_matched[i] = True
            b_matched[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i, matched in enumerate(a_matched):
        if not matched:
            continue
        while not b_matched[j]:
            j += 1
        if a[i] != b[j]:
            transpositions += 1
        j += 1
    transpositions //= 2
    return (
        matches / len(a) + matches / len(b) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(
    left: str | None, right: str | None, prefix_weight: float = 0.1
) -> float:
    """Jaro-Winkler similarity (Jaro boosted by common-prefix length up to 4)."""
    a = _normalise(left)
    b = _normalise(right)
    jaro = jaro_similarity(a, b)
    prefix_length = 0
    for char_a, char_b in zip(a[:4], b[:4]):
        if char_a != char_b:
            break
        prefix_length += 1
    return jaro + prefix_length * prefix_weight * (1.0 - jaro)


def monge_elkan_similarity(left: str | None, right: str | None) -> float:
    """Monge-Elkan similarity: mean of best Jaro-Winkler match per left token."""
    tokens_a = tokenize_value(left)
    tokens_b = tokenize_value(right)
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    total = 0.0
    for token_a in tokens_a:
        total += max(jaro_winkler_similarity(token_a, token_b) for token_b in tokens_b)
    return total / len(tokens_a)


SIMILARITY_FUNCTIONS = {
    "levenshtein_ratio": levenshtein_ratio,
    "jaccard": jaccard_similarity,
    "overlap": overlap_coefficient,
    "cosine": cosine_token_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "monge_elkan": monge_elkan_similarity,
}
"""Registry of named similarity functions usable by feature extractors."""


@lru_cache(maxsize=1)
def available_similarity_functions() -> tuple[str, ...]:
    """Return the names of all registered string similarity functions."""
    return tuple(sorted(SIMILARITY_FUNCTIONS))


def get_similarity_function(name: str):
    """Look up a similarity function by name.

    Raises:
        KeyError: if ``name`` is not a registered similarity function.
    """
    try:
        return SIMILARITY_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(available_similarity_functions())
        raise KeyError(f"unknown similarity function {name!r}; expected one of: {known}") from None
