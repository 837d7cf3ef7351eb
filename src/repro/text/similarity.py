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
which returns a non-negative integer); ``levenshtein_ratios`` takes two
equally long sequences and returns a numpy array of the same values.

The Levenshtein kernel comes in two forms that compute the same integers.
The scalar one (``levenshtein_distance``/``levenshtein_ratio``) runs one pair
at a time on Python ints.  The lane-parallel one (``levenshtein_ratios``)
runs the same recurrence over a whole list of pairs at once, one pair per
lane of ``uint64`` numpy arrays, so each step costs one fixed chain of array
operations for up to 1,024 pairs instead of one chain per pair.

The bulk entry points read through one process-wide memo of similarity
values, keyed per function by the exact ``(left, right)`` strings:
:func:`levenshtein_ratios` and :func:`memoized_similarities` look each pair
up and compute only the misses, Levenshtein misses in one lane-kernel pass.
The feature extractor's columns and the simulated LLM's prompt reading both
go through it, so a value pair compared by one is not compared again by the
other, nor by a later run in the same process.  The memo holds at most
``SIMILARITY_MEMO_SIZE`` values over all functions and is cleared wholesale
when an insert would pass that bound.  The scalar functions stay uncached:
they are the oracles.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from functools import lru_cache
from itertools import islice
from typing import Sequence

import numpy as np

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")

#: Bits per word of a lane; a pattern of ``m`` characters takes
#: ``ceil(m / 64)`` words.
_WORD_BITS = 64

#: Pairs the lane kernel normalises and runs together: bounds its working
#: memory.
_LANE_BLOCK = 1024

#: A lane step costs about as much as the scalar kernel's step on this many
#: pairs (2-vCPU x86 VM, numpy 2.4: 20-28 us against 0.7-1.0 us), so groups
#: of at most this many pairs run on the scalar kernel.
_LANE_STEP_COST = 30

#: Upper bound on the bytes of one lane run's character table, which holds
#: ``words * lanes * alphabet`` ``uint64`` masks: a full block of one-word
#: lanes over 255 symbols.  English values use under 60 symbols.
_LANE_TABLE_BYTES = 2 << 20

_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.int64)

_ONE = np.uint64(1)
_ZERO = np.uint64(0)
_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_TOP_BIT = np.uint64(_WORD_BITS - 1)


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


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits per lane of a C-contiguous ``(words, lanes)`` ``uint64`` array."""
    per_byte = _BYTE_POPCOUNT[words.view(np.uint8)]
    return per_byte.reshape(words.shape[0], words.shape[1], 8).sum(axis=(0, 2))


def _lane_distances(
    patterns: list[str],
    texts: list[str],
    pattern_lengths: np.ndarray,
    text_lengths: np.ndarray,
    words: int,
) -> np.ndarray:
    """:func:`_edit_distance` of ``(patterns[i], texts[i])`` for every lane ``i``.

    The recurrence of :func:`_edit_distance`, one pair per lane: ``pv``,
    ``mv`` and the horizontal vectors are ``(words, lanes)`` ``uint64``
    arrays, and the addition's carries and the shifts move bits from word
    ``w`` to word ``w + 1``.  Every pattern is non-empty, at least as long as
    its text and at most ``64 * words`` characters long; texts are non-empty
    and sorted longest first, so the lanes still running at step ``j`` are a
    prefix.  Every operation moves information only towards higher bits, so
    the bits above a pattern's end, left unmasked, never reach the bits
    below it.  A lane's last column holds the vertical deltas of its whole
    pattern, so its distance is the text length plus the ``+1`` deltas minus
    the ``-1`` deltas, counted once at the end instead of at every step.

    The lanes run in consecutive runs whose character table fits in
    ``_LANE_TABLE_BYTES``; a run of at most ``_LANE_STEP_COST`` pairs runs on
    the scalar kernel instead.
    """
    lanes = len(patterns)
    if lanes <= _LANE_STEP_COST:
        return np.array(
            [_edit_distance(pattern, text) for pattern, text in zip(patterns, texts)],
            dtype=np.int64,
        )
    codes = np.frombuffer(
        "".join(patterns + texts).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    # Dense symbol ids 1..S over the code points present; id 0 pads the
    # patterns and is never a text character.
    present = np.zeros(int(codes.max()) + 1, dtype=bool)
    present[codes] = True
    symbols = np.flatnonzero(present)
    alphabet = len(symbols) + 1
    fit = _LANE_TABLE_BYTES // (words * alphabet * 8)
    if fit < lanes:
        # A run's alphabet is a subset of this one, so its table fits.
        fit = max(fit, 1)
        return np.concatenate(
            [
                _lane_distances(
                    patterns[start : start + fit],
                    texts[start : start + fit],
                    pattern_lengths[start : start + fit],
                    text_lengths[start : start + fit],
                    words,
                )
                for start in range(0, lanes, fit)
            ]
        )
    symbol_ids = np.zeros(len(present), dtype=np.int32)
    symbol_ids[symbols] = np.arange(1, alphabet, dtype=np.int32)
    ids = symbol_ids[codes]
    width = words * _WORD_BITS
    steps = int(text_lengths[0])
    split = int(pattern_lengths.sum())
    pattern_ids = np.zeros((lanes, width), dtype=np.int32)
    pattern_ids[np.arange(width) < pattern_lengths[:, None]] = ids[:split]
    # peq[w, lane * alphabet + s]: bit k set where the lane's pattern has
    # symbol s at position 64 * w + k.
    offsets = np.arange(lanes, dtype=np.intp) * alphabet
    peq = np.zeros((words, lanes * alphabet), dtype=np.uint64)
    for position in range(int(pattern_lengths.max())):
        word, bit = divmod(position, _WORD_BITS)
        peq[word, offsets + pattern_ids[:, position]] |= np.uint64(1 << bit)
    del pattern_ids
    # peq_rows[j, lane]: the peq column of the lane's j-th text character.
    peq_rows = np.zeros((steps, lanes), dtype=np.intp)
    peq_rows.T[np.arange(steps) < text_lengths[:, None]] = ids[split:]
    peq_rows += offsets
    # Lanes whose text has a character at step j: text_lengths > j.
    running = np.searchsorted(-text_lengths, -np.arange(steps), side="left")
    pv = np.full((words, lanes), _ALL_ONES, dtype=np.uint64)
    mv = np.zeros((words, lanes), dtype=np.uint64)
    for step in range(steps):
        k = int(running[step])
        pv_k = pv[:, :k]
        mv_k = mv[:, :k]
        eq = peq[:, peq_rows[step, :k]]
        xv = eq | mv_k
        matched = eq & pv_k
        xh = matched + pv_k
        if words > 1:
            carry = xh < matched
            for word in range(1, words):
                xh[word] += carry[word - 1]
                carry[word] |= carry[word - 1] & (xh[word] == _ZERO)
        xh ^= pv_k
        xh |= eq
        ph = np.bitwise_or(xh, pv_k)
        np.invert(ph, out=ph)
        ph |= mv_k
        mh = np.bitwise_and(pv_k, xh, out=xh)
        ph_shifted = ph << _ONE
        mh_shifted = mh << _ONE
        if words > 1:
            ph_shifted[1:] |= ph[:-1] >> _TOP_BIT
            mh_shifted[1:] |= mh[:-1] >> _TOP_BIT
        ph_shifted[0] |= _ONE
        np.bitwise_or(xv, ph_shifted, out=pv_k)
        np.invert(pv_k, out=pv_k)
        pv_k |= mh_shifted
        np.bitwise_and(ph_shifted, xv, out=mv_k)
    # Bits of word w that lie inside the pattern: clip(m - 64 w, 0, 64).
    inside = np.clip(
        pattern_lengths[None, :] - _WORD_BITS * np.arange(words)[:, None], 0, _WORD_BITS
    ).astype(np.uint64)
    mask = np.where(
        inside == np.uint64(_WORD_BITS),
        _ALL_ONES,
        (_ONE << np.minimum(inside, _TOP_BIT)) - _ONE,
    )
    return text_lengths + _popcount(pv & mask) - _popcount(mv & mask)


def _edit_distances(a: list[str], b: list[str]) -> np.ndarray:
    """:func:`_edit_distance` of every pair ``(a[i], b[i])`` of normalised strings.

    Equal strings and an empty side take the scalar kernel's shortcuts.  The
    other pairs are grouped by the word count of their longer string, and
    each group runs through :func:`_lane_distances` sorted by the length of
    its shorter strings, longest first.
    """
    count = len(a)
    if count <= _LANE_STEP_COST:
        # No group can be large enough for the lanes: skip the set-up.
        return np.array([_edit_distance(x, y) for x, y in zip(a, b)], dtype=np.int64)
    length_a = np.fromiter(map(len, a), dtype=np.int64, count=count)
    length_b = np.fromiter(map(len, b), dtype=np.int64, count=count)
    longer = np.maximum(length_a, length_b)
    shorter = np.minimum(length_a, length_b)
    equal = np.fromiter(map(operator.eq, a, b), dtype=bool, count=count)
    distances = np.where(equal, 0, longer)
    pending = np.flatnonzero(~equal & (shorter > 0))
    pending = pending[np.argsort(-shorter[pending], kind="stable")]
    word_counts = (longer[pending] + (_WORD_BITS - 1)) // _WORD_BITS
    b_is_pattern = (length_a < length_b).tolist()
    for words in sorted(set(word_counts.tolist())):
        group = pending[word_counts == words]
        members = group.tolist()
        patterns = [b[i] if b_is_pattern[i] else a[i] for i in members]
        texts = [a[i] if b_is_pattern[i] else b[i] for i in members]
        distances[group] = _lane_distances(
            patterns, texts, longer[group], shorter[group], words
        )
    return distances


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


def levenshtein_ratios(
    lefts: Sequence[str | None], rights: Sequence[str | None]
) -> np.ndarray:
    """:func:`levenshtein_ratio` of every pair ``(lefts[i], rights[i])``, memoized.

    A ``float64`` array bit-identical to the scalar ratios.  Pairs already
    in the similarity memo are read from it; the others run through the
    lane kernel together (see :func:`_lane_ratios`) and enter the memo.

    Raises:
        ValueError: if ``lefts`` and ``rights`` differ in length.
    """
    if len(lefts) != len(rights):
        raise ValueError(f"got {len(lefts)} left and {len(rights)} right strings")
    return np.array(
        memoized_similarities("levenshtein_ratio", list(zip(lefts, rights))), dtype=float
    )


def _lane_ratios(
    lefts: Sequence[str | None], rights: Sequence[str | None]
) -> np.ndarray:
    """:func:`levenshtein_ratio` of every pair through the lane kernel, unmemoized.

    A ``float64`` array bit-identical to the scalar ratios: the distances
    are the same integers, and ``1.0 - d / total`` divides two exactly
    representable doubles as Python's ``int / int`` does.  The pairs are
    normalised and run in windows of ``_LANE_BLOCK``, so that working memory
    stays bounded.
    """
    ratios = np.ones(len(lefts))
    for start in range(0, len(lefts), _LANE_BLOCK):
        a = list(map(_normalise, lefts[start : start + _LANE_BLOCK]))
        b = list(map(_normalise, rights[start : start + _LANE_BLOCK]))
        distances = _edit_distances(a, b)
        total = np.fromiter(map(len, a), dtype=np.int64, count=len(a)) + np.fromiter(
            map(len, b), dtype=np.int64, count=len(b)
        )
        # Two empty strings: ratio 1.0, as in the scalar function.
        share = np.divide(distances, total, out=np.zeros(len(a)), where=total > 0)
        ratios[start : start + len(a)] = 1.0 - share
    return ratios


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


#: Bound on the values the similarity memo holds, over every function.
SIMILARITY_MEMO_SIZE = 262_144

#: The similarity memo: function name -> (left, right) -> similarity.  The
#: tables are never replaced, only cleared, so a reader needs no lock.
_memo_tables: dict[str, dict[tuple[str | None, str | None], float]] = {
    name: {} for name in SIMILARITY_FUNCTIONS
}
#: Serialises inserts, so concurrent callers never push the memo past its bound.
_memo_lock = threading.Lock()


def memoized_similarities(
    name: str, keys: Sequence[tuple[str | None, str | None]]
) -> list[float]:
    """Similarity ``name`` of every ``(left, right)`` key, through the memo.

    Each key is looked up by its exact strings; the distinct misses are
    computed together (Levenshtein ratios by :func:`_lane_ratios`, other
    functions pair by pair) and enter the memo together.  When they would
    push it past ``SIMILARITY_MEMO_SIZE`` values it is cleared first, and at
    most that many of them are kept.  Values equal the scalar function's.

    Raises:
        KeyError: if ``name`` is not a registered similarity function.
    """
    table = _memo_tables[name]
    values = list(map(table.get, keys))
    if None not in values:
        return values
    missing = list(dict.fromkeys(key for key, value in zip(keys, values) if value is None))
    if name == "levenshtein_ratio":
        computed = _lane_ratios(
            [left for left, _ in missing], [right for _, right in missing]
        ).tolist()
    else:
        function = SIMILARITY_FUNCTIONS[name]
        computed = [float(function(left, right)) for left, right in missing]
    found = dict(zip(missing, computed))
    with _memo_lock:
        bound = SIMILARITY_MEMO_SIZE
        if similarity_memo_size() + len(found) > bound:
            for stale in _memo_tables.values():
                stale.clear()
        table.update(islice(found.items(), bound))
    return [found[key] if value is None else value for key, value in zip(keys, values)]


def similarity_memo_size() -> int:
    """Number of values the similarity memo holds, over every function."""
    return sum(map(len, _memo_tables.values()))


def clear_similarity_memo() -> None:
    """Empty the similarity memo."""
    with _memo_lock:
        for table in _memo_tables.values():
            table.clear()


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
