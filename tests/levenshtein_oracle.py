"""Test-only Levenshtein oracle.

The classic two-row dynamic program that ``repro.text.similarity`` used
before its bit-parallel kernel, kept as the reference the kernel is checked
against.  It is O(len(a) * len(b)) and exists to be obviously right.
"""

from __future__ import annotations

from repro.text.similarity import _normalise


def dp_edit_distance(a: str, b: str) -> int:
    """Levenshtein distance of two strings, compared exactly as given."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (char_a != char_b)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def levenshtein_distance(left: str | None, right: str | None) -> int:
    """The public ``levenshtein_distance`` contract, computed by the DP."""
    return dp_edit_distance(_normalise(left), _normalise(right))
