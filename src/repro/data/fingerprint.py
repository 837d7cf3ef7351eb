"""Canonical content fingerprints for entity pairs.

A fingerprint hashes the attribute values of both records of a pair and
deliberately ignores ``pair_id`` and record ids: two pairs with identical
contents map to the same key.  The scheme is shared by every content-addressed
cache in the system — the service's pair-level result cache and the feature
engine's vector store — so a pair fingerprinted by one layer can be looked up
by any other.
"""

from __future__ import annotations

import hashlib

from repro.data.schema import EntityPair


def pair_fingerprint(pair: EntityPair) -> str:
    """Return the canonical content fingerprint of an entity pair.

    The fingerprint hashes the attribute values of both records (attribute
    order normalised, missing values skipped) and deliberately ignores
    ``pair_id`` and record ids: two pairs with identical contents are the same
    cache entry.  Left/right order is preserved — ER pairs are directed
    (table A vs. table B).

    Every field is length-prefixed, so the encoding is unambiguous for
    arbitrary attribute names and values (no separator byte a hostile client
    string could collide with).
    """
    parts = []
    for record in (pair.left, pair.right):
        present = [
            (name.encode("utf-8"), value.encode("utf-8"))
            for name, value in sorted(record.values.items())
            if value is not None
        ]
        parts.append(b"%d;" % len(present))
        parts.extend(
            b"%d:%s%d:%s" % (len(name), name, len(value), value)
            for name, value in present
        )
    return hashlib.blake2b(b"".join(parts), digest_size=16).hexdigest()
