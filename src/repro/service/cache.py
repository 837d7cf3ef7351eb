"""Pair-level result cache: canonical fingerprints, LRU, JSONL spill.

A long-lived service sees the same entity pairs again and again (hot items,
retries, mirrored catalogs).  Caching by a *canonical content fingerprint* —
not by ``pair_id`` — means any two requests about the same record contents hit
the same entry, so repeat queries cost zero LLM calls regardless of who
submitted them or what ids they used.

The cache spills to and warm-starts from a JSONL file of judgements, one
``{"fingerprint", "label", "answered"}`` entry per line; the spill replaces
the file atomically, so a failed spill leaves the previous one intact.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.data.fingerprint import pair_fingerprint
from repro.data.schema import MatchLabel

__all__ = ["CachedResult", "ResultCache", "pair_fingerprint"]


@dataclass(frozen=True)
class CachedResult:
    """The cached outcome for one pair fingerprint.

    Only the judgement is stored (label + whether the LLM actually answered),
    not the pair itself — a hit re-attaches the caller's own pair, so cached
    answers serve any request with the same contents.
    """

    label: MatchLabel
    answered: bool


class ResultCache:
    """Thread-safe LRU cache from pair fingerprint to :class:`CachedResult`.

    Args:
        capacity: maximum number of entries; the least-recently-used entry is
            evicted on overflow.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, CachedResult] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, fingerprint: str) -> CachedResult | None:
        """Look up a fingerprint, refreshing its recency on a hit."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._hits += 1
            return entry

    def put(self, fingerprint: str, result: CachedResult) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry on overflow."""
        with self._lock:
            self._entries[fingerprint] = result
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._entries

    # -- accounting ----------------------------------------------------------

    @property
    def hits(self) -> int:
        """Number of successful lookups."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups."""
        return self._misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    # -- persistence ---------------------------------------------------------

    def _snapshot(self) -> list[tuple[str, CachedResult]]:
        with self._lock:
            return list(self._entries.items())

    def spill(self, path: str | Path) -> int:
        """Write all entries to ``path`` as JSONL (LRU order, oldest first).

        Returns the number of entries written.  The file is a warm-start
        artifact, not a database: :meth:`warm_start` replays it through
        :meth:`put`, so capacity and recency semantics are preserved.

        The entries go to a sibling temp file, which is flushed, synced and
        then renamed over ``path`` — so a spill that fails part-way leaves
        the previous file as it was, never a truncated one.
        """
        entries = self._snapshot()
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_name(path.name + ".tmp")
        try:
            with scratch.open("w", encoding="utf-8") as handle:
                for fingerprint, result in entries:
                    entry = {
                        "fingerprint": fingerprint,
                        "label": int(result.label),
                        "answered": result.answered,
                    }
                    handle.write(json.dumps(entry) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, path)
        except BaseException:
            scratch.unlink(missing_ok=True)
            raise
        return len(entries)

    def warm_start(self, path: str | Path) -> int:
        """Load entries spilled by :meth:`spill`; missing file is a no-op.

        Returns the number of entries loaded.  Fields other than
        ``fingerprint``, ``label`` and ``answered`` are ignored, so files
        whose entries also carry ``"vector"`` and ``"extractor"`` fields (the
        format of earlier releases) load unchanged.

        Torn-tail tolerance: a file written in place and interrupted
        mid-write (a crash, a full disk — how earlier releases spilled)
        holds at most one partial entry, and only as the *final* line of the
        file.  An unparseable final line is therefore skipped — the
        preceding entries warm-start normally — while corruption anywhere
        else still raises, since that is a damaged file rather than an
        interrupted append.

        Raises:
            ValueError: if the file exists but a non-final line is not a
                valid entry.
        """
        path = Path(path)
        if not path.exists():
            return 0
        loaded = 0
        lines = list(_read_lines(path))
        for index, (line_number, line) in enumerate(lines):
            try:
                entry = json.loads(line)
                fingerprint = entry["fingerprint"]
                result = CachedResult(
                    label=MatchLabel(entry["label"]), answered=bool(entry["answered"])
                )
            except (KeyError, TypeError, ValueError, json.JSONDecodeError) as error:
                if index == len(lines) - 1:
                    break  # torn final line from an interrupted spill
                raise ValueError(
                    f"invalid cache spill entry at {path}:{line_number}: {error}"
                ) from error
            self.put(fingerprint, result)
            loaded += 1
        return loaded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(size={len(self)}, capacity={self.capacity}, "
            f"hit_rate={self.hit_rate:.2f})"
        )


def _read_lines(path: Path) -> Iterator[tuple[int, str]]:
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                yield line_number, line
