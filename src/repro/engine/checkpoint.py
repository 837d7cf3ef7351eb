"""Per-run JSONL checkpoints: never re-pay for a completed LLM call.

Every LLM call costs money, so the run engine's core invariant is that a
killed run resumes without repeating a single completed call.  The unit of
persistence is one *batch* (one LLM call): as soon as a batch prompt is
answered, its raw response and token usage are appended to the run's
checkpoint file and flushed.  A crash therefore loses at most the calls that
were in flight — at most the executor's worker bound, exactly one under
serial execution — and nothing that was already paid for.

File layout (one file per run, ``<run key>.jsonl``, format version 2)::

    {"type": "header", "version": 2, "dataset": ..., "config": <fp>,
     "batches": <fp>, "num_batches": N, "model": ...,
     "provider_model": ..., "base_url": ...}
    {"type": "batch", "batch_id": 0, "fingerprint": <fp>, "text": ...,
     "model": ..., "prompt_tokens": 812, "completion_tokens": 9}

Each batch line carries the batch's
:func:`~repro.engine.engine.batch_fingerprint` and the response exactly as
the LLM returned it; resume replays the response and the stock
``ParseAnswers`` stage parses it again.  The header pins the run identity: a
file whose header does not match the current dataset / config / batch plan /
model — a version-1 file included — is stale and is rewritten, not resumed
from.  An HTTP client's provider model and endpoint are part of the model:
``provider_model`` and ``base_url`` are written only for such a client, so a
simulated run's header has neither.  A truncated tail (the classic
kill-mid-write artifact) is tolerated: complete leading records are kept, the
torn tail is discarded.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO

from repro.llm.base import LLMResponse

#: Version tag of the checkpoint file format.
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class RunHeader:
    """The identity a run checkpoint is valid for.

    Attributes:
        dataset: dataset code of the run.
        config_fingerprint: hash of the run's ``BatcherConfig`` snapshot.
        batches_fingerprint: content fingerprint of the run's batch plan.
        num_batches: number of batches (= LLM calls) the run completes.
        model: LLM profile the answers were produced by.
        provider_model / base_url: the provider model and endpoint of an
            HTTP client (``None`` for a simulated one), from its
            :meth:`~repro.llm.base.LLMClient.describe`.
    """

    dataset: str
    config_fingerprint: str
    batches_fingerprint: str
    num_batches: int
    model: str
    provider_model: str | None = None
    base_url: str | None = None

    def to_dict(self) -> dict[str, object]:
        """The header's JSONL representation."""
        header: dict[str, object] = {
            "type": "header",
            "version": CHECKPOINT_VERSION,
            "dataset": self.dataset,
            "config": self.config_fingerprint,
            "batches": self.batches_fingerprint,
            "num_batches": self.num_batches,
            "model": self.model,
        }
        for key in ("provider_model", "base_url"):
            if getattr(self, key) is not None:
                header[key] = getattr(self, key)
        return header

    def matches(self, entry: dict[str, object]) -> bool:
        """Whether a parsed header line identifies the same run."""
        return entry == self.to_dict()


@dataclass(frozen=True)
class BatchRecord:
    """The checkpointed outcome of one batch (= one LLM call).

    Attributes:
        batch_id: the batch's global id in the run's batch order.
        fingerprint: content fingerprint of the batch the response answers.
        text / model / prompt_tokens / completion_tokens: the
            :class:`~repro.llm.base.LLMResponse`, verbatim.
    """

    batch_id: int
    fingerprint: str
    text: str
    model: str
    prompt_tokens: int
    completion_tokens: int

    @classmethod
    def from_response(
        cls, batch_id: int, fingerprint: str, response: LLMResponse
    ) -> "BatchRecord":
        return cls(batch_id=batch_id, fingerprint=fingerprint, **asdict(response))

    def response(self) -> LLMResponse:
        """The recorded LLM response."""
        return LLMResponse(
            text=self.text,
            model=self.model,
            prompt_tokens=self.prompt_tokens,
            completion_tokens=self.completion_tokens,
        )

    def to_dict(self) -> dict[str, object]:
        return {"type": "batch", **asdict(self)}

    @classmethod
    def from_dict(cls, entry: dict[str, object]) -> "BatchRecord":
        text = entry["text"]
        if not isinstance(text, str):
            raise ValueError(f"'text' must be a string, got {type(text).__name__}")
        return cls(
            batch_id=int(entry["batch_id"]),
            fingerprint=str(entry["fingerprint"]),
            text=text,
            model=str(entry["model"]),
            prompt_tokens=int(entry["prompt_tokens"]),
            completion_tokens=int(entry["completion_tokens"]),
        )


class CheckpointWriter:
    """Appends batch records to one run's checkpoint file.

    Every append is followed by a flush, so a kill between batches loses
    nothing and a kill mid-write tears at most the final line (which resume
    discards).  Appends are serialized by the caller; writers must be closed
    (the engine uses them in a ``try/finally``).
    """

    def __init__(self, handle: IO[str], store: "CheckpointStore") -> None:
        self._handle = handle
        self._store = store

    def append(self, record: BatchRecord) -> None:
        """Persist one completed batch."""
        self._store._before_append(record)
        self._handle.write(json.dumps(record.to_dict()) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the underlying file handle (idempotent)."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class CheckpointStore:
    """Filesystem store of per-run checkpoint files.

    Args:
        directory: directory holding the run files (created on demand).  One
            directory serves many runs: each run's file is named by its run
            key (dataset + configuration fingerprint).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path(self, run_key: str) -> Path:
        """Path of the checkpoint file of ``run_key``."""
        return self.directory / f"{run_key}.jsonl"

    def open(
        self, run_key: str, header: RunHeader
    ) -> tuple[dict[int, BatchRecord], CheckpointWriter]:
        """Open a run for resumable execution.

        Returns ``(completed, writer)``: the batch records already persisted
        for this exact run, and a writer positioned to append further
        batches.  A missing file, a header mismatch (other version, dataset,
        config, batch plan or model) or a corrupt first line starts the run
        from scratch; a torn tail keeps the valid prefix.

        The valid prefix is rewritten before appending — atomically, via a
        temp file and ``os.replace`` — so the on-disk file is always
        ``header + complete batch lines``, and a kill during the rewrite
        itself cannot lose batches that were already paid for.
        """
        path = self.path(run_key)
        completed = self.completed_batches(run_key, header)
        self.directory.mkdir(parents=True, exist_ok=True)
        scratch = path.with_suffix(".jsonl.tmp")
        with scratch.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header.to_dict()) + "\n")
            for record in completed.values():
                handle.write(json.dumps(record.to_dict()) + "\n")
            handle.flush()
        os.replace(scratch, path)
        return completed, CheckpointWriter(path.open("a", encoding="utf-8"), self)

    def completed_batches(
        self, run_key: str, header: RunHeader
    ) -> dict[int, BatchRecord]:
        """Read-only view of the valid persisted batches of one run."""
        try:
            lines = self.path(run_key).read_text(encoding="utf-8").splitlines()
        except OSError:
            return {}
        if not lines:
            return {}
        try:
            first = json.loads(lines[0])
        except json.JSONDecodeError:
            return {}
        if not isinstance(first, dict) or not header.matches(first):
            return {}
        completed: dict[int, BatchRecord] = {}
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                if not isinstance(entry, dict) or entry.get("type") != "batch":
                    raise ValueError("not a batch record")
                record = BatchRecord.from_dict(entry)
            except (KeyError, TypeError, ValueError, json.JSONDecodeError):
                # Torn tail from a kill mid-write: keep the valid prefix,
                # discard this and anything after it.
                break
            completed[record.batch_id] = record
        return completed

    def _before_append(self, record: BatchRecord) -> None:
        """Hook invoked before each batch append (fault-injection seam)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(directory={str(self.directory)!r})"
