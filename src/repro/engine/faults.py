"""Deterministic fault injection for exercising crash/resume paths.

Resume correctness must be *tested*, not hoped for, and that requires crashing
the engine at an exactly chosen point.  The wrappers here fail deterministically
at the k-th operation:

* :class:`CrashingLLM` raises :class:`InjectedFault` *instead of making* its
  ``fail_at_call``-th LLM call — the call is never issued, never charged, and
  never recorded, exactly like a process killed on the way to the API.  Calls
  before and after the crash point pass through untouched, so a resume with
  the same wrapper completes normally and the "zero repeated calls" property
  can be asserted over the wrapper's cumulative successful-call count.
* :class:`CrashingStore` raises instead of performing its
  ``fail_at_append``-th checkpoint append — the harsher crash point, because
  by then the LLM call *has* been paid for but not yet persisted.  Resume
  must re-execute (and re-pay) at most that one torn batch.

Both wrappers are thread-safe, so they also exercise concurrent dispatch;
with more than one call in flight, *which* batch hits the crash point depends
on scheduling, but the *count* of successful operations before the fault is
always exact.
"""

from __future__ import annotations

import threading

from repro.engine.checkpoint import BatchRecord, CheckpointStore
from repro.llm.base import LLMClient


class InjectedFault(RuntimeError):
    """The deliberate failure raised by the crash wrappers."""


class CrashingLLM(LLMClient):
    """An LLM client that refuses to make its ``fail_at_call``-th call.

    Args:
        inner: the real client answering the prompts.
        fail_at_call: 1-based ordinal of the completion attempt that raises
            (``0`` disables the fault).  Only that one attempt fails; the
            ordinal keeps counting across the fault, so attempt ``k`` raises
            and attempts ``k+1, k+2, ...`` succeed — a resume can share the
            wrapper with the crashed run.

    Token counting goes through the *inner* client's tokenizer, so successful
    calls are priced identically to unwrapped ones.
    """

    def __init__(self, inner: LLMClient, fail_at_call: int) -> None:
        if fail_at_call < 0:
            raise ValueError(f"fail_at_call must be >= 0, got {fail_at_call}")
        super().__init__(model_name=inner.model_name, tokenizer=inner.tokenizer)
        self.inner = inner
        self.fail_at_call = fail_at_call
        self._lock = threading.Lock()
        self._attempts = 0
        self._faults = 0

    @property
    def attempts(self) -> int:
        """Completion attempts so far (successful or faulted)."""
        return self._attempts

    @property
    def successful_calls(self) -> int:
        """Completions that actually reached the inner client."""
        return self._attempts - self._faults

    def _generate(self, prompt_text: str) -> str:
        with self._lock:
            self._attempts += 1
            if self._attempts == self.fail_at_call:
                self._faults += 1
                raise InjectedFault(
                    f"injected LLM fault at call {self.fail_at_call}"
                )
        return self.inner._generate(prompt_text)


class CrashingStore(CheckpointStore):
    """A checkpoint store that refuses its ``fail_at_append``-th batch append.

    Args:
        directory: as :class:`CheckpointStore`.
        fail_at_append: 1-based ordinal of the append that raises (``0``
            disables the fault).  Like :class:`CrashingLLM`, exactly one
            append fails; the ordinal keeps counting across runs.
    """

    def __init__(self, directory, fail_at_append: int = 0) -> None:
        super().__init__(directory)
        if fail_at_append < 0:
            raise ValueError(f"fail_at_append must be >= 0, got {fail_at_append}")
        self.fail_at_append = fail_at_append
        self._lock = threading.Lock()
        self.appends = 0

    def _before_append(self, record: BatchRecord) -> None:
        with self._lock:
            self.appends += 1
            if self.appends == self.fail_at_append:
                raise InjectedFault(
                    f"injected checkpoint fault at append {self.fail_at_append}"
                )
