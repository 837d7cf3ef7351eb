"""Execution backends for dispatching independent LLM calls.

Batch prompts are independent of each other, so a run's LLM calls can be
dispatched serially (the reference behaviour) or concurrently.  Backends are
deliberately tiny: a backend maps a function over a list of items and returns
the results *in input order*, which is what keeps concurrent runs
deterministic — the caller never observes completion order, only input order.

The concurrent backend uses threads rather than processes because LLM calls
are I/O-bound against a real API (and the simulated client releases the GIL
often enough that tests still exercise true interleaving).
"""

from __future__ import annotations

import contextvars
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: Default worker count of the concurrent backend.
DEFAULT_MAX_WORKERS = 4


class ExecutionBackend(ABC):
    """Maps a callable over items with a backend-specific execution strategy.

    Implementations must return results aligned with the input order,
    regardless of completion order.
    """

    #: Backend name used in configuration and reports.
    name: str = "backend"

    @abstractmethod
    def map(
        self, fn: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> list[ResultT]:
        """Apply ``fn`` to every item and return results in input order."""

    def map_settled(
        self, fn: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> list[tuple[ResultT | None, Exception | None]]:
        """Like :meth:`map`, but per-item failures settle instead of raising.

        Returns one pair per item, in input order: ``(fn(item), None)`` or
        ``(None, the exception it raised)``.  Unlike :meth:`map` — where the
        first exception propagates while sibling items may still be running —
        every item has fully finished (or failed) by the time this returns,
        which is what lets the run engine checkpoint whatever *did* complete
        before re-raising the first failure.
        """

        def settle(item: ItemT) -> tuple[ResultT | None, Exception | None]:
            try:
                return fn(item), None
            except Exception as error:  # noqa: BLE001 - settled by contract
                return None, error

        return self.map(settle, items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialExecutor(ExecutionBackend):
    """Run calls one after the other on the calling thread (the default)."""

    name = "serial"

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> list[ResultT]:
        return [fn(item) for item in items]


class ConcurrentExecutor(ExecutionBackend):
    """Dispatch calls concurrently on a thread pool.

    Args:
        max_workers: maximum number of in-flight calls.  By default the pool
            is created per :meth:`map` call so a backend instance carries no
            OS resources between runs and can be shared freely across
            sessions.
        persistent: keep one long-lived pool across :meth:`map` calls instead.
            A serving deployment flushing many small micro-batches avoids the
            per-flush pool setup/teardown; the owner must call
            :meth:`shutdown` (or use the backend as a context manager) when
            done.
    """

    name = "concurrent"

    def __init__(
        self, max_workers: int = DEFAULT_MAX_WORKERS, persistent: bool = False
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.persistent = persistent
        self._shut_down = False
        self._pool: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=max_workers) if persistent else None
        )

    def map(
        self, fn: Callable[[ItemT], ResultT], items: Iterable[ItemT]
    ) -> list[ResultT]:
        if self._shut_down:
            raise RuntimeError("cannot dispatch on a shut-down ConcurrentExecutor")
        materialised: Sequence[ItemT] = list(items)
        if len(materialised) <= 1:
            return [fn(item) for item in materialised]
        # Worker threads do not inherit the submitting thread's context vars
        # (the current span, the flush's deadline budget).  Each item runs in
        # its own copy of that context: one Context cannot be entered by two
        # threads at once.
        contexts = [contextvars.copy_context() for _ in materialised]

        def call(context: contextvars.Context, item: ItemT) -> ResultT:
            return context.run(fn, item)

        if self._pool is not None:
            # Executor.map preserves input order, which is the determinism
            # guarantee callers rely on.
            return list(self._pool.map(call, contexts, materialised))
        workers = min(self.max_workers, len(materialised))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(call, contexts, materialised))

    def shutdown(self) -> None:
        """Release the pool; further :meth:`map` calls raise ``RuntimeError``."""
        self._shut_down = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ConcurrentExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcurrentExecutor(max_workers={self.max_workers}, "
            f"persistent={self.persistent})"
        )


def create_executor(jobs: int = 1) -> ExecutionBackend:
    """Create a backend for ``jobs`` parallel calls: serial for one job,
    a :class:`ConcurrentExecutor` with ``jobs`` workers otherwise."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        return SerialExecutor()
    return ConcurrentExecutor(max_workers=jobs)
