"""Streaming Resolver session: serve ad-hoc entity-pair streams.

``BatchER.run`` is the benchmarking entry point — it needs a full
:class:`~repro.data.schema.Dataset` with gold test labels.  A :class:`Resolver`
is the serving-style counterpart: a long-lived session holding a persistent
labeled demonstration pool and an LLM client, resolving arbitrary
:class:`~repro.data.schema.EntityPair` streams on demand.

Across calls the session accumulates token usage and pays the labeling cost of
each pool demonstration at most once — the covering selector's reuse of
already-labeled demonstrations is exactly what makes a long-lived session
cheaper than independent runs.

>>> resolver = Resolver.from_dataset(load_dataset("beer"))   # doctest: +SKIP
>>> for resolution in resolver.resolve_iter(incoming_pairs): # doctest: +SKIP
...     route(resolution.pair_id, resolution.label)
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.config import BatcherConfig
from repro.cost.tracker import CostBreakdown, CostTracker
from repro.data.schema import Dataset, EntityPair, MatchLabel
from repro.features.engine import FeatureStore, create_feature_store
from repro.llm.base import LLMClient, UsageTracker
from repro.llm.executors import ExecutionBackend
from repro.llm.registry import create_llm
from repro.observability.tracing import NOOP_TRACER, Tracer
from repro.pipeline.context import PipelineContext
from repro.pipeline.pipeline import Pipeline, StageHook


@dataclass(frozen=True)
class Resolution:
    """The resolved outcome for one entity pair.

    Attributes:
        pair: the input pair (as supplied, labels untouched).
        label: the predicted matching label.
        answered: whether the LLM actually answered this question (``False``
            means the label is the fallback, not a model judgement).
    """

    pair: EntityPair
    label: MatchLabel
    answered: bool

    @property
    def pair_id(self) -> str:
        """Identifier of the resolved pair."""
        return self.pair.pair_id

    @property
    def is_match(self) -> bool:
        """Whether the pair was predicted to be a match."""
        return self.label is MatchLabel.MATCH

    def to_dict(self) -> dict[str, object]:
        """Return a plain-dict snapshot (JSON-serializable, for the HTTP layer)."""
        return {
            "pair_id": self.pair_id,
            "label": int(self.label),
            "label_name": self.label.name,
            "is_match": self.is_match,
            "answered": self.answered,
        }


class Resolver:
    """A long-lived entity-resolution session over a persistent pool.

    Args:
        config: design-space point used for featurization, batching, selection
            and prompting (``max_questions`` is ignored — streams decide their
            own size).
        demonstrations: initial labeled demonstration pool.
        attributes: shared attribute schema; inferred from the first
            demonstration (or first resolved pair) when omitted.
        llm: optional pre-built LLM client; by default one is created from the
            config.  Usage accumulates across the whole session.
        executor: optional execution backend for concurrent prompt dispatch.
        hooks: pipeline telemetry hooks applied to every resolve call.
        tracer: optional span producer; every :meth:`resolve` call opens a
            ``resolver:resolve`` root span with per-stage children.
    """

    def __init__(
        self,
        config: BatcherConfig | None = None,
        demonstrations: Sequence[EntityPair] = (),
        attributes: tuple[str, ...] | None = None,
        llm: LLMClient | None = None,
        executor: ExecutionBackend | None = None,
        hooks: Iterable[StageHook] = (),
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config or BatcherConfig()
        self.attributes = attributes
        self.tracer = tracer or NOOP_TRACER
        self._llm = llm or create_llm(
            self.config.model,
            seed=self.config.seed,
            temperature=self.config.temperature,
            engine=self.config.engine,
        )
        self._pipeline = Pipeline.default(executor=executor, evaluate=False, hooks=hooks)
        self._pool: list[EntityPair] = []
        self._pool_features_cache: np.ndarray | None = None
        self._feature_store: FeatureStore | None = None
        self._feature_store_lock = threading.Lock()
        self._labeled_indices: set[int] = set()
        self._cost = CostTracker(self.config.model)
        self._cost.attach_usage(self._llm.usage)
        self._num_resolved = 0
        if demonstrations:
            self.add_demonstrations(demonstrations)

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, config: BatcherConfig | None = None, **kwargs
    ) -> "Resolver":
        """Open a session whose pool is ``dataset``'s train split."""
        return cls(
            config=config,
            demonstrations=list(dataset.splits.train),
            attributes=dataset.attributes,
            **kwargs,
        )

    # -- pool management -----------------------------------------------------

    def add_demonstrations(self, pairs: Iterable[EntityPair]) -> None:
        """Grow the persistent demonstration pool with labeled pairs.

        Raises:
            ValueError: if any pair carries no gold label.
        """
        pairs = list(pairs)
        unlabeled = [pair.pair_id for pair in pairs if not pair.is_labeled]
        if unlabeled:
            raise ValueError(
                f"demonstrations must be labeled; missing labels for {unlabeled[:5]}"
            )
        if self.attributes is None and pairs:
            self.attributes = tuple(pairs[0].left.values.keys())
        self._pool.extend(pairs)
        self._pool_features_cache = None

    @property
    def pool_size(self) -> int:
        """Current size of the demonstration pool."""
        return len(self._pool)

    def warm(self) -> int:
        """Eagerly featurize the demonstration pool and return its size.

        Featurization of a large pool is the dominant fixed cost of the first
        resolve call; a serving deployment calls :meth:`warm` at startup so the
        first live request does not pay it.  Idempotent: re-warming an
        already-featurized pool is free.

        Raises:
            ValueError: if the session has no demonstrations yet.
        """
        if not self._pool:
            raise ValueError(
                "cannot warm a resolver session without demonstrations; call "
                "add_demonstrations() (or build it with Resolver.from_dataset)"
            )
        self._pool_features()
        return self.pool_size

    @property
    def planner(self):
        """The session's batch-planning policy, or ``None`` before the store
        exists.

        A :class:`~repro.clustering.neighbors.NeighborPlanner` owned by the
        session's feature store: every resolve call plans over sparse
        epsilon-neighbor graphs with bounded memory.  Exposed so serving
        deployments can inspect the routing counters next to :meth:`cost`
        and :attr:`usage`.
        """
        store = self.feature_store
        return store.planner if store is not None else None

    @property
    def feature_store(self) -> FeatureStore | None:
        """The session's columnar feature engine (``None`` until the attribute
        schema is known, i.e. before the first demonstrations arrive).

        Creation is locked: the property is read concurrently (e.g. a stats
        thread alongside the service's flush thread), and a check-then-set
        race must never replace a populated store with an empty one.
        """
        if self._feature_store is None and self.attributes is not None:
            with self._feature_store_lock:
                if self._feature_store is None:
                    store = create_feature_store(
                        self.config.feature_extractor, self.attributes
                    )
                    # Bind the session tracer so graph builds and radius
                    # resolutions show up as planner:* spans in traces.
                    store.planner.tracer = self.tracer
                    self._feature_store = store
        return self._feature_store

    def _pool_features(self) -> np.ndarray:
        """Pool feature matrix, computed once per pool version.

        A long-lived session resolves many small chunks against the same
        (large) pool; the matrix is cached per pool version, and the vectors
        behind it live in the session's content-addressed feature store — so
        growing the pool re-featurizes only the new demonstrations.
        """
        if self._pool_features_cache is None:
            store = self.feature_store
            assert store is not None  # self._pool is non-empty here
            self._pool_features_cache = store.extract_matrix(self._pool)
        return self._pool_features_cache

    # -- session accounting --------------------------------------------------

    @property
    def llm(self) -> LLMClient:
        """The session's LLM client (an engine when built via the registry)."""
        return self._llm

    @property
    def usage(self) -> UsageTracker:
        """Cumulative LLM token usage of this session."""
        return self._llm.usage

    @property
    def num_resolved(self) -> int:
        """Total number of pairs resolved by this session."""
        return self._num_resolved

    @property
    def num_labeled(self) -> int:
        """Distinct pool demonstrations labeled (paid for) so far."""
        return len(self._labeled_indices)

    def cost(self) -> CostBreakdown:
        """Cumulative monetary cost (API + labeling) of this session."""
        return self._cost.breakdown()

    # -- resolution ----------------------------------------------------------

    def resolve(self, pairs: Iterable[EntityPair]) -> list[Resolution]:
        """Resolve a batch of pairs and return resolutions in input order.

        Raises:
            ValueError: if the session has no demonstrations yet.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        if not self._pool:
            raise ValueError(
                "resolver session has no demonstrations; call "
                "add_demonstrations() (or build it with Resolver.from_dataset)"
            )
        context = PipelineContext.from_pairs(
            questions=pairs,
            pool=self._pool,
            attributes=self.attributes,
            config=self.config,
            llm=self._llm,
            cost=self._cost,
            method=f"resolver/{self.config.batching}+{self.config.selection}",
            prelabeled_pool_indices=frozenset(self._labeled_indices),
            reset_usage=False,
        )
        context.feature_store = self.feature_store
        context.pool_features = self._pool_features()
        context.tracer = self.tracer
        try:
            with self.tracer.span("resolver:resolve") as scope:
                if self.tracer.enabled:
                    scope.set_attribute("pairs", len(pairs))
                self._pipeline.run(context)
        finally:
            # Demonstrations are charged to the session tracker the moment
            # SelectDemonstrations runs; remember them even when a later stage
            # fails, so a retry never pays for the same demonstration twice.
            if context.selection is not None:
                self._labeled_indices.update(context.selection.labeled_pool_indices)
        self._num_resolved += len(pairs)
        predictions = context.predictions or ()
        answers = context.answers or ()
        return [
            Resolution(pair=pair, label=label, answered=answer is not None)
            for pair, label, answer in zip(pairs, predictions, answers)
        ]

    def resolve_iter(
        self, pairs: Iterable[EntityPair], chunk_size: int | None = None
    ) -> Iterator[Resolution]:
        """Resolve a (possibly unbounded) pair stream incrementally.

        Pairs are consumed lazily and flushed through the pipeline in chunks,
        so resolutions for early pairs are yielded before the stream is
        exhausted — the generator never materialises the full stream.

        The stream is consumed exactly once, so single-pass iterators
        (generators, file readers, network streams) are safe inputs; each
        chunk is materialised internally before it is resolved.  Note this is
        itself a generator: nothing is consumed (and nothing resolved) until
        the returned iterator is advanced.

        Args:
            chunk_size: pairs per flush; defaults to ``batch_size`` squared so
                each flush still gives the batching strategy room to group
                similar questions while keeping latency bounded.
        """
        if chunk_size is None:
            chunk_size = self.config.batch_size * self.config.batch_size
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        chunk: list[EntityPair] = []
        for pair in pairs:
            chunk.append(pair)
            if len(chunk) >= chunk_size:
                yield from self.resolve(chunk)
                chunk = []
        if chunk:
            yield from self.resolve(chunk)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Resolver(model={self.config.model!r}, pool_size={self.pool_size}, "
            f"num_resolved={self.num_resolved})"
        )
