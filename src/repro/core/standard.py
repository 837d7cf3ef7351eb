"""Standard (one-question-per-call) prompting pipeline.

Used as the comparison point of Exp-1 (Table III, Figure 6) and as the engine
behind the ManualPrompt baseline (Exp-4).  The pipeline mirrors
:class:`repro.core.batcher.BatchER` but sends one prompt per question, each
carrying the task description and the full demonstration set — which is exactly
why its API cost is several times higher.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.config import BatcherConfig
from repro.core.result import RunResult
from repro.cost.tracker import CostTracker
from repro.data.schema import Dataset, EntityPair, MatchLabel
from repro.engines.registry import create_engine
from repro.evaluation.metrics import evaluate_predictions
from repro.llm.base import LLMClient
from repro.prompting.parser import parse_standard_answer
from repro.prompting.standard import StandardPromptBuilder


class StandardPromptingER:
    """Standard prompting for ER with a fixed demonstration set.

    Args:
        config: reuses :class:`BatcherConfig` for the shared knobs (model,
            number of demonstrations, seed, question cap); batching- and
            selection-specific fields are ignored.
        demonstrations: explicit demonstration pairs (must be labeled).  When
            omitted, ``num_demonstrations`` pairs are sampled at random from the
            train split, as in the paper's Exp-1 protocol.
        method_name: label recorded on results (e.g. ``"manual-prompt"``).
        llm: optional pre-built LLM client.
    """

    def __init__(
        self,
        config: BatcherConfig | None = None,
        demonstrations: Sequence[EntityPair] | None = None,
        method_name: str = "standard-prompting",
        llm: LLMClient | None = None,
    ) -> None:
        self.config = config or BatcherConfig()
        self.demonstrations = list(demonstrations) if demonstrations is not None else None
        self.method_name = method_name
        self._llm = llm

    def _sample_demonstrations(self, dataset: Dataset) -> list[EntityPair]:
        pool = list(dataset.splits.train)
        if not pool:
            raise ValueError(f"dataset {dataset.name!r} has an empty train split")
        rng = random.Random(self.config.seed)
        count = min(self.config.num_demonstrations, len(pool))
        chosen = rng.sample(pool, count)
        # Keep the demonstration set label-balanced when possible, matching the
        # behaviour of the fixed selector.
        if len({pair.label for pair in chosen}) == 1 and len(pool) > count:
            for pair in rng.sample(pool, len(pool)):
                if pair.label != chosen[-1].label:
                    chosen[-1] = pair
                    break
        return chosen

    def _build_llm(self) -> LLMClient:
        if self._llm is not None:
            self._llm.reset_usage()
            return self._llm
        return create_engine(
            self.config.engine,
            model=self.config.model,
            seed=self.config.seed,
            temperature=self.config.temperature,
        )

    def run(self, dataset: Dataset) -> RunResult:
        """Run standard prompting on the dataset's test split."""
        questions = list(dataset.splits.test)
        if self.config.max_questions is not None:
            questions = questions[: self.config.max_questions]
        if not questions:
            raise ValueError(f"dataset {dataset.name!r} has an empty test split")

        demonstrations = (
            list(self.demonstrations)
            if self.demonstrations is not None
            else self._sample_demonstrations(dataset)
        )
        unlabeled = [pair.pair_id for pair in demonstrations if not pair.is_labeled]
        if unlabeled:
            raise ValueError(f"demonstrations must be labeled; missing labels for {unlabeled}")

        llm = self._build_llm()
        cost = CostTracker(self.config.model)
        cost.attach_usage(llm.usage)
        cost.record_labeled_pairs(len(demonstrations))

        builder = StandardPromptBuilder(attributes=dataset.attributes)
        predictions: list[MatchLabel] = []
        num_unanswered = 0
        for question in questions:
            prompt = builder.build(question, demonstrations)
            response = llm.complete(prompt.text)
            parsed = parse_standard_answer(response.text)
            num_unanswered += parsed.num_unanswered
            predictions.append(parsed.resolved()[0])

        gold = [question.label for question in questions]
        metrics = evaluate_predictions(gold, predictions)
        return RunResult(
            dataset=dataset.name,
            method=self.method_name,
            metrics=metrics,
            cost=cost.breakdown(),
            num_questions=len(questions),
            num_batches=len(questions),
            num_unanswered=num_unanswered,
            predictions=tuple(predictions),
            config=self.config.to_dict(),
        )
