"""Cost tracking across a run: API cost + labeling cost."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cost.labeling_cost import labeling_cost
from repro.llm.base import UsageTracker
from repro.llm.pricing import get_pricing


@dataclass(frozen=True)
class CostBreakdown:
    """Monetary cost of one run, split by component (all in dollars)."""

    api_cost: float
    labeling_cost: float
    prompt_tokens: int = 0
    completion_tokens: int = 0
    num_llm_calls: int = 0
    num_labeled_pairs: int = 0

    @property
    def total_cost(self) -> float:
        """API cost plus labeling cost."""
        return self.api_cost + self.labeling_cost

    def to_dict(self) -> dict[str, float | int]:
        """Return a plain-dict snapshot (JSON-serializable, for reports/HTTP)."""
        return {
            "api_cost": self.api_cost,
            "labeling_cost": self.labeling_cost,
            "total_cost": self.total_cost,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "num_llm_calls": self.num_llm_calls,
            "num_labeled_pairs": self.num_labeled_pairs,
        }

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        """Component-wise sum of two breakdowns (aggregate costs across runs)."""
        if not isinstance(other, CostBreakdown):
            return NotImplemented
        return CostBreakdown(
            api_cost=self.api_cost + other.api_cost,
            labeling_cost=self.labeling_cost + other.labeling_cost,
            prompt_tokens=self.prompt_tokens + other.prompt_tokens,
            completion_tokens=self.completion_tokens + other.completion_tokens,
            num_llm_calls=self.num_llm_calls + other.num_llm_calls,
            num_labeled_pairs=self.num_labeled_pairs + other.num_labeled_pairs,
        )

    def __radd__(self, other: object) -> "CostBreakdown":
        """Support ``sum(breakdowns)`` (whose implicit start value is ``0``)."""
        if other == 0:
            return self
        return NotImplemented

    @classmethod
    def zero(cls) -> "CostBreakdown":
        """The additive identity (an all-zero breakdown)."""
        return cls(api_cost=0.0, labeling_cost=0.0)


class CostTracker:
    """Accumulates the monetary cost of one framework run.

    Args:
        model: LLM model name, used to price token usage.
    """

    def __init__(self, model: str) -> None:
        self.model = model
        self._pricing = get_pricing(model)
        self._num_labeled_pairs = 0
        self._usage: UsageTracker | None = None

    def record_labeled_pairs(self, count: int) -> None:
        """Record that ``count`` additional demonstrations were manually labeled."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._num_labeled_pairs += count

    def attach_usage(self, usage: UsageTracker) -> None:
        """Attach the LLM client's usage tracker (read at report time)."""
        self._usage = usage

    def breakdown(self) -> CostBreakdown:
        """Return the current cost breakdown."""
        usage = self._usage or UsageTracker()
        return self.price(
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
            num_llm_calls=usage.num_calls,
            num_labeled_pairs=self._num_labeled_pairs,
        )

    def price(
        self,
        prompt_tokens: int = 0,
        completion_tokens: int = 0,
        num_llm_calls: int = 0,
        num_labeled_pairs: int = 0,
    ) -> CostBreakdown:
        """Price the given usage at this tracker's rates (records nothing)."""
        return CostBreakdown(
            api_cost=self._pricing.cost(prompt_tokens, completion_tokens),
            labeling_cost=labeling_cost(num_labeled_pairs),
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            num_llm_calls=num_llm_calls,
            num_labeled_pairs=num_labeled_pairs,
        )
