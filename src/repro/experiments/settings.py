"""Shared experiment settings.

The paper runs every experiment on the full Table II datasets against real LLM
APIs.  Offline, the same experiments run against the simulated LLM; the only
practical difference is runtime, so the settings expose a ``scale`` knob
(dataset size multiplier) and a ``max_questions`` cap.  Defaults are sized so
the whole benchmark suite finishes in minutes on a laptop; setting
``scale=1.0`` and ``max_questions=None`` reproduces the paper-scale runs.

Environment overrides (picked up by :meth:`ExperimentSettings.from_env`):

* ``REPRO_EXP_SCALE`` — dataset scale multiplier (default 0.05).
* ``REPRO_EXP_MAX_QUESTIONS`` — per-dataset cap on evaluated test questions.
* ``REPRO_EXP_DATASETS`` — comma-separated dataset codes.
* ``REPRO_EXP_JOBS`` — concurrent LLM calls per run (default 1 = serial).
* ``REPRO_EXP_CHECKPOINT_DIR`` — checkpoint directory of framework runs;
  re-running after a kill resumes with zero repeated LLM calls.
* ``REPRO_EXP_ENGINE`` — LLM engine backend (default ``simulated``; real
  backends like ``openai`` require the provider's API key in the
  environment — see the README's "Real LLM backends" section).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.data.registry import available_datasets, load_dataset
from repro.data.schema import Dataset
from repro.llm.executors import ExecutionBackend, create_executor

#: Default dataset scale used by tests and benchmarks (5% of Table II sizes).
DEFAULT_SCALE = 0.05
#: Default cap on the number of evaluated questions per dataset.
DEFAULT_MAX_QUESTIONS = 160
#: Minimum number of candidate pairs per dataset after scaling (small datasets
#: such as Beer / IA / FZ are kept at or near full size; only the large ones
#: are scaled down).
DEFAULT_MIN_PAIRS = 400


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiment runners.

    Attributes:
        datasets: dataset codes to evaluate (default: all eight).
        scale: dataset size multiplier relative to Table II.
        max_questions: cap on evaluated test questions per dataset (``None`` =
            whole test split).
        min_pairs: per-dataset floor on the number of candidate pairs after
            scaling — keeps the small benchmarks (Beer, IA, FZ) at realistic
            sizes while the large ones are scaled down.
        seeds: seeds used where the paper reports mean +/- std over runs.
        data_seed: seed of the synthetic dataset generator.
        model: default underlying LLM.
        batch_size: questions per batch.
        num_demonstrations: per-batch demonstration budget.
        jobs: concurrent LLM calls per run (1 = serial dispatch).  Results are
            identical regardless of this knob — it only changes wall-clock.
        checkpoint_dir: checkpoint directory of framework runs (``None``
            disables persistence).  Each run's file is named by dataset +
            configuration, so one directory serves the whole report —
            re-running after a kill resumes with zero repeated LLM calls.
        engine: LLM engine backend (``"simulated"`` by default; one of
            :func:`repro.engines.available_engines`).
    """

    datasets: tuple[str, ...] = field(default_factory=available_datasets)
    scale: float = DEFAULT_SCALE
    max_questions: int | None = DEFAULT_MAX_QUESTIONS
    min_pairs: int = DEFAULT_MIN_PAIRS
    seeds: tuple[int, ...] = (1, 2, 3)
    data_seed: int = 7
    model: str = "gpt-3.5-03"
    batch_size: int = 8
    num_demonstrations: int = 8
    jobs: int = 1
    checkpoint_dir: str | None = None
    engine: str = "simulated"

    @classmethod
    def from_env(cls) -> "ExperimentSettings":
        """Build settings from environment variables (fall back to defaults)."""
        scale = float(os.environ.get("REPRO_EXP_SCALE", DEFAULT_SCALE))
        max_questions_raw = os.environ.get("REPRO_EXP_MAX_QUESTIONS", str(DEFAULT_MAX_QUESTIONS))
        max_questions = None if max_questions_raw.lower() in ("none", "0") else int(max_questions_raw)
        datasets_raw = os.environ.get("REPRO_EXP_DATASETS", "")
        datasets = (
            tuple(code.strip().lower() for code in datasets_raw.split(",") if code.strip())
            or available_datasets()
        )
        jobs = int(os.environ.get("REPRO_EXP_JOBS", "1"))
        checkpoint_dir = os.environ.get("REPRO_EXP_CHECKPOINT_DIR") or None
        engine = os.environ.get("REPRO_EXP_ENGINE", "simulated").strip().lower()
        return cls(
            datasets=datasets,
            scale=scale,
            max_questions=max_questions,
            jobs=jobs,
            checkpoint_dir=checkpoint_dir,
            engine=engine,
        )

    def executor(self) -> ExecutionBackend:
        """Execution backend for LLM dispatch (serial unless ``jobs`` > 1)."""
        return create_executor(self.jobs)

    def run_kwargs(self) -> dict[str, object]:
        """Keyword arguments for ``BatchER.run`` (the checkpoint directory)."""
        return {"checkpoint_dir": self.checkpoint_dir}

    def effective_scale(self, name: str) -> float:
        """Scale actually used for ``name``: the configured scale, floored so the
        dataset keeps at least ``min_pairs`` candidate pairs (capped at 1.0)."""
        from repro.data.specs import get_spec

        spec = get_spec(name)
        floor = min(1.0, self.min_pairs / spec.num_pairs)
        return max(self.scale, floor)

    def load(self, name: str) -> Dataset:
        """Load one of the configured datasets at the configured scale."""
        return load_dataset(name, seed=self.data_seed, scale=self.effective_scale(name))

    def load_all(self) -> list[Dataset]:
        """Load every configured dataset."""
        return [self.load(name) for name in self.datasets]
