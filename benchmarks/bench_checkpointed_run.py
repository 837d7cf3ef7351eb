"""Benchmark: checkpointed runs of the run engine vs. the stock pipeline.

Three arms over one fixed-seed benchmark run:

1. **oracle** — the stock ``Pipeline.default`` (its own ``Inference``
   stage), no run engine involved;
2. **checkpointed** — ``BatchER.run`` with a checkpoint directory on a
   :class:`~repro.llm.executors.ConcurrentExecutor`, every answered batch
   appended to the run's checkpoint file.  The benchmark *asserts* the
   ``RunResult`` is byte-identical to the oracle;
3. **crash + resume** — the checkpointed run killed mid-flight with a
   deterministic :class:`~repro.engine.faults.CrashingLLM`, then resumed from
   its checkpoint.  The benchmark *asserts* the resumed result is again
   byte-identical and that the crash + resume together made exactly as many
   LLM calls as the oracle — zero repeated (re-paid) calls.

The run writes ``BENCH_engine.json`` in the repository root with the
headline numbers (tracked in git at full size).

Standalone (the CI smoke invocation uses ``--small``)::

    PYTHONPATH=src python benchmarks/bench_checkpointed_run.py
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset
from repro.engine import CrashingLLM, InjectedFault
from repro.engines.registry import create_engine
from repro.llm.executors import ConcurrentExecutor
from repro.pipeline import Pipeline, PipelineContext

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _assert_identical(result, oracle, arm: str) -> None:
    if result != oracle or repr(result) != repr(oracle):
        raise AssertionError(f"{arm}: RunResult diverges from the stock-pipeline oracle")


def run_engine_bench(
    dataset_name: str,
    seed: int,
    workers: int,
    max_questions: int | None,
    data_seed: int,
    scale: float,
) -> dict[str, object]:
    dataset = load_dataset(dataset_name, seed=data_seed, scale=scale)
    config = BatcherConfig(seed=seed, max_questions=max_questions)

    oracle, oracle_seconds = _timed(
        lambda: Pipeline.default().run(PipelineContext.from_dataset(dataset, config)).result
    )
    total_calls = oracle.cost.num_llm_calls
    print(
        f"oracle        {oracle_seconds:6.2f}s  {total_calls} LLM calls  "
        f"f1={oracle.metrics.f1:.2f}",
        file=sys.stderr,
    )

    with tempfile.TemporaryDirectory() as tmp:
        with ConcurrentExecutor(workers) as executor:
            engine = BatchER(config, executor=executor).build_engine(checkpoint_dir=tmp)
            checkpointed, checkpointed_seconds = _timed(lambda: engine.run(dataset))
        _assert_identical(checkpointed, oracle, f"checkpointed x{workers}")
        checkpointed_report = engine.last_report.to_dict()
    print(
        f"checkpointed  {checkpointed_seconds:6.2f}s  workers={workers}",
        file=sys.stderr,
    )

    # Crash mid-flight, then resume from the checkpoint.
    crash_at = max(1, total_calls // 2)
    with tempfile.TemporaryDirectory() as tmp:
        llm = CrashingLLM(
            create_engine(
                config.engine,
                model=config.model,
                seed=config.seed,
                temperature=config.temperature,
            ),
            fail_at_call=crash_at,
        )
        engine = BatchER(config, llm=llm).build_engine(checkpoint_dir=tmp)
        crashed = False
        try:
            engine.run(dataset)
        except InjectedFault:
            crashed = True
        if not crashed:
            raise AssertionError("the injected fault did not fire")
        calls_before_resume = llm.successful_calls
        resumed, resume_seconds = _timed(lambda: engine.run(dataset))
        _assert_identical(resumed, oracle, "crash+resume")
        repeated_calls = llm.successful_calls - total_calls
        if repeated_calls != 0:
            raise AssertionError(
                f"resume repeated {repeated_calls} LLM calls; the checkpoint "
                "contract is zero"
            )
        resume_report = engine.last_report.to_dict()
    print(
        f"crash@{crash_at} + resume  {resume_seconds:6.2f}s  "
        f"checkpointed={calls_before_resume}  repeated=0",
        file=sys.stderr,
    )

    return {
        "workload": {
            "dataset": dataset_name,
            "data_seed": data_seed,
            "scale": scale,
            "seed": seed,
            "max_questions": max_questions,
            "questions": oracle.num_questions,
            "batches": oracle.num_batches,
        },
        "oracle": {
            "seconds": round(oracle_seconds, 4),
            "llm_calls": total_calls,
            "f1": round(oracle.metrics.f1, 2),
        },
        "checkpointed": {
            "seconds": round(checkpointed_seconds, 4),
            "workers": workers,
            "report": checkpointed_report,
            "identical_to_oracle": True,
        },
        "crash_resume": {
            "crash_at_call": crash_at,
            "calls_checkpointed_before_resume": calls_before_resume,
            "resume_seconds": round(resume_seconds, 4),
            "repeated_calls_after_resume": repeated_calls,
            "report": resume_report,
            "identical_to_oracle": True,
        },
        "headline": {
            "workers": workers,
            "llm_calls": total_calls,
            "identical": True,
            "repeated_calls_after_resume": repeated_calls,
            "oracle_seconds": round(oracle_seconds, 4),
            "checkpointed_seconds": round(checkpointed_seconds, 4),
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dataset", default="beer")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--data-seed", type=int, default=7)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--workers", type=int, default=4, help="in-flight LLM calls of the checkpointed arm"
    )
    parser.add_argument(
        "--max-questions", type=int, default=None, help="cap on evaluated questions"
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="tiny run for the CI smoke invocation (the identity and "
        "zero-repeat oracles still assert)",
    )
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args()
    max_questions = 32 if args.small and args.max_questions is None else args.max_questions
    report = run_engine_bench(
        dataset_name=args.dataset,
        seed=args.seed,
        workers=args.workers,
        max_questions=max_questions,
        data_seed=args.data_seed,
        scale=args.scale,
    )
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["headline"], indent=2))


if __name__ == "__main__":
    main()
