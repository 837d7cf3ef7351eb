"""Checkpointed runs: checkpoint, crash, resume — zero re-paid LLM calls.

Runs one fixed-seed benchmark three ways and shows that the results are
byte-identical while the run is persisted, killed and resumed:

1. a plain ``BatchER.run`` (the reference result);
2. the same run with a ``checkpoint_dir`` on a 4-worker executor — every
   answered batch (one LLM call) is appended to the run's checkpoint file;
3. the checkpointed run killed mid-flight (a deterministic injected fault at
   the k-th LLM call) and resumed by calling ``run`` again with the same
   arguments — completing with zero repeated LLM calls.

Run with:  python examples/checkpointed_run.py
"""

import tempfile
from pathlib import Path

from repro import BatchER, BatcherConfig, ConcurrentExecutor, load_dataset
from repro.engine import CrashingLLM, InjectedFault
from repro.engines.registry import create_engine


def main() -> None:
    dataset = load_dataset("beer", seed=7)
    config = BatcherConfig(batching="diverse", selection="covering", seed=1)

    # 1. The reference: an unpersisted run.
    reference = BatchER(config).run(dataset)
    total_calls = reference.cost.num_llm_calls
    print(f"reference: f1={reference.metrics.f1:.2f}, {total_calls} LLM calls")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # 2. Checkpointed: one extra argument.  The executor bounds how many
        #    LLM calls are in flight at once.
        framework = BatchER(config, executor=ConcurrentExecutor(4))
        checkpointed = framework.run(dataset, checkpoint_dir=checkpoint_dir)
        (run_file,) = Path(checkpoint_dir).iterdir()
        lines = run_file.read_text().splitlines()
        print(f"checkpointed: byte-identical result: {checkpointed == reference}; "
              f"{run_file.name} holds a header and {len(lines) - 1} batch records")

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        # 3. Kill the run at LLM call k, then resume from the checkpoint.
        crash_at = total_calls // 2
        llm = CrashingLLM(
            create_engine(
                config.engine,
                model=config.model,
                seed=config.seed,
                temperature=config.temperature,
            ),
            fail_at_call=crash_at,
        )
        engine = BatchER(config, llm=llm).build_engine(checkpoint_dir=checkpoint_dir)
        try:
            engine.run(dataset)
        except InjectedFault:
            print(f"killed mid-flight at call {crash_at}; "
                  f"{llm.successful_calls} calls already checkpointed")

        resumed = engine.run(dataset)  # same arguments = resume
        report = engine.last_report
        print(f"resumed: byte-identical result: {resumed == reference}")
        print(f"resumed: {report.batches_resumed} batches replayed from the checkpoint, "
              f"{report.batches_executed} executed live")
        print(f"total LLM calls across crash + resume: {llm.successful_calls} "
              f"(reference run: {total_calls}) -> zero repeated calls")


if __name__ == "__main__":
    main()
