"""Tests for the checkpointable run engine behind ``BatchER.run``.

Covers the pillars of :mod:`repro.engine`:

* **equivalence** — every run (serial or concurrent dispatch, with or
  without a checkpoint store) produces a ``RunResult`` byte-identical to the
  stock ``Pipeline.default`` oracle;
* **crash safety** — for *every* possible crash point, a killed run resumed
  from its checkpoint finishes with zero repeated LLM calls (an LLM crash)
  or exactly one re-paid batch (a checkpoint-write crash), asserted with the
  deterministic fault-injection wrappers from :mod:`repro.engine.faults`;
* **dispatch** — the executor bounds in-flight calls on every run, once a
  failed call has been recorded no further call starts, and a failed run
  checkpoints exactly the batches that were answered;
* **telemetry** — hooks and spans see the seven stock stages exactly once.
"""

import dataclasses
import json
import sys
import threading
import time

import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.engine import (
    BatchRecord,
    CheckpointStore,
    CrashingStore,
    InjectedFault,
    RunEngine,
    RunHeader,
    batch_fingerprint,
    config_fingerprint,
)
from repro.engines.registry import create_engine
from repro.llm.base import LLMClient
from repro.llm.executors import ConcurrentExecutor
from repro.observability.tracing import Tracer
from repro.pipeline import Pipeline, PipelineContext, StageHook
from repro.pipeline.stages import DEFAULT_STAGES, RenderPrompts

CONFIG = BatcherConfig(seed=3)
SMALL_CONFIG = BatcherConfig(seed=3, max_questions=32)
STAGE_NAMES = [stage.name for stage in DEFAULT_STAGES]

#: Executor factories the equivalence, crash, failure and telemetry tests run
#: under: serial, a per-run thread pool, and the long-lived pool a service
#: dispatches on.
EXECUTORS = {
    "serial": lambda: None,
    "concurrent4": lambda: ConcurrentExecutor(4),
    "persistent4": lambda: ConcurrentExecutor(4, persistent=True),
}


def _oracle(dataset, config):
    """The stock pipeline (its own ``Inference`` stage), no engine involved."""
    context = Pipeline.default().run(PipelineContext.from_dataset(dataset, config))
    return context.result


@pytest.fixture(scope="module")
def beer_oracle(beer_dataset):
    return _oracle(beer_dataset, CONFIG)


@pytest.fixture(scope="module")
def beer_small_oracle(beer_dataset):
    return _oracle(beer_dataset, SMALL_CONFIG)


@pytest.fixture(scope="module")
def fz_oracle(fz_dataset):
    return _oracle(fz_dataset, CONFIG)


@pytest.fixture
def open_executor():
    """Build an executor by its ``EXECUTORS`` name; shut it down after the test."""
    opened = []

    def open_(name):
        executor = EXECUTORS[name]()
        if executor is not None:
            opened.append(executor)
        return executor

    yield open_
    for executor in opened:
        executor.shutdown()


@pytest.fixture(scope="module")
def beer_planned(beer_dataset):
    """A planned (prompt-rendered, not inferred) context."""
    return RunEngine(config=CONFIG).plan(beer_dataset)


class _InnerLLM(LLMClient):
    """Delegates to the client the pipeline would build for ``config``."""

    def __init__(self, config) -> None:
        inner = create_engine(
            config.engine,
            model=config.model,
            seed=config.seed,
            temperature=config.temperature,
        )
        super().__init__(model_name=inner.model_name, tokenizer=inner.tokenizer)
        self.inner = inner
        self._lock = threading.Lock()


class FailingLLM(_InnerLLM):
    """Fails completion attempt ``fail_at`` and, while ``down``, every later one.

    Every attempt first sleeps a few milliseconds so that, on a concurrent
    executor, other calls are in flight when the fault is raised.  No
    assertion relies on that timing.
    """

    def __init__(self, config, fail_at: int, down: bool) -> None:
        super().__init__(config)
        self.fail_at = fail_at
        self.down = down
        self.attempts = 0
        self.successes = 0

    def _generate(self, prompt_text: str) -> str:
        with self._lock:
            self.attempts += 1
            attempt = self.attempts
        time.sleep(0.005)
        if attempt == self.fail_at or (self.down and attempt > self.fail_at):
            raise InjectedFault(f"injected LLM fault at call {attempt}")
        text = self.inner._generate(prompt_text)
        with self._lock:
            self.successes += 1
        return text


class PeakConcurrencyLLM(_InnerLLM):
    """Records the peak number of concurrently running completions."""

    def __init__(self, config, seconds: float = 0.005) -> None:
        super().__init__(config)
        self.seconds = seconds
        self.running = 0
        self.peak = 0

    def _generate(self, prompt_text: str) -> str:
        with self._lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(self.seconds)
            return self.inner._generate(prompt_text)
        finally:
            with self._lock:
                self.running -= 1


class RecordingHook(StageHook):
    def __init__(self) -> None:
        self.events: list[tuple[str, str]] = []

    def on_stage_start(self, stage, context) -> None:
        self.events.append(("start", stage.name))

    def on_stage_end(self, stage, context, seconds) -> None:
        self.events.append(("end", stage.name))


class TestCheckpointStore:
    def _header(self, num_batches=2, config="cfg"):
        return RunHeader(
            dataset="Beer",
            config_fingerprint=config,
            batches_fingerprint="plan",
            num_batches=num_batches,
            model="gpt-3.5-03",
        )

    def _record(self, batch_id):
        return BatchRecord(
            batch_id=batch_id,
            fingerprint=f"fp-{batch_id}",
            text=f"Question {batch_id + 1}: Yes",
            model="gpt-3.5-03",
            prompt_tokens=100 + batch_id,
            completion_tokens=10,
        )

    def test_round_trip(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        header = self._header()
        completed, writer = store.open("run", header)
        assert completed == {}
        with writer:
            writer.append(self._record(0))
            writer.append(self._record(1))
        reloaded = store.completed_batches("run", header)
        assert set(reloaded) == {0, 1}
        assert reloaded[1] == self._record(1)
        assert reloaded[1].response().text == "Question 2: Yes"
        assert list(checkpoint_dir.iterdir()) == [store.path("run")]

    def test_header_mismatch_discards_the_file(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        _, writer = store.open("run", self._header())
        with writer:
            writer.append(self._record(0))
        assert store.completed_batches("run", self._header(config="OTHER")) == {}

    def test_version_1_file_is_stale_and_rewritten(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        header = self._header()
        old_header = {**header.to_dict(), "version": 1}
        store.path("run").write_text(
            json.dumps(old_header) + "\n"
            + json.dumps(self._record(0).to_dict()) + "\n"
        )
        assert store.completed_batches("run", header) == {}
        completed, writer = store.open("run", header)
        writer.close()
        assert completed == {}
        lines = [json.loads(line) for line in store.path("run").read_text().splitlines()]
        assert lines == [header.to_dict()]
        assert lines[0]["version"] == 2

    def test_torn_tail_keeps_the_valid_prefix(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        header = self._header()
        _, writer = store.open("run", header)
        with writer:
            writer.append(self._record(0))
            writer.append(self._record(1))
        path = store.path("run")
        torn = path.read_text().rstrip("\n")[:-20]  # kill mid-write
        path.write_text(torn)
        assert set(store.completed_batches("run", header)) == {0}
        # Re-opening rewrites the file back to header + valid prefix.
        completed, writer = store.open("run", header)
        writer.close()
        assert set(completed) == {0}
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["type"] == "header"
        assert [entry["batch_id"] for entry in lines[1:]] == [0]

    def test_missing_file_is_a_fresh_start(self, checkpoint_dir):
        store = CheckpointStore(checkpoint_dir)
        assert store.completed_batches("absent", self._header()) == {}

    def test_batch_fingerprint_reflects_content_and_position(self, beer_planned):
        batches = beer_planned.batches
        assert batch_fingerprint(batches[0]) != batch_fingerprint(batches[1])
        assert batch_fingerprint(batches[0]) == batch_fingerprint(batches[0])


class TestGoldenEquivalence:
    @pytest.mark.parametrize("checkpointed", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize("executor_name", list(EXECUTORS))
    def test_beer_runs_are_byte_identical(
        self, beer_dataset, beer_oracle, checkpoint_dir, open_executor, executor_name,
        checkpointed,
    ):
        framework = BatchER(CONFIG, executor=open_executor(executor_name))
        result = framework.run(
            beer_dataset, checkpoint_dir=checkpoint_dir if checkpointed else None
        )
        assert result == beer_oracle
        assert repr(result) == repr(beer_oracle)
        assert result.summary() == beer_oracle.summary()

    @pytest.mark.parametrize("checkpointed", [False, True], ids=["no-store", "store"])
    def test_fz_concurrent_runs_are_byte_identical(
        self, fz_dataset, fz_oracle, checkpoint_dir, checkpointed
    ):
        with ConcurrentExecutor(4) as executor:
            result = BatchER(CONFIG, executor=executor).run(
                fz_dataset, checkpoint_dir=checkpoint_dir if checkpointed else None
            )
        assert result == fz_oracle
        assert repr(result) == repr(fz_oracle)

    def test_degenerate_single_question(self, beer_dataset, checkpoint_dir):
        config = BatcherConfig(seed=3, max_questions=1)
        result = BatchER(config).run(beer_dataset, checkpoint_dir=checkpoint_dir)
        assert result == _oracle(beer_dataset, config)
        assert result.num_questions == 1

    def test_report_counts_a_fresh_run(self, beer_dataset, checkpoint_dir):
        engine = RunEngine(config=SMALL_CONFIG, checkpoint_dir=checkpoint_dir)
        result = engine.run(beer_dataset)
        report = engine.last_report
        assert report.num_batches == result.num_batches
        assert report.batches_executed == report.num_batches
        assert report.batches_resumed == 0
        assert report.llm_calls == result.cost.num_llm_calls
        assert report.llm_calls_saved == 0
        assert report.checkpointed is True
        assert set(report.to_dict()) == {
            "num_batches", "batches_executed", "batches_resumed", "llm_calls",
            "llm_calls_saved", "checkpointed", "paused",
        }

    def test_unstored_run_writes_nothing(self, beer_dataset, beer_small_oracle, tmp_path):
        engine = RunEngine(config=SMALL_CONFIG)
        assert engine.run(beer_dataset) == beer_small_oracle
        assert engine.checkpoint_store is None
        assert engine.last_report.checkpointed is False
        assert list(tmp_path.iterdir()) == []

    def test_one_checkpoint_file_per_run(self, beer_dataset, checkpoint_dir):
        with ConcurrentExecutor(4) as executor:
            result = BatchER(SMALL_CONFIG, executor=executor).run(
                beer_dataset, checkpoint_dir=checkpoint_dir
            )
        (path,) = checkpoint_dir.iterdir()
        assert path.name == f"Beer-{config_fingerprint(SMALL_CONFIG)[:12]}.jsonl"
        header, *records = [json.loads(line) for line in path.read_text().splitlines()]
        assert header["version"] == 2
        assert header["num_batches"] == result.num_batches
        assert sorted(record["batch_id"] for record in records) == list(
            range(result.num_batches)
        )
        assert set(records[0]) == {
            "type", "batch_id", "fingerprint", "text", "model",
            "prompt_tokens", "completion_tokens",
        }


class TestCrashResume:
    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    def test_every_llm_crash_point_resumes_with_zero_repeated_calls(
        self, beer_dataset, beer_small_oracle, make_crashing_llm, tmp_path, open_executor,
        executor_name,
    ):
        """The headline property: for every crash point k, the crashed run plus
        the resume together make exactly as many LLM calls as an uninterrupted
        run — no completed call is ever re-paid."""
        total_calls = beer_small_oracle.cost.num_llm_calls
        assert total_calls > 1
        for k in range(1, total_calls + 1):
            llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=k)
            engine = RunEngine(
                config=SMALL_CONFIG,
                llm=llm,
                executor=open_executor(executor_name),
                checkpoint_dir=tmp_path / f"crash-{k}",
            )
            with pytest.raises(InjectedFault):
                engine.run(beer_dataset)
            # In-flight calls settle (and are checkpointed) after the fault,
            # so the crashed run completes k-1 calls or more — never all.
            assert k - 1 <= llm.successful_calls < total_calls
            checkpointed = llm.successful_calls
            assert engine.last_report.batches_executed == checkpointed
            resumed = engine.run(beer_dataset)
            assert resumed == beer_small_oracle
            assert repr(resumed) == repr(beer_small_oracle)
            assert llm.successful_calls == total_calls
            assert engine.last_report.batches_resumed == checkpointed
            assert engine.last_report.llm_calls_saved == checkpointed
            assert engine.last_report.batches_executed == total_calls - checkpointed

    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    def test_every_store_crash_point_repays_exactly_the_torn_batch(
        self, beer_dataset, beer_small_oracle, make_crashing_llm, tmp_path, open_executor,
        executor_name,
    ):
        """A crash *between* the LLM call and its persistence is the harshest
        point: that one call is paid but not saved, so resume re-pays exactly
        it — never more."""
        total_calls = beer_small_oracle.cost.num_llm_calls
        for k in range(1, total_calls + 1):
            llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=0)
            store = CrashingStore(tmp_path / f"crash-{k}", fail_at_append=k)
            engine = RunEngine(
                config=SMALL_CONFIG,
                llm=llm,
                executor=open_executor(executor_name),
                checkpoint_store=store,
            )
            with pytest.raises(InjectedFault):
                engine.run(beer_dataset)
            resumed = engine.run(beer_dataset)
            assert resumed == beer_small_oracle
            assert llm.successful_calls == total_calls + 1
            # The result still accounts each batch exactly once.
            assert resumed.cost.num_llm_calls == total_calls

    def test_completed_run_resumes_for_free(
        self, beer_dataset, beer_small_oracle, make_crashing_llm, checkpoint_dir
    ):
        llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=0)
        engine = RunEngine(config=SMALL_CONFIG, llm=llm, checkpoint_dir=checkpoint_dir)
        first = engine.run(beer_dataset)
        calls_after_first = llm.successful_calls
        second = engine.run(beer_dataset)
        assert first == second == beer_small_oracle
        assert llm.successful_calls == calls_after_first  # zero new LLM calls
        assert engine.last_report.batches_executed == 0
        assert engine.last_report.llm_calls_saved == engine.last_report.num_batches

    def test_execute_again_resumes_the_same_context(
        self, beer_dataset, beer_small_oracle, make_crashing_llm, checkpoint_dir
    ):
        total_calls = beer_small_oracle.cost.num_llm_calls
        llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=2)
        hook = RecordingHook()
        engine = RunEngine(
            config=SMALL_CONFIG, llm=llm, checkpoint_dir=checkpoint_dir, hooks=[hook]
        )
        context = engine.plan(beer_dataset)
        with pytest.raises(InjectedFault):
            engine.execute(context)
        assert engine.execute(context) == beer_small_oracle
        assert llm.successful_calls == total_calls
        # The planning stages ran once; only inference was re-entered.
        starts = [name for kind, name in hook.events if kind == "start"]
        assert starts == STAGE_NAMES[:5] + STAGE_NAMES[4:]

    def test_stale_checkpoints_from_another_config_are_ignored(
        self, beer_dataset, make_crashing_llm, checkpoint_dir
    ):
        """Checkpoints are named and header-checked by configuration: a run
        with a different seed must not resume from them."""
        RunEngine(config=SMALL_CONFIG, checkpoint_dir=checkpoint_dir).run(beer_dataset)
        other_config = BatcherConfig(seed=4, max_questions=32)
        llm = make_crashing_llm(other_config, fail_at_call=0)
        engine = RunEngine(config=other_config, llm=llm, checkpoint_dir=checkpoint_dir)
        result = engine.run(beer_dataset)
        assert llm.successful_calls == result.cost.num_llm_calls > 0
        assert result == _oracle(beer_dataset, other_config)

    def test_other_data_under_the_same_name_is_rerun(
        self, beer_dataset, wa_dataset, make_crashing_llm, checkpoint_dir
    ):
        """The header pins the batch plan: same dataset name and config but
        different pairs restart the run instead of replaying foreign answers."""
        RunEngine(config=SMALL_CONFIG, checkpoint_dir=checkpoint_dir).run(beer_dataset)
        renamed = dataclasses.replace(wa_dataset, name=beer_dataset.name)
        llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=0)
        engine = RunEngine(config=SMALL_CONFIG, llm=llm, checkpoint_dir=checkpoint_dir)
        result = engine.run(renamed)
        assert engine.last_report.batches_resumed == 0
        assert llm.successful_calls == result.cost.num_llm_calls

    @pytest.mark.parametrize(
        "changed",
        [{"provider_model": "other-model"}, {"base_url": "http://other.invalid"}],
        ids=["provider_model", "base_url"],
    )
    def test_checkpoint_of_another_provider_is_not_replayed(
        self, beer_dataset, checkpoint_dir, changed
    ):
        """The header pins an HTTP client's provider model and endpoint: a
        run resumed against another one asks it, instead of replaying the
        first provider's answers."""
        from repro.engines.faults import SimulatedBackendTransport
        from repro.llm.simulated import SimulatedLLM

        def run(**fields):
            backend = SimulatedBackendTransport(SimulatedLLM(seed=SMALL_CONFIG.seed))
            llm = create_engine(
                "openai",
                model=SMALL_CONFIG.model,
                transport=backend,
                api_key="sk-test",
                **{"provider_model": "first-model", "base_url": "http://first.invalid", **fields},
            )
            engine = RunEngine(config=SMALL_CONFIG, llm=llm, checkpoint_dir=checkpoint_dir)
            result = engine.run(beer_dataset)
            return backend.calls, engine.last_report, result

        calls, report, _ = run()
        assert calls == report.num_batches > 0
        assert run()[0] == 0  # the same provider resumes every batch
        calls, report, result = run(**changed)
        assert report.batches_resumed == 0
        assert calls == report.num_batches == result.cost.num_llm_calls
        (path,) = checkpoint_dir.iterdir()
        header = json.loads(path.read_text().splitlines()[0])
        assert {key: header[key] for key in changed} == changed

    @pytest.mark.parametrize("field", ["fingerprint", "batch_id"])
    def test_tampered_record_is_rejected(self, beer_dataset, checkpoint_dir, field):
        """A record whose fingerprint differs from its planned batch, or whose
        batch id lies outside the plan, is never replayed."""
        engine = RunEngine(config=SMALL_CONFIG, checkpoint_dir=checkpoint_dir)
        engine.run(beer_dataset)
        (path,) = checkpoint_dir.iterdir()
        header, first, *rest = path.read_text().splitlines()
        foreign = {
            "fingerprint": "not-the-real-fingerprint",
            "batch_id": json.loads(header)["num_batches"],
        }
        tampered = {**json.loads(first), field: foreign[field]}
        path.write_text("\n".join([header, json.dumps(tampered), *rest]) + "\n")
        with pytest.raises(ValueError, match="fingerprint"):
            engine.run(beer_dataset)


class TestDispatch:
    @pytest.mark.parametrize("persistent", [False, True], ids=["concurrent8", "persistent8"])
    def test_checkpointed_run_keeps_the_executor_concurrency(
        self, beer_dataset, beer_oracle, checkpoint_dir, persistent
    ):
        llm = PeakConcurrencyLLM(CONFIG)
        with ConcurrentExecutor(8, persistent=persistent) as executor:
            result = BatchER(CONFIG, llm=llm, executor=executor).run(
                beer_dataset, checkpoint_dir=checkpoint_dir
            )
        assert result == beer_oracle
        assert 1 < llm.peak <= 8

    def test_concurrent_appends_stay_whole_lines(
        self, beer_dataset, beer_oracle, make_crashing_llm, checkpoint_dir
    ):
        """16 workers on 2+ cores with a short switch interval: every batch
        lands as exactly one whole checkpoint line, so a resume replays all
        of them and makes no call."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ConcurrentExecutor(16) as executor:
                engine = BatchER(CONFIG, executor=executor).build_engine(checkpoint_dir)
                assert engine.run(beer_dataset) == beer_oracle
        finally:
            sys.setswitchinterval(interval)
        (path,) = checkpoint_dir.iterdir()
        batch_ids = [json.loads(line)["batch_id"] for line in path.read_text().splitlines()[1:]]
        assert sorted(batch_ids) == list(range(beer_oracle.num_batches))
        llm = make_crashing_llm(CONFIG, fail_at_call=0)
        resumed = RunEngine(config=CONFIG, llm=llm, checkpoint_dir=checkpoint_dir)
        assert resumed.run(beer_dataset) == beer_oracle
        assert llm.attempts == 0

    @pytest.mark.parametrize(
        ("executor_name", "extra_attempts"),
        [("serial", 0), ("concurrent4", 3), ("persistent4", 3)],
    )
    def test_no_call_starts_after_the_first_failure(
        self, beer_dataset, beer_oracle, checkpoint_dir, open_executor, executor_name,
        extra_attempts,
    ):
        """A backend that fails from call k on sees at most one failing call
        per worker.

        Every call from k on fails, and a worker records its failure before
        it takes its next batch.  So the worker that made call k makes no
        other, and each of the other workers makes at most one more: exactly
        k calls when serial, at most k + 3 on 4 workers.  The bound follows
        from that ordering alone, not from how long a call takes.
        """
        k = 3
        assert beer_oracle.num_batches > k + extra_attempts
        llm = FailingLLM(CONFIG, fail_at=k, down=True)
        framework = BatchER(CONFIG, llm=llm, executor=open_executor(executor_name))
        with pytest.raises(InjectedFault):
            framework.run(beer_dataset, checkpoint_dir=checkpoint_dir)
        assert k <= llm.attempts <= k + extra_attempts
        assert llm.successes == k - 1

    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    @pytest.mark.parametrize("down", [True, False], ids=["fail-from-k", "fail-at-k"])
    def test_a_failed_run_checkpoints_exactly_its_answered_batches(
        self, beer_dataset, beer_oracle, make_crashing_llm, checkpoint_dir,
        open_executor, executor_name, down,
    ):
        """Whatever the interleaving, a failed run raises, checkpoints exactly
        the batches whose call succeeded, and a resume pays exactly the rest.

        With a single fault (fail-at-k) the calls after k succeed, so on 4
        workers nothing bounds how many start before the fault is recorded;
        this contract is what holds there.  Serial dispatch stops at call k.
        """
        k = 3
        llm = FailingLLM(CONFIG, fail_at=k, down=down)
        engine = RunEngine(
            config=CONFIG,
            llm=llm,
            executor=open_executor(executor_name),
            checkpoint_dir=checkpoint_dir,
        )
        with pytest.raises(InjectedFault):
            engine.run(beer_dataset)
        if executor_name == "serial":
            assert llm.attempts == k
        answered = llm.successes
        assert engine.last_report.batches_executed == answered
        (path,) = checkpoint_dir.iterdir()
        records = path.read_text().splitlines()[1:]
        assert len({json.loads(line)["batch_id"] for line in records}) == len(records)
        assert len(records) == answered
        resume_llm = make_crashing_llm(CONFIG, fail_at_call=0)
        resumed = RunEngine(config=CONFIG, llm=resume_llm, checkpoint_dir=checkpoint_dir)
        assert resumed.run(beer_dataset) == beer_oracle
        assert resumed.last_report.batches_resumed == answered
        assert resume_llm.successful_calls == beer_oracle.num_batches - answered


class TestTelemetry:
    @pytest.mark.parametrize("executor_name", sorted(EXECUTORS))
    @pytest.mark.parametrize("mode", ["no-store", "fresh-store", "resume"])
    def test_seven_stages_under_batcher_run(
        self, beer_dataset, beer_small_oracle, make_crashing_llm, checkpoint_dir,
        open_executor, mode, executor_name,
    ):
        llm = make_crashing_llm(SMALL_CONFIG, fail_at_call=2 if mode == "resume" else 0)
        directory = None if mode == "no-store" else checkpoint_dir
        if mode == "resume":
            with pytest.raises(InjectedFault):
                BatchER(SMALL_CONFIG, llm=llm).run(beer_dataset, checkpoint_dir=directory)
        hook, tracer = RecordingHook(), Tracer()
        framework = BatchER(
            SMALL_CONFIG,
            llm=llm,
            executor=open_executor(executor_name),
            hooks=[hook],
            tracer=tracer,
        )
        assert framework.run(beer_dataset, checkpoint_dir=directory) == beer_small_oracle

        assert hook.events == [
            (kind, name) for name in STAGE_NAMES for kind in ("start", "end")
        ]
        spans = tracer.finished_spans()
        (root,) = [span for span in spans if span.parent_id is None]
        assert root.name == "batcher:run"
        children = [span.name for span in spans if span.parent_id == root.span_id]
        assert children == [f"stage:{name}" for name in STAGE_NAMES]
        known = {span.span_id for span in spans}
        assert all(span.parent_id in known for span in spans if span is not root)
        assert not any(span.name.startswith("engine:") for span in spans)


class TestFacade:
    def test_config_fingerprint_tracks_every_field(self):
        base = config_fingerprint(BatcherConfig(seed=1))
        assert base == config_fingerprint(BatcherConfig(seed=1))
        assert base != config_fingerprint(BatcherConfig(seed=2))
        assert base != config_fingerprint(BatcherConfig(seed=1, batch_size=4))

    def test_build_engine_exposes_the_run_report(
        self, beer_dataset, beer_small_oracle, checkpoint_dir
    ):
        engine = BatchER(SMALL_CONFIG).build_engine(checkpoint_dir=checkpoint_dir)
        assert engine.pipeline.stage_names == tuple(STAGE_NAMES)
        assert engine.run(beer_dataset) == beer_small_oracle
        assert engine.last_report.num_batches == beer_small_oracle.num_batches

    def test_planned_context_has_made_no_llm_call(self, beer_planned):
        assert beer_planned.prompts is not None
        assert RenderPrompts.name in beer_planned.completed_stages
        assert beer_planned.responses is None
        assert beer_planned.cost.breakdown().num_llm_calls == 0
