"""Tests for the unified tracing + metrics layer (``repro.observability``)."""

import json
import threading
from collections import Counter

import pytest

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset
from repro.engines.faults import FakeClock, ScriptedTransport
from repro.engines.transport import (
    RateLimiter,
    RetryPolicy,
    RetryingTransport,
    TerminalTransportError,
    TransportRequest,
    retry_reason,
)
from repro.llm.executors import AsyncExecutor, ConcurrentExecutor
from repro.observability import (
    JsonlTraceSink,
    MetricsRegistry,
    NOOP_TRACER,
    NoopTracer,
    Tracer,
    carry_current_span,
    current_span,
    read_trace_file,
)
from repro.observability.cli import (
    aggregate_by_name,
    build_forest,
    main as trace_main,
    render_tree,
    self_time,
    slowest_spans,
)
from repro.service import ResolutionService, ServiceConfig
from repro.service.microbatcher import MicroBatcher, PendingRequest, RequestQueue


class TestTracer:
    def test_nested_spans_share_a_trace_and_parent_correctly(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer", dataset="beer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        inner, outer = tracer.finished_spans()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(1.25)
        assert outer.attributes == {"dataset": "beer"}
        assert all(span.status == "ok" for span in (inner, outer))

    def test_sibling_roots_get_distinct_traces(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.finished_spans()
        assert first.trace_id != second.trace_id
        assert first.span_id != second.span_id

    def test_exception_marks_the_span_errored(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.finished_spans()
        assert span.status == "error"
        assert span.attributes["error"] == "ValueError: nope"

    def test_manually_set_status_survives_a_clean_exit(self):
        # The transport marks retryable failed attempts "error" even though
        # the exception is swallowed inside the span body.
        tracer = Tracer(clock=FakeClock())
        with tracer.span("attempt") as scope:
            scope.span.status = "error"
        (span,) = tracer.finished_spans()
        assert span.status == "error"

    def test_current_span_tracks_the_lexical_scope(self):
        tracer = Tracer(clock=FakeClock())
        assert current_span() is None
        with tracer.span("outer") as scope:
            assert current_span() is scope.span
        assert current_span() is None

    def test_buffer_is_bounded_but_the_sink_sees_everything(self):
        written = []

        class ListSink:
            def write(self, span):
                written.append(span.name)

        tracer = Tracer(sink=ListSink(), max_spans=2)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.finished_spans()] == ["s3", "s4"]
        assert written == ["s0", "s1", "s2", "s3", "s4"]
        tracer.clear()
        assert tracer.finished_spans() == []

    def test_noop_tracer_records_nothing_and_shares_one_object(self):
        assert isinstance(NOOP_TRACER, NoopTracer)
        assert NOOP_TRACER.enabled is False
        first = NOOP_TRACER.span("a", key="value")
        second = NOOP_TRACER.span("b")
        assert first is second  # one shared no-op context manager
        with first as scope:
            scope.set_attribute("ignored", 1)
            assert current_span() is None
        assert NOOP_TRACER.finished_spans() == []

    def test_span_to_dict_is_json_serializable(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("op", n=3):
            pass
        (span,) = tracer.finished_spans()
        payload = json.loads(json.dumps(span.to_dict()))
        assert payload["name"] == "op"
        assert payload["attributes"] == {"n": 3}
        assert payload["status"] == "ok"


class TestCarryCurrentSpan:
    def test_without_an_active_span_the_callable_is_returned_unchanged(self):
        def fn():
            return 42

        assert carry_current_span(fn) is fn

    def test_concurrent_executor_workers_parent_to_the_submitting_span(self):
        tracer = Tracer(clock=FakeClock())

        def work(index):
            with tracer.span(f"work:{index}"):
                return index

        with tracer.span("submit"):
            results = ConcurrentExecutor(max_workers=4).map(work, range(8))
        assert results == list(range(8))
        spans = {span.name: span for span in tracer.finished_spans()}
        submit = spans["submit"]
        for index in range(8):
            child = spans[f"work:{index}"]
            assert child.parent_id == submit.span_id
            assert child.trace_id == submit.trace_id

    def test_async_executor_sync_path_parents_to_the_submitting_span(self):
        tracer = Tracer(clock=FakeClock())

        def work(index):
            with tracer.span(f"work:{index}"):
                return index

        with tracer.span("submit"):
            results = AsyncExecutor(max_in_flight=3).map(work, range(6))
        assert results == list(range(6))
        spans = {span.name: span for span in tracer.finished_spans()}
        submit = spans["submit"]
        for index in range(6):
            assert spans[f"work:{index}"].parent_id == submit.span_id

    def test_async_executor_coroutines_inherit_the_submitting_span(self):
        tracer = Tracer(clock=FakeClock())

        async def work(index):
            with tracer.span(f"work:{index}"):
                return index

        with tracer.span("submit"):
            results = AsyncExecutor(max_in_flight=3).map(work, range(6))
        assert results == list(range(6))
        spans = {span.name: span for span in tracer.finished_spans()}
        submit = spans["submit"]
        for index in range(6):
            assert spans[f"work:{index}"].parent_id == submit.span_id

    def test_worker_context_is_restored_after_the_carried_call(self):
        tracer = Tracer(clock=FakeClock())
        leaked = []

        def work(index):
            return index

        def probe(index):
            leaked.append(current_span())
            return index

        with ConcurrentExecutor(max_workers=1, persistent=True) as pool:
            with tracer.span("submit"):
                pool.map(work, range(2))
            # Same worker thread, no ambient span on the submitting side:
            # nothing may have leaked from the previous traced map.
            pool.map(probe, range(2))
        assert leaked == [None, None]


class TestMetricsRegistry:
    def test_counter_increments_and_rejects_going_down(self):
        registry = MetricsRegistry(FakeClock())
        counter = registry.counter("repro_test_total", "help text")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_counter_keeps_one_sample_per_combination(self):
        registry = MetricsRegistry(FakeClock())
        counter = registry.counter("repro_retries_total", labels=("reason",))
        counter.inc(reason="429")
        counter.inc(2, reason="5xx")
        assert counter.value(reason="429") == 1
        assert counter.value(reason="5xx") == 2
        with pytest.raises(ValueError):
            counter.inc(other="x")

    def test_gauge_set_inc_dec_and_scrape_callback(self):
        registry = MetricsRegistry(FakeClock())
        gauge = registry.gauge("repro_depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6
        source = {"value": 0.25}
        bridged = registry.gauge("repro_hit_rate")
        bridged.set_function(lambda: source["value"])
        assert bridged.value() == 0.25
        source["value"] = 0.75
        assert bridged.value() == 0.75  # read at scrape time, not at bind time

    def test_histogram_buckets_are_cumulative_in_the_exposition(self):
        registry = MetricsRegistry(FakeClock())
        histogram = registry.histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count() == 5
        assert histogram.sum() == pytest.approx(56.05)
        rendered = "\n".join(histogram.render())
        assert 'repro_lat_bucket{le="0.1"} 1' in rendered
        assert 'repro_lat_bucket{le="1"} 3' in rendered
        assert 'repro_lat_bucket{le="10"} 4' in rendered
        assert 'repro_lat_bucket{le="+Inf"} 5' in rendered
        assert "repro_lat_count 5" in rendered

    def test_registration_is_idempotent_but_kind_conflicts_raise(self):
        registry = MetricsRegistry(FakeClock())
        first = registry.counter("repro_thing_total")
        assert registry.counter("repro_thing_total") is first
        with pytest.raises(ValueError):
            registry.gauge("repro_thing_total")
        with pytest.raises(ValueError):
            registry.counter("repro_thing_total", labels=("reason",))

    def test_invalid_metric_names_are_rejected(self):
        registry = MetricsRegistry(FakeClock())
        with pytest.raises(ValueError):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError):
            registry.counter("has space")

    def test_time_measures_with_the_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock)
        histogram = registry.histogram("repro_flush_seconds", buckets=(1.0, 10.0))
        with registry.time(histogram):
            clock.advance(2.5)
        assert histogram.count() == 1
        assert histogram.sum() == pytest.approx(2.5)

    def test_render_emits_valid_prometheus_text(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("repro_a_total", "a help").inc(3)
        registry.gauge("repro_b", labels=("kind",)).set(1.5, kind="x")
        text = registry.render()
        assert "# HELP repro_a_total a help" in text
        assert "# TYPE repro_a_total counter" in text
        assert "repro_a_total 3" in text
        assert 'repro_b{kind="x"} 1.5' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry(FakeClock())
        gauge = registry.gauge("repro_esc", labels=("path",))
        gauge.set(1, path='a"b\\c\nd')
        assert 'path="a\\"b\\\\c\\nd"' in "\n".join(gauge.render())

    def test_snapshot_is_json_serializable_and_complete(self):
        registry = MetricsRegistry(FakeClock())
        registry.counter("repro_a_total").inc(2)
        registry.histogram("repro_lat", buckets=(1.0,)).observe(0.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot["repro_a_total"]["series"][0]["value"] == 2
        assert snapshot["repro_lat"]["series"][0]["count"] == 1

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry(FakeClock())
        counter = registry.counter("repro_racy_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000


class TestJsonlTraceSink:
    def test_roundtrip_through_the_sink_and_reader(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlTraceSink(path), clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = read_trace_file(path)
        assert [span["name"] for span in spans] == ["inner", "outer"]
        assert spans[0]["parent"] == spans[1]["span"]

    def test_appending_runs_share_one_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for _ in range(2):
            with JsonlTraceSink(path) as sink:
                tracer = Tracer(sink=sink, clock=FakeClock())
                with tracer.span("run"):
                    pass
        assert len(read_trace_file(path)) == 2

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=JsonlTraceSink(path), clock=FakeClock())
        with tracer.span("whole"):
            pass
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"trace": "t000001", "span": "s000')  # killed mid-append
        spans = read_trace_file(path)
        assert [span["name"] for span in spans] == ["whole"]

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('not json\n{"span": "s1", "name": "x"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed trace line"):
            read_trace_file(path)

    def test_writing_to_a_closed_sink_raises(self, tmp_path):
        sink = JsonlTraceSink(tmp_path / "trace.jsonl")
        tracer = Tracer(sink=sink, clock=FakeClock())
        with tracer.span("before"):
            pass
        assert sink.num_written == 1
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            with tracer.span("after"):
                pass


class TestTraceCli:
    def _write_trace(self, path):
        tracer = Tracer(sink=JsonlTraceSink(path), clock=(clock := FakeClock()))
        with tracer.span("root"):
            clock.advance(0.1)
            with tracer.span("child:a"):
                clock.advance(0.5)
            with tracer.span("child:b"):
                clock.advance(0.2)
        return path

    def test_build_forest_nests_children_and_promotes_orphans(self):
        spans = [
            {"trace": "t1", "span": "s1", "parent": None, "name": "root", "start": 0.0},
            {"trace": "t1", "span": "s2", "parent": "s1", "name": "kid", "start": 1.0},
            {"trace": "t1", "span": "s3", "parent": "gone", "name": "orphan", "start": 2.0},
        ]
        roots, children = build_forest(spans)
        assert [root["name"] for root in roots] == ["root", "orphan"]
        assert [child["name"] for child in children["s1"]] == ["kid"]

    def test_self_time_subtracts_child_coverage(self, tmp_path):
        spans = read_trace_file(self._write_trace(tmp_path / "t.jsonl"))
        _, children = build_forest(spans)
        root = next(span for span in spans if span["name"] == "root")
        assert float(root["duration"]) == pytest.approx(0.8)
        assert self_time(root, children) == pytest.approx(0.1)

    def test_render_tree_indents_children_under_the_root(self, tmp_path):
        text = render_tree(read_trace_file(self._write_trace(tmp_path / "t.jsonl")))
        lines = text.splitlines()
        assert lines[0].startswith("trace ")
        root_line = next(line for line in lines if "root" in line)
        child_line = next(line for line in lines if "child:a" in line)
        indent = len(child_line) - len(child_line.lstrip())
        assert indent > len(root_line) - len(root_line.lstrip())

    def test_aggregate_orders_by_total_time(self, tmp_path):
        rows = aggregate_by_name(read_trace_file(self._write_trace(tmp_path / "t.jsonl")))
        assert rows[0]["name"] == "root"
        child_a = next(row for row in rows if row["name"] == "child:a")
        assert child_a["count"] == 1
        assert child_a["total_seconds"] == pytest.approx(0.5)

    def test_slowest_spans_returns_top_n(self, tmp_path):
        spans = read_trace_file(self._write_trace(tmp_path / "t.jsonl"))
        top = slowest_spans(spans, top=2)
        assert [span["name"] for span in top] == ["root", "child:a"]
        with pytest.raises(ValueError):
            slowest_spans(spans, top=0)

    def test_main_renders_a_report(self, tmp_path, capsys):
        path = self._write_trace(tmp_path / "t.jsonl")
        assert trace_main([str(path), "--top", "2"]) == 0
        output = capsys.readouterr().out
        assert "root" in output
        assert "per-stage latency" in output
        assert "top 2 slowest spans" in output

    def test_main_fails_cleanly_on_missing_or_empty_traces(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "absent.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert trace_main([str(empty)]) == 1
        assert "repro-trace:" in capsys.readouterr().err


class TestTransportObservability:
    def test_attempt_spans_carry_retry_reason_and_wait_time(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        metrics = MetricsRegistry(clock)
        transport = RetryingTransport(
            ScriptedTransport([429, {"answer": "yes"}]),
            policy=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
            limiter=RateLimiter(requests_per_second=1.0, clock=clock, burst_seconds=1.0),
            clock=clock,
            tracer=tracer,
            metrics=metrics,
        )
        response = transport.send(TransportRequest(url="http://x", payload={}))
        assert response.payload == {"answer": "yes"}

        spans = {span.span_id: span for span in tracer.finished_spans()}
        send = next(s for s in spans.values() if s.name == "transport:send")
        attempts = sorted(
            (s for s in spans.values() if s.name == "transport:attempt"),
            key=lambda s: s.attributes["attempt"],
        )
        assert send.attributes["url"] == "http://x"
        assert len(attempts) == 2
        assert all(span.parent_id == send.span_id for span in attempts)
        first, second = attempts
        assert first.status == "error"
        assert first.attributes["retry_reason"] == "429"
        assert first.attributes["retryable"] is True
        assert second.status == "ok"
        # The second attempt paid the 1 req/s limiter after the first request
        # plus the backoff drained the bucket.
        assert second.attributes["rate_limit_wait_seconds"] >= 0.0

        assert metrics.get("repro_transport_requests_total").value() == 1
        assert metrics.get("repro_transport_attempts_total").value() == 2
        assert metrics.get("repro_transport_retries_total").value(reason="429") == 1
        assert metrics.get("repro_transport_failures_total").value() == 0

    def test_terminal_error_counts_as_failure_not_retry(self):
        clock = FakeClock()
        metrics = MetricsRegistry(clock)
        transport = RetryingTransport(
            ScriptedTransport([400]), clock=clock, metrics=metrics
        )
        with pytest.raises(TerminalTransportError):
            transport.send(TransportRequest(url="http://x", payload={}))
        assert metrics.get("repro_transport_failures_total").value() == 1
        assert metrics.get("repro_transport_retries_total").value(reason="429") == 0

    def test_retry_reason_classification(self):
        assert retry_reason(TerminalTransportError("x", status=None)) == "connection"
        assert retry_reason(TerminalTransportError("x", status=429)) == "429"
        assert retry_reason(TerminalTransportError("x", status=503)) == "5xx"
        assert retry_reason(TerminalTransportError("x", status=404)) == "404"

    def test_bind_observability_after_construction(self):
        clock = FakeClock()
        transport = RetryingTransport(ScriptedTransport([{}]), clock=clock)
        assert transport.tracer is NOOP_TRACER
        tracer = Tracer(clock=clock)
        metrics = MetricsRegistry(clock)
        transport.bind_observability(tracer=tracer, metrics=metrics)
        transport.send(TransportRequest(url="http://x", payload={}))
        assert {span.name for span in tracer.finished_spans()} == {
            "transport:send",
            "transport:attempt",
        }
        # The 429 retry family exists (at zero) before any rate-limit hit.
        assert 'repro_transport_retries_total{reason="429"} 0' in metrics.render()


def _pending(index):
    from repro.data.schema import EntityPair, Record

    values = {"name": f"item-{index}"}
    return PendingRequest(
        pair=EntityPair(
            pair_id=f"p{index}",
            left=Record(record_id=f"p{index}-L", values=values),
            right=Record(record_id=f"p{index}-R", values=values),
        ),
        fingerprint=f"fp{index}",
    )


class TestMicroBatcherFlushReason:
    def _batcher(self, max_batch_size=4, flush=None):
        queue = RequestQueue(capacity=16)
        return queue, MicroBatcher(
            queue,
            flush=flush or (lambda batch, reason: None),
            max_batch_size=max_batch_size,
            max_wait=0.01,
        )

    def test_full_batch_is_a_size_flush(self):
        queue, batcher = self._batcher(max_batch_size=2)
        assert batcher.flush_reason([_pending(0), _pending(1)]) == "size"

    def test_partial_batch_is_a_deadline_flush_until_close(self):
        queue, batcher = self._batcher(max_batch_size=4)
        batch = [_pending(0)]
        assert batcher.flush_reason(batch) == "deadline"
        queue.close()
        assert batcher.flush_reason(batch) == "close"

    def test_flush_callback_receives_every_batch_with_its_reason(self):
        observed = []
        queue, batcher = self._batcher(
            max_batch_size=2,
            flush=lambda batch, reason: observed.append((len(batch), reason)),
        )
        for index in range(4):
            queue.put(_pending(index))
        batcher.start()
        batcher.stop(timeout=5.0)
        assert not batcher.running
        assert observed == [(2, "size"), (2, "size")]

    def test_close_drain_reason_reaches_the_flush_callback(self):
        observed = []
        queue, batcher = self._batcher(
            max_batch_size=4,
            flush=lambda batch, reason: observed.append((len(batch), reason)),
        )
        queue.put(_pending(0))
        queue.close()  # the partial batch now leaves on the shutdown drain
        batcher.start()
        batcher.stop(timeout=5.0)
        assert observed == [(1, "close")]

    def test_service_flush_span_and_metric_record_one_reason(self, beer_dataset):
        # The reason is computed once per batch and handed to the flush, so
        # the counter and the span attribute cannot disagree even when
        # stop() closes the queue while a partial batch is in hand.
        tracer = Tracer()
        service = ResolutionService.from_dataset(
            beer_dataset,
            ServiceConfig(batcher=BatcherConfig(seed=1), max_batch_size=16),
            tracer=tracer,
        )
        questions = [pair.without_label() for pair in beer_dataset.splits.test[:3]]
        futures = [service.submit(pair) for pair in questions]
        service.start()
        service.stop()
        assert all(future.done() for future in futures)
        flushes = service.metrics.get("repro_service_flushes_total")
        span_reasons = [
            span.attributes["reason"]
            for span in tracer.finished_spans()
            if span.name == "service:flush"
        ]
        counted = {labels["reason"]: value for labels, value in flushes.samples()}
        assert span_reasons
        assert {reason: n for reason, n in counted.items() if n} == Counter(span_reasons)


class TestTracedRunsAreIdentical:
    def test_traced_batcher_run_matches_untraced_and_nests_stages(self):
        dataset = load_dataset("beer", seed=7, scale=1.0)
        config = BatcherConfig(seed=1, max_questions=16)
        tracer = Tracer()
        traced = BatchER(config, tracer=tracer).run(dataset)
        untraced = BatchER(config).run(dataset)
        # Instrumentation observes the run without altering it.
        assert traced == untraced

        spans = tracer.finished_spans()
        by_id = {span.span_id: span for span in spans}
        root = next(span for span in spans if span.name == "batcher:run")
        assert root.parent_id is None
        stage_spans = [span for span in spans if span.name.startswith("stage:")]
        assert stage_spans, "pipeline stages must be traced"
        for span in stage_spans:
            assert span.parent_id is not None
            assert by_id[span.parent_id].trace_id == root.trace_id
        assert {"stage:inference", "stage:evaluate"} <= {s.name for s in stage_spans}
