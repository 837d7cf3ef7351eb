"""Unit tests of the end-to-end benchmark's statistics and per-layer sum-check."""

from __future__ import annotations

import random
import statistics

import pytest

from layers import PER_LAYER, Trace, attribute, layer_metrics
from repro.data.schema import MatchLabel
from repro.evaluation.metrics import evaluate_predictions
from run import combined, latency_metrics
from stats import (
    TAIL_CANDIDATES,
    f1_percent,
    nearest_rank,
    percentile,
    samples_beyond,
    spread,
    tail_percentile,
)


class TestNearestRank:
    def test_small_sample(self):
        values = [float(v) for v in range(10, 0, -1)]  # unsorted on purpose
        assert percentile(values, 50) == 5.0
        assert percentile(values, 90) == 9.0
        assert percentile(values, 99) == 10.0
        assert percentile(values, 100) == 10.0
        assert percentile(values, 0) == 1.0

    def test_rank_is_exact_where_floats_round_up(self):
        # 0.99 * 1800 is 1782.0000000000002 in floating point.
        assert nearest_rank(1800, 99) == 1782
        assert nearest_rank(1000, 99.9) == 999
        assert nearest_rank(240, 95) == 228

    def test_value_is_always_a_sample(self):
        rng = random.Random(3)
        for _ in range(200):
            values = [rng.random() for _ in range(rng.randint(1, 50))]
            for q in (1, 25, 50, 75, 90, 95, 99, 100):
                assert percentile(values, q) in values

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            nearest_rank(10, 101)


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(24000, 90.0), (120, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0),
         (20, 50.0), (19, 100.0), (3, 100.0), (1, 100.0)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_candidates_are_configurable(self):
        assert tail_percentile(1000, candidates=(99.0, 95.0)) == 99.0
        assert tail_percentile(999, candidates=(99.0, 95.0)) == 95.0
        assert tail_percentile(240, candidates=(99.0, 95.0)) == 95.0

    def test_chosen_percentile_has_enough_samples_beyond(self):
        for n in range(1, 3000, 7):
            q = tail_percentile(n)
            if q < 100.0:
                assert samples_beyond(n, q) >= 10
            higher = [c for c in TAIL_CANDIDATES if c > q]
            assert all(samples_beyond(n, c) < 10 for c in higher)


def test_latency_is_taken_over_the_whole_window():
    # One slow stretch at the end of the window moves the tail, not the median.
    latencies = [0.100] * 170 + [0.400] * 30
    metrics, note = latency_metrics(latencies, limit_ms=300.0)
    assert metrics["latency_p50_ms"] == pytest.approx(100.0)
    assert metrics["latency_tail_ms"] == pytest.approx(400.0)  # p90 of 200
    assert metrics["slo_ok_ratio"] == pytest.approx(0.85)
    assert "p90" in note


def test_all_workload_result_keeps_the_result_format():
    one = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {"f1": {"value": 80.0, "unit": "%"}}}
    two = {"correct": False, "attempted": 5, "failed": 1,
           "metrics": {"f1": {"value": 70.0, "unit": "%"}}}
    assert combined({"a": one}) == one
    both = combined({"a": one, "b": two})
    assert set(both) == {"correct", "attempted", "failed", "metrics"}
    assert (both["correct"], both["attempted"], both["failed"]) == (False, 8, 1)
    assert both["metrics"] == {"a.f1": {"value": 80.0, "unit": "%"},
                               "b.f1": {"value": 70.0, "unit": "%"}}


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert spread([4.0, 4.0, 4.0]) == 0.0


def test_f1_matches_the_programs_evaluation():
    rng = random.Random(11)
    for _ in range(50):
        gold = [rng.randint(0, 1) for _ in range(rng.randint(1, 80))]
        pred = [rng.randint(0, 1) for _ in gold]
        expected = evaluate_predictions(
            [MatchLabel(g) for g in gold], [MatchLabel(p) for p in pred]
        ).f1
        assert f1_percent(gold, pred) == pytest.approx(expected, abs=1e-9)


# -- sum-check on hand-built traces ----------------------------------------------


def span(name, span_id, parent, start, end, trace="t", **attributes):
    return {
        "trace": trace, "span": span_id, "parent": parent, "name": name,
        "start": start, "end": end, "duration": end - start, "status": "ok",
        "attributes": attributes,
    }


def flush_trace():
    """One flush (f) serving two HTTP requests (a: 2 pairs, b: 1), times in s."""
    spans = [
        span("service:flush", "f", None, 1.060, 1.200, trace="F", requests=3,
             reason="deadline", pairs=["a0", "a1", "b0"]),
        span("resolver:resolve", "fr", "f", 1.062, 1.198, trace="F"),
        span("stage:featurize", "f1", "fr", 1.063, 1.073, trace="F"),
        span("stage:select-demonstrations", "f2", "fr", 1.073, 1.110, trace="F"),
        span("stage:inference", "f3", "fr", 1.110, 1.180, trace="F"),
        span("stage:parse-answers", "f4", "fr", 1.180, 1.190, trace="F"),
    ]
    for request, sent, submits in (("a", 1.000, 2), ("b", 1.030, 1)):
        spans += [
            span("loadgen:request", f"{request}q", None, sent - 0.001, 1.210, trace=request),
            span("loadgen:send", f"{request}c", f"{request}q", sent, 1.210, trace=request),
            span("http:handle", f"{request}h", f"{request}c", sent + 0.001, 1.205,
                 trace=request),
            span("tenants:authenticate", f"{request}t", f"{request}h", sent + 0.002,
                 sent + 0.003, trace=request),
            span("service:resolve_many", f"{request}m", f"{request}h", sent + 0.003,
                 1.203, trace=request),
        ]
        for index in range(submits):
            begin = sent + 0.004 + index * 0.001
            spans.append(span("service:submit", f"{request}s{index}", f"{request}m",
                              begin, begin + 0.0005, trace=request, pair=f"{request}{index}"))
    return spans


def test_request_parts_sum_to_latency_through_a_shared_flush():
    trace = Trace(flush_trace())
    for root_id, sent in (("aq", 1.000), ("bq", 1.030)):
        root = trace.by_id[root_id]
        result = attribute(trace, root)
        parts = result.parts
        assert result.latency == pytest.approx(1.210 - (sent - 0.001))
        assert parts["loadgen.wait"] == pytest.approx(0.001)
        # send (sent..1.210) minus handle (sent+0.001..1.205)
        assert parts["service.aio.frontend"] == pytest.approx(0.001 + 0.005)
        # handle minus authenticate and resolve_many
        assert parts["service.http.codec"] == pytest.approx(0.001 + 0.002)
        assert parts["service.tenants.authenticate"] == pytest.approx(0.001)
        last_submit_end = max(
            s["end"] for s in trace.spans
            if s["name"] == "service:submit" and s["trace"] == root_id[0]
        )
        assert parts["service.microbatcher.queue_wait"] == pytest.approx(
            max(0.0, 1.060 - last_submit_end)
        )
        assert parts["pipeline.inference"] == pytest.approx(0.070)
        assert parts["service.service.fanout"] == pytest.approx(1.200 - 1.190)
        assert sum(parts.values()) + result.unattributed == pytest.approx(result.latency)
        assert 0.0 <= result.unattributed_share < 0.05
    # Both requests are charged the same flush work; only their waits differ.
    a, b = (attribute(trace, trace.by_id[root]).parts for root in ("aq", "bq"))
    assert a["pipeline.select-demonstrations"] == b["pipeline.select-demonstrations"]
    assert a["service.microbatcher.queue_wait"] > b["service.microbatcher.queue_wait"] > 0.0


def test_flush_starting_before_the_last_submit_returned_is_not_charged_twice():
    # The flush took the pair while its submit span was still closing.
    spans = [
        span("loadgen:request", "q", None, 0.0, 0.300, trace="r1"),
        span("loadgen:send", "c", "q", 0.048, 0.053, trace="r1"),
        span("service:submit", "s", "c", 0.049, 0.052, trace="r1", pair="p"),
        span("service:flush", "f", None, 0.050, 0.300, trace="F", requests=1,
             reason="size", pairs=["p"]),
        span("stage:featurize", "z", "f", 0.050, 0.060, trace="F"),
        span("stage:parse-answers", "p", "f", 0.250, 0.290, trace="F"),
    ]
    trace = Trace(spans)
    result = attribute(trace, trace.by_id["q"])
    assert result.parts["service.microbatcher.queue_wait"] == 0.0
    assert result.parts["pipeline.featurize"] == pytest.approx(0.008)
    assert result.unattributed >= 0.0


def test_batch_job_unattributed_is_run_self_time():
    spans = [
        span("batcher:run", "r", None, 0.0, 1.0),
        span("stage:featurize", "s1", "r", 0.01, 0.40),
        span("stage:inference", "s2", "r", 0.40, 0.98),
    ]
    trace = Trace(spans)
    result = attribute(trace, trace.by_id["r"])
    assert result.parts == {
        "pipeline.featurize": pytest.approx(0.39),
        "pipeline.inference": pytest.approx(0.58),
    }
    assert result.unattributed == pytest.approx(0.03)


def test_in_process_request_is_charged_from_its_due_time():
    spans = [
        span("loadgen:request", "q", None, 0.0, 0.300, trace="r1"),
        span("loadgen:send", "c", "q", 0.004, 0.0052, trace="r1"),
        span("service:submit", "s", "c", 0.004, 0.005, trace="r1", pair="p"),
        span("service:flush", "f", None, 0.050, 0.300, trace="F", requests=1,
             reason="size", pairs=["p"]),
        span("stage:parse-answers", "p", "f", 0.250, 0.290, trace="F"),
    ]
    trace = Trace(spans)
    parts = attribute(trace, trace.by_id["q"]).parts
    assert parts["loadgen.wait"] == pytest.approx(0.004)
    assert parts["loadgen.send"] == pytest.approx(0.0002)
    assert parts["service.microbatcher.queue_wait"] == pytest.approx(0.045)
    assert parts["service.service.fanout"] == pytest.approx(0.010)


def test_layer_metrics_names_and_flush_counters():
    metrics = layer_metrics(
        flush_trace(), {"cpu_s": 0.02, "cache_hits": 0, "cache_misses": 3},
        llm_calls=[(0.05, 900, 1.2)], pairs=3, lag_ms_p99=0.5, overhead_pct=1.0,
    )
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["service.microbatcher.flush_pairs_mean"] == 3.0
    assert metrics["service.microbatcher.flushes_deadline_ratio"] == 1.0
    assert metrics["process.cpu_us_per_request"] == pytest.approx(0.02e6 / 2)
    assert metrics["pipeline.inference.busy_s"] == pytest.approx(0.070)
    assert metrics["llm.prompt_tokens_per_pair"] == pytest.approx(300.0)
    assert metrics["service.cache.hit_ratio"] == 0.0
    assert metrics["service.service.fanout_ms_p50"] == pytest.approx(10.0)


def test_layer_metrics_keep_to_the_window():
    # Only request b starts inside [1.02, 1.5]; the flush starts inside too.
    metrics = layer_metrics(
        flush_trace(), {}, llm_calls=[], pairs=1, lag_ms_p99=0.0, overhead_pct=0.0,
        since=1.02, until=1.5,
    )
    assert metrics["service.http.route_us_p50"] == pytest.approx((1.205 - 1.031) * 1e6)
