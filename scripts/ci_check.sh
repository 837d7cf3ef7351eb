#!/usr/bin/env bash
# CI gate: byte-compile the whole package, then run the tier-1 test suite.
# Usage: scripts/ci_check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== compileall =="
python -m compileall -q src

echo "== tier-1 tests =="
# --durations=15 keeps the slowest tests visible so suite latency creep is
# caught in review, not discovered months later.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q --durations=15 "$@"

echo "== service smoke test (repro-serve --self-test) =="
# The self-test also validates the observability surface end to end: it runs
# one traced pass and one untraced pass (equal labels prove instrumentation
# never alters results), asserts span nesting, and scrapes its own
# GET /metrics over HTTP to check the Prometheus exposition is well-formed
# with populated latency histograms, retry counters and cache hit-rate gauges,
# and GETs /stats to check that every counter it reports (submissions,
# resolutions, joins, rejections, flushes, cache, bulk) equals its /metrics
# sample — the metrics registry is the only store behind both endpoints.
# It additionally serves itself over HTTP to assert that a cached
# POST /resolve body comes off the wire byte-identical to the one
# ServiceRouter.handle returns in-process, and that HEAD /healthz answers 200
# without a body; and it checks the tenant admission layer (quota
# reject/recover, budget blocking, API-key auth) on a fake clock.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.service.cli --self-test

echo "== observability smoke (traced run + repro-trace render) =="
# A fixed-seed traced pipeline run persists its spans as JSONL; the reader
# must parse the file, the spans must nest under one batcher:run root, and
# the repro-trace CLI must render the latency tree from the same file.
OBS_TRACE="$(mktemp)"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python - "$OBS_TRACE" <<'PY'
import sys

from repro.core.batcher import BatchER
from repro.core.config import BatcherConfig
from repro.data.registry import load_dataset
from repro.observability import JsonlTraceSink, Tracer, read_trace_file

trace_path = sys.argv[1]
with JsonlTraceSink(trace_path) as sink:
    dataset = load_dataset("beer", seed=7, scale=1.0)
    BatchER(BatcherConfig(seed=1, max_questions=8), tracer=Tracer(sink=sink)).run(dataset)
spans = read_trace_file(trace_path)
assert spans, "traced run persisted no spans"
roots = [span for span in spans if span["parent"] is None]
assert [root["name"] for root in roots] == ["batcher:run"], roots
known = {span["span"] for span in spans}
assert all(span["parent"] in known for span in spans if span["parent"] is not None)
assert any(str(span["name"]).startswith("stage:") for span in spans)
PY
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro.observability.cli "$OBS_TRACE" --top 5 > /dev/null
rm -f "$OBS_TRACE"

echo "== observability smoke benchmark (BENCH_observability.json) =="
# --small --max-overhead-pct 0: an identity and trace-shape oracle, not a
# stopwatch — it *asserts* that a traced run returns byte-identical results
# to the untraced run and that the persisted trace nests correctly; the
# wall-clock overhead floor stays for manual/release invocations
# (benchmarks/bench_observability.py asserts <= 5% by default).
# The smoke report goes to a scratch file so it never clobbers a full-size
# BENCH_observability.json with small-n numbers.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_observability.py \
  --small --max-overhead-pct 0 --report "$(mktemp)" > /dev/null

echo "== feature engine smoke benchmark (BENCH_features.json) =="
# --min-speedup 0: the smoke run checks the equivalence oracles and emits the
# report; the wall-clock floor stays for manual/release invocations only
# (timing assertions on shared CI runners are load-dependent).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_feature_engine.py --min-speedup 0 > /dev/null

echo "== batch planning smoke benchmark (BENCH_planning.json) =="
# --small --min-speedup 0 --min-lsh-speedup 0: a timing-independent run of
# the planning oracles — it *asserts* identical DBSCAN labels and covering
# selections across the benchmark's own dense baseline, the planner's exact
# sparse regime and the LSH arm; the n = 16 ... 2048 small-n sweep asserts
# the same dense/sparse identity; and at n = 5000 it rebuilds the exact
# graph to check the LSH subgraph property and the >= 0.95 edge-recall
# floor.  The wall-clock floors (dense-vs-sparse and LSH-vs-exact-sparse
# speedups) are checked by the full-size manual invocation
# (benchmarks/bench_batch_planning.py --min-speedup 5 --min-lsh-speedup 5
# --n 1000000).  The smoke report goes to a scratch file so it never
# clobbers a full-size BENCH_planning.json.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_batch_planning.py \
  --small --min-speedup 0 --min-lsh-speedup 0 --report "$(mktemp)" > /dev/null

echo "== engines smoke benchmark (BENCH_async.json) =="
# --small --min-speedup 0: a dispatch-identity and retry-parity oracle, not a
# stopwatch — it *asserts* that the simulated engine through AsyncExecutor is
# byte-identical to serial dispatch and that an OpenAI-dialect engine over a
# flaky scripted transport retries to the same responses with zero
# double-counted usage records.  Timing floors are for manual invocations.
# The smoke report goes to a scratch file so it never clobbers a full-size
# BENCH_async.json with small-n numbers.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_async_dispatch.py \
  --small --min-speedup 0 --report "$(mktemp)" > /dev/null

echo "== sharded run engine smoke benchmark (BENCH_engine.json) =="
# --small: a crash-resume oracle, not a stopwatch — it *asserts* that the
# sharded run is byte-identical to the unsharded path and that a run killed
# mid-flight resumes from its checkpoints with zero repeated LLM calls.
# The smoke report goes to a scratch file so it never clobbers a full-size
# BENCH_engine.json with small-n numbers.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_sharded_run.py \
  --small --report "$(mktemp)" > /dev/null

echo "== resilience chaos smoke benchmark (BENCH_resilience.json) =="
# Deterministic chaos harness on the fake clock — zero real sleeps.  It
# *asserts* the breaker-open p50 is <1% of the full-retry-ladder baseline
# against a dead backend, that a flapping backend recovers within one
# half-open probe cycle, that a deadline budget caps a slow-but-alive stall
# below the unbudgeted ladder, and that a healthy run with the breaker wired
# is byte-identical to one without.  The smoke report goes to a scratch file
# so it never clobbers a full-size BENCH_resilience.json with small-n numbers.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_resilience.py \
  --small --report "$(mktemp)" > /dev/null

echo "== serving latency smoke benchmark (BENCH_latency.json) =="
# --small --oracles-only: timing-independent — it *asserts* that every body
# the asyncio front end puts on the wire is byte-identical to the one
# ServiceRouter.handle returns in-process for an identically seeded service
# (live and cached passes), and that a greedy tenant hammering admission at
# 10x quota cannot starve a quota-respecting tenant (virtual-clock token
# buckets).  The p50/p95/p99 load arm runs only on manual/release
# invocations; the smoke report goes to a scratch file so it never clobbers
# the tracked full-size BENCH_latency.json.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_latency.py \
  --small --oracles-only --report "$(mktemp)" > /dev/null

echo "== OK =="
