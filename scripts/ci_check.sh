#!/usr/bin/env bash
# CI gate: byte-compile the whole package, then run the tier-1 test suite.
# Usage: scripts/ci_check.sh [extra pytest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

# Checksums of the tracked benchmark reports, checked again at the end: a CI
# run must never rewrite them with this machine's numbers.
BENCH_SUMS="$(mktemp)"
git ls-files -z 'BENCH_*.json' | xargs -0 sha256sum > "$BENCH_SUMS"

echo "== compileall =="
# The bytecode goes to a scratch prefix, not into src/: `.pyc` files left in
# the checkout would speed up every later `import repro`, and the end-to-end
# benchmark times a fresh import as `setup_s`.
PYCACHE_DIR="$(mktemp -d)"
PYTHONPYCACHEPREFIX="$PYCACHE_DIR" python -m compileall -q src
rm -rf "$PYCACHE_DIR"

echo "== tier-1 tests =="
# --durations=15 keeps the slowest tests visible so suite latency creep is
# caught in review, not discovered months later.  The suite also runs
# `repro-serve --self-test` (tests/test_service_http.py::TestSelfTestCLI).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q --durations=15 "$@"

echo "== paper, ablation and component benches import (benchmarks/bench_*.py) =="
# Default collection finds only benchmarks/e2e, and these benches run only on
# manual invocations, so a public name one of them imports could vanish
# unnoticed; collecting them imports every one without running it (~2 s).
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest --collect-only -q -p no:cacheprovider \
  benchmarks/bench_*.py > /dev/null

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

echo "== feature engine smoke benchmark (BENCH_features.json) =="
# Featurizes the serve pool cold with the scalar loop and with extract_matrix
# (the similarity memo is emptied before each timed arm) and *asserts* equal
# matrices; it times both but gates neither.  The smoke
# report goes to a scratch file so it never clobbers the tracked
# BENCH_features.json.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_feature_engine.py \
  --report "$(mktemp)" > /dev/null

echo "== batch planning smoke benchmark (BENCH_planning.json) =="
# --small --min-speedup 0: a timing-independent run of the planning oracle —
# it *asserts* identical DBSCAN labels and covering selections between the
# benchmark's own dense baseline and the planner's exact sparse join at
# n = 300, 600 and 5000, and the n = 16 ... 2048 small-n sweep asserts the
# same identity.  The wall-clock floor (dense-vs-sparse speedup) is checked
# by the full-size manual invocation
# (benchmarks/bench_batch_planning.py --min-speedup 5).  The smoke report
# goes to a scratch file so it never clobbers a full-size BENCH_planning.json.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_batch_planning.py \
  --small --min-speedup 0 --report "$(mktemp)" > /dev/null

echo "== checkpointed run engine smoke benchmark (BENCH_engine.json) =="
# --small: a crash-resume oracle, not a stopwatch — it *asserts* that a
# checkpointed concurrent run is byte-identical to the stock Pipeline.default
# oracle and that a run killed mid-flight resumes from its checkpoint with
# zero repeated LLM calls.
# The smoke report goes to a scratch file so it never clobbers a full-size
# BENCH_engine.json with small-n numbers.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_checkpointed_run.py \
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

echo "== end-to-end benchmark smoke (benchmarks/e2e) =="
# The benchmark's own tests: `run.py --small` on all four workloads, untraced
# and traced, with every output check, plus its stats and speed helpers.  The
# only step that drives the served flush path (micro-batch plan, dispatch on
# the LLM pool, fan-out) end to end, over HTTP too.  About 16 s.
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -p no:cacheprovider \
  benchmarks/e2e > /dev/null

echo "== examples (examples/*.py) =="
# Every example is hermetic (simulated engine, in-process fake provider,
# temporary checkpoint directories), so each runs to completion offline; a
# public-API change that breaks one fails here instead of silently.
for example in examples/*.py; do
  echo "-- $example"
  PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python "$example" > /dev/null
done

echo "== tracked benchmark reports unchanged (BENCH_*.json) =="
sha256sum --check --quiet "$BENCH_SUMS"
rm -f "$BENCH_SUMS"

echo "== OK =="
