"""Benchmark: dense baseline vs. exact-sparse batch planning.

*Batch planning* is everything between featurization and prompting: DBSCAN
clustering of the question feature vectors and covering-based demonstration
selection.  Two arms plan the same synthetic Gaussian-blob workload at
identical, pre-resolved radii:

- **dense** (n <= 20 000): this benchmark's own copy of the pre-refactor
  implementation — the full ``(n, n)`` pairwise matrix, per-point Python
  loops and an eager (re-scan every round) greedy set cover.
- **exact sparse** (every size): the planner's blocked CSR epsilon-graphs
  (:mod:`repro.clustering.neighbors`) with the array greedy set cover over
  the same CSR graphs.

The benchmark is an equivalence oracle as much as a stopwatch.  Where both
arms run they must produce *identical* labels and selections.  Peak planning
memory is measured with ``tracemalloc`` (numpy buffers included) and the
sparse arm is asserted to stay under ``--max-peak-gb`` at every size.

Every invocation also runs a small-n sweep (``SMALL_N_SIZES``, n = 16 to
2048, untraced, median of ``SMALL_N_REPEATS``) timing the dense arm against
the exact sparse arm under the same label/selection identity oracles; it is
reported under ``small_n``.

The run emits ``BENCH_planning.json`` in the repository root with the
headline numbers.  Unlike other ``BENCH_*`` artifacts the planning report is
*tracked*: the committed file records the machine-independent oracles (plan
equality) next to the indicative timings.

Standalone (the CI smoke invocation uses ``--small --min-speedup 0``)::

    PYTHONPATH=src python benchmarks/bench_batch_planning.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.batching.base import QuestionBatch
from repro.clustering.dbscan import DBSCAN, NOISE_LABEL
from repro.clustering.distance import pairwise_distances
from repro.clustering.neighbors import (
    NeighborPlanner,
    sample_percentile_radius,
)
from repro.data.schema import EntityPair, MatchLabel, Record
from repro.selection.covering import CoveringSelector
from repro.selection.set_cover import SetCoverSolution
from repro.text.tokenizer import ApproxTokenizer

#: Where the headline numbers land (repository root).
REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planning.json"

#: Default question-set sizes.  Every size runs the exact sparse arm; the
#: dense arm joins in below its limit so the plan-equality oracle stays
#: exercised.
DEFAULT_SIZES = (2000, 8000, 20000, 100_000)

#: Sizes of the CI smoke run (all within the dense arm's limit).
SMALL_SIZES = (300, 600, 5000)

#: Sizes of the small-n sweep, run on every invocation: dense baseline vs.
#: planner down to a service flush (n ~ 16), where a fixed per-call cost
#: would show as a crossover.
SMALL_N_SIZES = (16, 64, 256, 1024, 2048)

#: Timed runs per arm and size in the small-n sweep (median reported).
SMALL_N_REPEATS = 3

#: Largest n the dense (quadratic-matrix) baseline arm runs at.
DENSE_ARM_LIMIT = 20_000

#: Feature dimensionality of the synthetic workload.
DIMENSION = 8

#: Points per Gaussian blob (controls neighbourhood density).
BLOB_SIZE = 40

#: Ceiling percentile used to resolve the shared eps / covering threshold t.
#: Low on purpose: realistic planning radii keep neighbourhoods small
#: relative to n.
RADIUS_PERCENTILE = 0.5

#: The percentile is scaled down with n so the expected neighbourhood degree
#: stays ~constant instead of growing linearly — a fixed percentile at
#: n = 100k would mean ~500 neighbours per point.  The scaling also keeps eps
#: in the within-blob distance regime: the workload's within-blob pair
#: fraction is BLOB_SIZE / n, and a fixed percentile crosses above it as n
#: grows, snapping eps from ~1.5 to ~6 (whole-blob neighbourhoods, mean
#: degree ~95) between n = 8000 and n = 20000.
TARGET_DEGREE = 32


def radius_percentile_for(n: int) -> float:
    """Resolution percentile keeping expected degree ~TARGET_DEGREE at scale."""
    return min(RADIUS_PERCENTILE, 100.0 * TARGET_DEGREE / n)


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _traced(fn):
    """Run ``fn`` and return (result, seconds, peak_traced_bytes)."""
    tracemalloc.start()
    try:
        result, seconds = _timed(fn)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, seconds, peak


def make_features(n: int, m: int, seed: int = 11):
    """Blobby question/pool feature matrices (no pair objects)."""
    rng = np.random.default_rng(seed)
    num_blobs = max(1, n // BLOB_SIZE)
    centers = rng.normal(scale=4.0, size=(num_blobs, DIMENSION))
    assignments = rng.integers(0, num_blobs, size=n)
    question_features = centers[assignments] + rng.normal(scale=0.25, size=(n, DIMENSION))
    pool_assignments = rng.integers(0, num_blobs, size=m)
    pool_features = centers[pool_assignments] + rng.normal(scale=0.25, size=(m, DIMENSION))
    return question_features, pool_features


def make_pairs(n: int, m: int, seed: int = 11):
    """Synthetic question/pool EntityPairs for the covering arms."""
    rng = np.random.default_rng(seed + 1)

    def make_pair(tag: str, index: int, label: MatchLabel | None) -> EntityPair:
        values = {"name": f"{tag} item {index}", "price": str(index % 997)}
        return EntityPair(
            pair_id=f"{tag}-{index}",
            left=Record(record_id=f"{tag}-l{index}", values=values),
            right=Record(record_id=f"{tag}-r{index}", values=values),
            label=label,
        )

    questions = [make_pair("q", i, None) for i in range(n)]
    pool = [make_pair("d", i, MatchLabel(int(rng.integers(0, 2)))) for i in range(m)]
    return questions, pool


def make_batches(questions, batch_size: int = 8, seed: int = 5) -> list[QuestionBatch]:
    """Chunk a shuffled question order into batches (shared by all arms)."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(questions))
    batches = []
    for batch_id, start in enumerate(range(0, len(order), batch_size)):
        indices = tuple(int(i) for i in order[start : start + batch_size])
        batches.append(
            QuestionBatch(
                batch_id=batch_id,
                indices=indices,
                pairs=tuple(questions[i] for i in indices),
            )
        )
    return batches


# -- the dense baseline: the pre-refactor planning implementation -------------


def baseline_set_cover(num_items, coverage, weights=None) -> SetCoverSolution:
    """Pre-refactor greedy set cover: re-scan every candidate each round."""
    if weights is None:
        weights = [1.0] * len(coverage)
    universe = set(range(num_items))
    candidate_sets = [set(cover) & universe for cover in coverage]
    coverable = set().union(*candidate_sets)
    uncovered = set(coverable)
    remaining = list(range(len(candidate_sets)))
    selected = []
    while uncovered and remaining:
        best, best_efficiency, best_gain = -1, 0.0, 0
        for candidate in remaining:
            gain = len(candidate_sets[candidate] & uncovered)
            if gain == 0:
                continue
            efficiency = gain / weights[candidate]
            if efficiency > best_efficiency or (
                efficiency == best_efficiency and gain > best_gain
            ):
                best, best_efficiency, best_gain = candidate, efficiency, gain
        if best < 0:
            break
        selected.append(best)
        remaining.remove(best)
        uncovered -= candidate_sets[best]
    return SetCoverSolution(
        selected=tuple(selected),
        covered_items=frozenset(coverable - uncovered),
        uncovered_items=frozenset((universe - coverable) | uncovered),
        total_weight=float(sum(weights[index] for index in selected)),
    )


def baseline_dbscan(features: np.ndarray, eps: float, min_samples: int = 2):
    """Pre-refactor DBSCAN: dense matrix, per-point neighbour lists, list BFS."""
    n = features.shape[0]
    distances = pairwise_distances(features)
    neighbour_lists = [np.flatnonzero(distances[i] <= eps) for i in range(n)]
    core_mask = np.array(
        [len(neighbours) >= min_samples for neighbours in neighbour_lists]
    )
    labels = np.full(n, NOISE_LABEL, dtype=int)
    cluster_id = 0
    for point in range(n):
        if labels[point] != NOISE_LABEL or not core_mask[point]:
            continue
        labels[point] = cluster_id
        frontier = list(neighbour_lists[point])
        while frontier:
            neighbour = int(frontier.pop())
            if labels[neighbour] == NOISE_LABEL:
                labels[neighbour] = cluster_id
                if core_mask[neighbour]:
                    frontier.extend(
                        int(candidate)
                        for candidate in neighbour_lists[neighbour]
                        if labels[candidate] == NOISE_LABEL
                    )
        cluster_id += 1
    return labels


def baseline_covering(
    batches, question_features, pool, pool_features, threshold: float
):
    """Pre-refactor covering selection: dense (n, m) matrix, eager set cover."""
    from repro.clustering.distance import cross_distances
    from repro.data.serialization import serialize_pair

    tokenizer = ApproxTokenizer()
    distances = cross_distances(question_features, pool_features)
    num_questions, num_pool = distances.shape
    coverage = [
        frozenset(np.flatnonzero(distances[:, demo] < threshold).tolist())
        for demo in range(num_pool)
    ]
    generation = baseline_set_cover(num_questions, coverage, weights=None)
    demonstration_set = list(generation.selected)
    for question_index in sorted(generation.uncovered_items):
        nearest = int(np.argmin(distances[question_index]))
        if nearest not in demonstration_set:
            demonstration_set.append(nearest)
    token_weights = {
        demo: max(1.0, float(tokenizer.count(serialize_pair(pool[demo]))))
        for demo in demonstration_set
    }
    per_batch = []
    for batch in batches:
        batch_questions = list(batch.indices)
        local_coverage = []
        for demo in demonstration_set:
            local_coverage.append(
                frozenset(
                    position
                    for position, question_index in enumerate(batch_questions)
                    if distances[question_index, demo] < threshold
                )
            )
        solution = baseline_set_cover(
            len(batch_questions),
            local_coverage,
            weights=[token_weights[demo] for demo in demonstration_set],
        )
        chosen = [demonstration_set[position] for position in solution.selected]
        for position in sorted(solution.uncovered_items):
            question_index = batch_questions[position]
            nearest_demo = min(
                demonstration_set, key=lambda demo: distances[question_index, demo]
            )
            if nearest_demo not in chosen:
                chosen.append(nearest_demo)
        per_batch.append(tuple(dict.fromkeys(chosen)))
    return tuple(per_batch)


# -- the two arms --------------------------------------------------------------


def run_dense_arm(question_features, pool_features, pool, batches, eps, threshold):
    labels, cluster_seconds = _timed(lambda: baseline_dbscan(question_features, eps))
    selections, covering_seconds = _timed(
        lambda: baseline_covering(
            batches, question_features, pool, pool_features, threshold
        )
    )
    return {
        "labels": labels,
        "selections": selections,
        "cluster_seconds": cluster_seconds,
        "covering_seconds": covering_seconds,
    }


def run_sparse_arm(question_features, pool_features, pool, batches, eps, threshold):
    planner = NeighborPlanner()
    clusterer = DBSCAN(eps=eps, min_samples=2, planner=planner)
    fitted, cluster_seconds = _timed(lambda: clusterer.fit(question_features))
    selector = CoveringSelector(threshold=threshold, planner=planner)
    result, covering_seconds = _timed(
        lambda: selector.select(batches, question_features, pool, pool_features)
    )
    return {
        "labels": fitted.labels,
        "selections": tuple(batch.pool_indices for batch in result.per_batch),
        "cluster_seconds": cluster_seconds,
        "covering_seconds": covering_seconds,
    }


# -- the driver ----------------------------------------------------------------


def make_workload(n: int, seed: int):
    """One size's inputs: features, pool, batches and the shared radii.

    All arms plan at identical radii, resolved once — radius resolution is
    part of the planner but not of this stopwatch, which isolates the
    geometry consumers.  Above the dense limit the percentile is scaled to
    hold expected degree ~constant.
    """
    m = max(50, min(2000, n // 10))
    question_features, pool_features = make_features(n, m, seed)
    questions, pool = make_pairs(n, m, seed)
    batches = make_batches(questions)
    percentile = radius_percentile_for(n)
    eps = sample_percentile_radius(question_features, percentile)
    threshold = sample_percentile_radius(question_features, percentile * 0.8)
    return m, question_features, pool_features, pool, batches, percentile, eps, threshold


def run_small_n_sweep(seed: int) -> list[dict[str, object]]:
    """Dense baseline vs. planner at SMALL_N_SIZES, under the identity oracles."""
    rows = []
    for n in SMALL_N_SIZES:
        m, question_features, pool_features, pool, batches, _, eps, threshold = (
            make_workload(n, seed)
        )
        arguments = (question_features, pool_features, pool, batches, eps, threshold)
        seconds: dict[str, list[float]] = {"dense": [], "sparse": []}
        for _ in range(SMALL_N_REPEATS):
            dense, dense_seconds = _timed(lambda: run_dense_arm(*arguments))
            sparse, sparse_seconds = _timed(lambda: run_sparse_arm(*arguments))
            if not np.array_equal(dense["labels"], sparse["labels"]):
                raise AssertionError(f"n={n}: sparse DBSCAN labels diverge from dense")
            if dense["selections"] != sparse["selections"]:
                raise AssertionError(
                    f"n={n}: sparse covering selections diverge from dense"
                )
            seconds["dense"].append(dense_seconds)
            seconds["sparse"].append(sparse_seconds)
        dense_median = float(np.median(seconds["dense"]))
        sparse_median = float(np.median(seconds["sparse"]))
        rows.append(
            {
                "n": n,
                "m": m,
                "repeats": SMALL_N_REPEATS,
                "dense_seconds": round(dense_median, 5),
                "sparse_seconds": round(sparse_median, 5),
                "dense_sparse_equal": True,
                "speedup": round(dense_median / sparse_median, 2),
            }
        )
        print(
            f"n={n:>7} m={m:>5}  dense {dense_median:8.4f}s  "
            f"sparse {sparse_median:8.4f}s  (median of {SMALL_N_REPEATS})",
            file=sys.stderr,
        )
    return rows


def run_planning_bench(
    sizes,
    min_speedup: float,
    max_peak_gb: float,
    seed: int,
) -> dict[str, object]:
    results = []
    for n in sizes:
        m, question_features, pool_features, pool, batches, percentile, eps, threshold = (
            make_workload(n, seed)
        )
        arguments = (question_features, pool_features, pool, batches, eps, threshold)

        entry: dict[str, object] = {
            "n": n,
            "m": m,
            "batches": len(batches),
            "radius_percentile": percentile,
            "eps": round(eps, 6),
        }

        dense = None
        if n <= DENSE_ARM_LIMIT:
            dense, dense_seconds, dense_peak = _traced(lambda: run_dense_arm(*arguments))
            entry["dense_seconds"] = round(dense_seconds, 4)
            entry["dense_peak_bytes"] = dense_peak
            entry["dense_matrix_bytes"] = n * n * 8
        sparse, sparse_seconds, sparse_peak = _traced(lambda: run_sparse_arm(*arguments))
        entry["sparse_seconds"] = round(sparse_seconds, 4)
        entry["sparse_cluster_seconds"] = round(sparse["cluster_seconds"], 4)
        entry["sparse_peak_bytes"] = sparse_peak

        # -- plan-quality oracle (hard assertions, not just report fields) --
        if dense is not None:
            if not np.array_equal(dense["labels"], sparse["labels"]):
                raise AssertionError(f"n={n}: sparse DBSCAN labels diverge from dense")
            if dense["selections"] != sparse["selections"]:
                raise AssertionError(
                    f"n={n}: sparse covering selections diverge from dense"
                )
            entry["dense_sparse_equal"] = True
            entry["speedup"] = (
                round(dense_seconds / sparse_seconds, 2) if sparse_seconds else None
            )
        if max_peak_gb > 0 and sparse_peak > max_peak_gb * 1e9:
            raise AssertionError(
                f"n={n}: sparse arm peak {sparse_peak / 1e9:.2f} GB exceeds "
                f"the {max_peak_gb} GB budget"
            )

        results.append(entry)
        dense_text = (
            f"dense {entry['dense_seconds']:8.2f}s" if dense is not None else "dense      --"
        )
        print(
            f"n={n:>7} m={m:>5}  {dense_text}"
            f"  sparse {sparse_seconds:8.2f}s / {sparse_peak / 1e6:9.1f} MB",
            file=sys.stderr,
        )

    exact_entries = [e for e in results if "speedup" in e]
    largest = results[-1]
    headline: dict[str, object] = {
        "n": largest["n"],
        "sparse_seconds": largest["sparse_seconds"],
        "sparse_peak_bytes": largest["sparse_peak_bytes"],
    }
    if exact_entries:
        headline["speedup"] = exact_entries[-1]["speedup"]
        headline["speedup_n"] = exact_entries[-1]["n"]
    report = {
        "workload": {
            "dimension": DIMENSION,
            "blob_size": BLOB_SIZE,
            "radius_percentile": RADIUS_PERCENTILE,
            "target_degree": TARGET_DEGREE,
            "seed": seed,
        },
        "results": results,
        "small_n": run_small_n_sweep(seed),
        "headline": headline,
    }
    if min_speedup > 0:
        if not exact_entries:
            raise AssertionError("--min-speedup set but no dense-vs-sparse size ran")
        if exact_entries[-1]["speedup"] < min_speedup:
            raise AssertionError(
                f"headline speedup {exact_entries[-1]['speedup']}x below the "
                f"floor {min_speedup}x"
            )
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=lambda text: tuple(int(part) for part in text.split(",")),
        default=None,
        help="comma-separated question-set sizes (default: 2000,8000,20000,100000)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="append one extra size (e.g. --n 50000) to the size list",
    )
    parser.add_argument(
        "--small",
        action="store_true",
        help="tiny sizes for the CI smoke run (all oracles on, no timing floor)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail unless the largest dense-vs-sparse speedup reaches this floor",
    )
    parser.add_argument(
        "--max-peak-gb",
        type=float,
        default=16.0,
        help="fail if the sparse arm's traced peak exceeds this budget (0 disables)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--report", type=Path, default=REPORT_PATH, help="where to write the JSON report"
    )
    args = parser.parse_args()
    sizes = args.sizes or (SMALL_SIZES if args.small else DEFAULT_SIZES)
    if args.n is not None and args.n not in sizes:
        sizes = tuple(sorted((*sizes, args.n)))
    report = run_planning_bench(sizes, args.min_speedup, args.max_peak_gb, args.seed)
    args.report.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["headline"], indent=2))


if __name__ == "__main__":
    main()
