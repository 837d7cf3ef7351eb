"""Repeat ``run.py`` and summarise each metric: per-run values, median, spread.

Spread is the distance between the first and third quartile as a share of
the median (``stats.spread``).  Examples, from the repository root::

    # one set of ten runs per workload, one seed each
    python3 benchmarks/e2e/collect.py --seeds 0-9 --out spread.json

    # parent versus change: 10 pairs on the held-out seed 1, alternating
    python3 benchmarks/e2e/collect.py --seeds 1 --repeats 10 \\
        --checkout ../parent --checkout . --out compare.json

With two ``--checkout`` directories every run of one is paired with a run of
the other, and which of the two runs first alternates from pair to pair.  The
summary then gives, per workload and metric, both medians, the share of pairs
the second checkout won, and a verdict: ``gain`` (won at least 9 in 10 pairs
by more than the first's quartile distance), ``regressed`` (worse than the
bound in ``BENCHMARK.json``), ``unresolved`` (the first's own spread exceeds
the bound and not every run of the second is better), or ``ok``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from stats import spread  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, args: argparse.Namespace) -> dict:
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(args.trace),
    ]
    completed = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = [line for line in completed.stdout.splitlines() if line.startswith("{")]
    result = json.loads(lines[-1]) if lines else {}
    return {
        "seed": seed,
        "exit": completed.returncode,
        "correct": result.get("correct", False),
        "values": {name: entry["value"] for name, entry in result.get("metrics", {}).items()},
    }


def summarise(runs: list[dict]) -> dict:
    names = sorted({name for run in runs for name in run["values"]})
    summary = {}
    for name in names:
        values = [run["values"][name] for run in runs if name in run["values"]]
        summary[name] = {
            "values": values,
            "median": statistics.median(values),
            "spread": spread(values),
        }
    return summary


def verdict(metric: dict, base: dict, change: dict, wins: float) -> str:
    """``gain``, ``regressed``, ``unresolved`` or ``ok`` for one metric.

    A gain needs the second checkout to win at least 9 in 10 pairs and its
    median to beat the first's by more than the first's quartile distance.
    """
    if "better" not in metric:
        return "unknown metric"
    lower = metric["better"] == "lower"
    worse = change["median"] - base["median"] if lower else base["median"] - change["median"]
    if wins >= 0.9 and -worse > base["spread"] * abs(base["median"]):
        return "gain"
    bound = metric.get("bound")
    if bound is None:
        return "ok"
    every_run_better = (
        max(change["values"]) < min(base["values"])
        if lower
        else min(change["values"]) > max(base["values"])
    )
    if base["spread"] > bound and not every_run_better:
        return "unresolved"
    if worse > bound * abs(base["median"]):
        return "regressed"
    return "ok"


def compare(first: list[dict], second: list[dict], catalogue: dict) -> dict:
    base, change = summarise(first), summarise(second)
    rows = {}
    for name in base:
        if name not in change:
            continue
        metric = catalogue.get(name, {})
        lower = metric.get("better") == "lower"
        pairs = [
            (a["values"][name], b["values"][name])
            for a, b in zip(first, second)
            if name in a["values"] and name in b["values"]
        ]
        won = sum(1 for a, b in pairs if (b < a if lower else b > a))
        wins = won / len(pairs) if pairs else 0.0
        rows[name] = {
            "first_median": base[name]["median"],
            "second_median": change[name]["median"],
            "first_spread": base[name]["spread"],
            "second_wins": wins,
            "verdict": verdict(metric, base[name], change[name], wins),
        }
    return rows


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="0", help="e.g. 0-9 or 0,1")
    parser.add_argument("--repeats", type=int, default=1, help="runs per seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout to run in (repeat for a comparison)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    workloads = args.workload or [entry["name"] for entry in benchmark["workloads"]]
    # Runs are keyed by the checkout as given on the command line.
    checkouts = [str(path) for path in (args.checkout or [Path(".")])]
    catalogue = {entry["name"]: entry for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    report: dict = {"trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs: dict[str, list[dict]] = {checkout: [] for checkout in checkouts}
        pair = 0
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeats):
                order = checkouts if pair % 2 == 0 else checkouts[::-1]
                for checkout in order:
                    runs[checkout].append(run_once(Path(checkout), workload, seed, args))
                pair += 1
        entry = {
            checkout: {"runs": runs[checkout], "metrics": summarise(runs[checkout])}
            for checkout in checkouts
        }
        if len(checkouts) == 2:
            entry["comparison"] = compare(runs[checkouts[0]], runs[checkouts[1]], catalogue)
        report["workloads"][workload] = entry
        print(f"{workload}: {sum(len(r) for r in runs.values())} runs", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = [
        run for entry in report["workloads"].values() for key, value in entry.items()
        if key != "comparison" for run in value["runs"] if run["exit"] != 0 or not run["correct"]
    ]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
