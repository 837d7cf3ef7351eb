"""Smoke test of the end-to-end benchmark: ``run.py --small`` on every workload.

Each run must pass its output checks and print exactly the metric names and
units ``BENCHMARK.json`` declares; ``BENCHMARK.json`` itself must satisfy the
benchmark format.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return completed, result


def declared(section: str) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in BENCHMARK[section]}


def emitted(result: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in result["metrics"].items()}


def test_benchmark_file_follows_the_format():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [e["name"] for e in BENCHMARK["workloads"] + BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in BENCHMARK["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("higher", "lower")
    bounds = {entry["name"]: entry["bound"] for entry in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert BENCHMARK["run_seconds"] == workloads.FULL.window_s


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_emits_declared_metrics_and_passes_its_checks(workload):
    completed, result = run("--small", "--workload", workload, "--seconds", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert emitted(result) == declared("end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", ["batch_suite", "serve_http"])
def test_traced_small_run_emits_declared_layers_and_keeps_outputs(workload):
    completed, result = run("--small", "--workload", workload, "--trace", "1")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert result["correct"], completed.stdout
    assert emitted(result) == declared("per_layer")
    trace = HERE / "out" / f"{workload}-seed0-small.trace.jsonl"
    rendered = subprocess.run(
        [sys.executable, "-m", "repro.observability.cli", str(trace), "--top", "3"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, stdout=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert rendered.returncode == 0 and "per-stage latency" in rendered.stdout


def test_refuses_to_run_without_the_program_source(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed, result = run("--workload", "serve_hot", "--seed", "0", "--seconds", "15",
                            cwd=tmp_path)
    assert completed.returncode == 2
    assert result is None
    assert "no program source" in completed.stderr


def test_window_is_not_a_knob():
    completed, result = run("--small", "--workload", "batch_suite", "--seconds", "5")
    assert completed.returncode == 2 and result is None
    assert "window is fixed" in completed.stderr
