"""End-to-end benchmark of the BatchER program.

Four workloads (``workloads.py``), each run in a fresh program process
(``program.py``).  Every end-to-end metric is printed by name with its unit,
every output is checked, and the last line of stdout is one JSON object::

    {"correct": true, "attempted": 2140, "failed": 0,
     "metrics": {"latency_p50_ms": {"value": 131.3, "unit": "ms"}, ...}}

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0                     # all four workloads
    python3 benchmarks/e2e/run.py --workload serve_http --seed 3
    python3 benchmarks/e2e/run.py --workload serve_http --seed 0 --trace 1

Without ``--workload`` the last line's metrics are named
``<workload>.<metric>``.  ``--trace 1`` runs the workload twice, untraced and
then traced (``probes.py``); it checks that tracing changed no output and
prints the per-layer metrics of ``layers.py`` instead of the end-to-end ones.
The spans land in ``benchmarks/e2e/out/<workload>-seed<n>.trace.jsonl``, which
``python3 -m repro.observability.cli`` (``repro-trace``) renders.

The window is fixed (``workloads.Sizes.window_s``).  ``--seconds`` is
accepted because benchmark runners pass ``BENCHMARK.json``'s ``run_seconds``,
and refused unless it equals the window.

Times are reported in reference seconds (``speed.py``): this process and the
program processes are each pinned to one CPU, a fixed reference is timed on
each between the steps of a run, and each step's CPU time is scaled by how
fast its CPU ran the reference.  The wall-clock values are printed as a note.

Exit status: 0 when every check passed, 1 when an output check failed, 2
when the run could not be measured (no ``src/repro`` next to the benchmark,
a program that did not start, or an open-loop generator that ran late).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
OUT = HERE / "out"

import loadgen  # noqa: E402 - sibling modules, importable without repro
import speed  # noqa: E402
import workloads  # noqa: E402
from stats import f1_percent, percentile, samples_beyond, tail_percentile  # noqa: E402

#: ``(name, unit, better)`` of every end-to-end metric, in report order.
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("pairs_per_s", "pairs/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("slo_ok_ratio", "ratio", "higher"),
    ("answered_ratio", "ratio", "higher"),
    ("usd_per_1k_pairs", "USD", "lower"),
    ("f1", "%", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: F1 below this means the outputs are wrong, not just worse.
F1_FLOOR = 50.0

#: An open-loop run is invalid when the generator's p99 lag exceeds this
#: share of the workload's latency limit.
LAG_LIMIT_SHARE = 0.10

#: Traced runs must leave at most this share of time to no layer.
UNATTRIBUTED_LIMIT = 0.05

#: Seconds any single program process may take.
PROGRAM_TIMEOUT_S = 150.0


class Unmeasurable(RuntimeError):
    """The run produced no trustworthy measurement (exit status 2)."""


@dataclass
class Outcome:
    """One measured run of one workload.

    ``answers`` are the outputs that must not depend on timing or tracing
    (``RunResult`` digests, or labels by pair id); a traced run must give the
    same ones.
    """

    metrics: dict[str, float]
    checks: dict[str, bool]
    attempted: int
    failed: int
    answers: dict[str, object]
    notes: list[str] = field(default_factory=list)
    #: Raw material of the per-layer metrics (traced runs only).
    layer_input: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


# -- program processes ---------------------------------------------------------


def program_command(name: str, args: argparse.Namespace, setup_only=False, trace=None) -> list[str]:
    command = [sys.executable, str(HERE / "program.py"), "--workload", name, "--seed", str(args.seed)]
    if args.small:
        command.append("--small")
    if setup_only:
        command.append("--setup-only")
    if trace is not None:
        command += ["--trace", str(trace)]
    if args.cpu is not None:
        command += ["--cpu", str(args.cpu)]
    return command


def pin() -> int | None:
    """Pin this process to one CPU and return the CPU for program processes.

    The load generator and the program then do not share a CPU (unless
    there is only one), and each times the speed reference on the CPU its
    own work runs on (``speed``).  Nothing is pinned where the platform
    cannot.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SOURCE) + (os.pathsep + inherited if inherited else "")
    return env


def last_json(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise Unmeasurable("program printed no result")


def run_program(command: list[str]) -> dict:
    try:
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=program_env(), cwd=ROOT,
            timeout=PROGRAM_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise Unmeasurable(f"program did not finish within {PROGRAM_TIMEOUT_S:g} s") from error
    if completed.returncode != 0:
        raise Unmeasurable(f"program exited with status {completed.returncode}")
    return last_json(completed.stdout)


class Server:
    """A ``server``-role program process, driven over stdin/stdout."""

    def __init__(self, command: list[str]) -> None:
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=program_env(), cwd=ROOT,
        )
        self.ready = self._read("ready")

    def _read(self, event: str) -> dict:
        for line in self.process.stdout:
            if line.startswith("{"):
                message = json.loads(line)
                if message.get("event") == event:
                    return message
        raise Unmeasurable(f"program exited before {event!r}")

    def _send(self, command: str) -> None:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()

    def mark(self) -> dict:
        """The service's counters now, and a speed reference timing on the
        program's CPU (``speed``)."""
        self._send("mark")
        return self._read("mark")

    def stop(self) -> dict:
        self._send("stop")
        result = self._read("result")
        self.process.wait(timeout=PROGRAM_TIMEOUT_S)
        return result

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def setup_samples(name: str, args: argparse.Namespace, repeats: int) -> list[dict]:
    """Set-up reports of ``repeats - 1`` extra set-up-only program processes."""
    return [run_program(program_command(name, args, setup_only=True)) for _ in range(repeats - 1)]


def setup_s(setups: list[dict]) -> float:
    """Median set-up time in reference seconds (``speed``)."""
    return statistics.median(
        setup["setup_wall_s"] * speed.scale(*setup["setup_references"]) for setup in setups
    )


def reference_note(references: list[float]) -> str:
    """The note summarising the speed reference's timings (``speed``)."""
    if not references:
        return "speed reference: not timed"
    ms = [seconds * 1000.0 for seconds in references]
    return (
        f"speed reference: {len(ms)} timings, median {statistics.median(ms):.2f} ms, "
        f"{min(ms):.2f}-{max(ms):.2f} ms (nominal {speed.NOMINAL_S * 1000.0:g} ms)"
    )


def wall_note(setups: list[dict], metrics: dict[str, float]) -> str:
    """The note giving the wall-clock values of metrics reported in
    reference seconds."""
    wall = {"setup_s": statistics.median(setup["setup_wall_s"] for setup in setups), **metrics}
    return "wall clock: " + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())


# -- shared metric helpers -----------------------------------------------------


def latency_metrics(latencies_s: list[float], limit_ms: float) -> tuple[dict, str]:
    """p50, the supported tail and the SLO share over the whole window."""
    tail = tail_percentile(len(latencies_s))
    ok = sum(1 for latency in latencies_s if latency * 1000.0 <= limit_ms)
    metrics = {
        "latency_p50_ms": percentile(latencies_s, 50) * 1000.0,
        "latency_tail_ms": percentile(latencies_s, tail) * 1000.0,
        "slo_ok_ratio": ok / len(latencies_s),
    }
    note = (
        f"latency over n={len(latencies_s)}; tail is p{tail:g} "
        f"({samples_beyond(len(latencies_s), tail)} samples beyond); limit {limit_ms:g} ms"
    )
    return metrics, note


def timings(latency: dict[str, float]) -> dict[str, float]:
    """The latency percentiles of :func:`latency_metrics`' metrics."""
    return {name: latency[name] for name in ("latency_p50_ms", "latency_tail_ms")}


def usd_per_1k(counters: dict, pairs: int) -> float:
    return (counters["api_usd"] + counters["labeling_usd"]) * 1000.0 / pairs


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def lag_check(workload: workloads.Workload, lags_s: list[float]) -> tuple[float, str]:
    lag_ms = percentile(lags_s, 99) * 1000.0
    if lag_ms > LAG_LIMIT_SHARE * workload.limit_ms:
        raise Unmeasurable(
            f"load generator p99 lag {lag_ms:.1f} ms exceeds "
            f"{LAG_LIMIT_SHARE:.0%} of the {workload.limit_ms:g} ms limit"
        )
    return lag_ms, f"generator lag p99 {lag_ms:.2f} ms"


def client_spans(records: list[loadgen.Sent]) -> list:
    """``loadgen:request`` (due to done) and ``loadgen:send`` (send to done)."""
    from repro.observability.tracing import Span

    spans = []
    for record in records:
        request = f"q{record.key}"
        spans.append(Span("loadgen:request", record.trace, request, None, record.due,
                          record.done, "ok", {"status": record.status}))
        spans.append(Span("loadgen:send", record.trace, record.span, request, record.send,
                          record.done, "ok", {}))
    return spans


# -- workloads -------------------------------------------------------------------


def job_scale(stage_seconds: list[float], references: list[float], first: int, last: int) -> float:
    """Factor from a batch job's wall seconds to reference seconds: its
    stages' factors (``speed``), weighted by their wall seconds.  1 when the
    job's stages were not metered (traced runs)."""
    stages = stage_seconds[first:last]
    if not stages:
        return 1.0
    return sum(speed.scaled(stages, references[first:last + 1])) / sum(stages)


def measure_batch(workload, args, size, repeats, trace) -> Outcome:
    setups = setup_samples(workload.name, args, repeats)
    result = run_program(program_command(workload.name, args, trace=trace))
    setups.append(result)
    jobs = result["jobs"]
    gold = [label for job in jobs for label in job["gold"]]
    pred = [label for job in jobs for label in job["pred"]]
    questions = len(gold)
    unanswered = sum(job["unanswered"] for job in jobs)
    walls = [job["seconds"] for job in jobs]
    seconds = [
        wall * job_scale(result["stage_seconds"], result["references"], *job["stages"])
        for wall, job in zip(walls, jobs)
    ]
    # A round runs the whole suite; its time is what a batch user waits for.
    rounds: dict[int, float] = {}
    wall_rounds: dict[int, float] = {}
    for job, wall, scaled_s in zip(jobs, walls, seconds):
        if job["round"] >= 0:
            rounds[job["round"]] = rounds.get(job["round"], 0.0) + scaled_s
            wall_rounds[job["round"]] = wall_rounds.get(job["round"], 0.0) + wall
    latency, note = latency_metrics(list(rounds.values()), workload.limit_ms)
    wall_latency, _ = latency_metrics(list(wall_rounds.values()), workload.limit_ms)
    metrics = {
        "setup_s": setup_s(setups),
        "pairs_per_s": questions / sum(seconds),
        **latency,
        "answered_ratio": (questions - unanswered) / questions,
        "usd_per_1k_pairs": usd_per_1k(
            {key: sum(job[key] for job in jobs) for key in ("api_usd", "labeling_usd")},
            questions,
        ),
        "f1": f1_percent(gold, pred),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    first_round = {job["dataset"]: job["digest"] for job in jobs if job["round"] == 0}
    repeated = [job for job in jobs if job["round"] >= 0]
    checks = {
        "every question has a prediction": all(len(j["pred"]) == len(j["gold"]) for j in jobs),
        "reported F1 equals recounted F1": all(
            abs(job["f1"] - f1_percent(job["gold"], job["pred"])) < 1e-9 for job in jobs
        ),
        "one model call per question batch": all(job["calls"] == job["batches"] for job in jobs),
        "every round's RunResults equal the first round's": all(
            job["digest"] == first_round[job["dataset"]] for job in repeated
        ),
        f"pooled F1 >= {F1_FLOOR:g}": metrics["f1"] >= F1_FLOOR,
    }
    notes = [
        note,
        f"{len(jobs)} jobs: one first, then {len(rounds)} rounds; {questions} questions, "
        f"{sum(seconds):.1f} reference s ({sum(walls):.1f} wall s); setup over {len(setups)} starts",
        wall_note(setups, {"pairs_per_s": questions / sum(walls), **timings(wall_latency)}),
        reference_note(result["references"]),
    ]
    layer_input = {
        "counters": {
            **result.get("counters", {}),
            "cpu_s": result["cpu_s"],
            **{key: sum(job[key] for job in jobs) for key in ("api_usd", "labeling_usd", "labeled")},
        },
        "llm_calls": result.get("llm_calls", []),
        "pairs": questions,
        "cpu_per_pair": result["cpu_s"] / questions,
        "lag_ms_p99": 0.0,
    }
    answers = {f"{job['round']}/{job['dataset']}": job["digest"] for job in jobs}
    return Outcome(metrics, checks, questions, unanswered, answers, notes, layer_input)


def chunk_scales(chunks: list[dict], references: list[float]) -> list[float]:
    """Factor to reference seconds of each chunk a program process ran on its
    own CPU (``speed.step_scale``); ``references`` are timed between them."""
    return [
        speed.step_scale(chunk["seconds"], [(chunk["cpu_s"], speed.scale(before, after))])
        for chunk, before, after in zip(chunks, references, references[1:])
    ]


def measure_live(workload, args, size, repeats, trace) -> Outcome:
    setups = setup_samples(workload.name, args, repeats)
    result = run_program(program_command(workload.name, args, trace=trace))
    setups.append(result)
    burst, window = result["burst"], result["window"]
    gold = result["gold"]
    size_burst = len(burst["labels"])
    burst_gold, window_gold = gold[:size_burst], gold[size_burst:]
    latencies = [done - due for done, due in zip(window["done"], window["due"])]
    lags = [
        sent - max(due, ready)
        for sent, due, ready in zip(window["sent"], window["due"], window["ready"])
    ]
    lag_ms, lag_note = lag_check(workload, lags)
    # Each window chunk's latencies are scaled by that chunk's factor.
    scales = chunk_scales(window["chunks"], window["references"])
    bounds = [chunk["first"] for chunk in window["chunks"]] + [len(latencies)]
    latency, note = latency_metrics(
        [latency * factor for factor, first, last in zip(scales, bounds, bounds[1:])
         for latency in latencies[first:last]],
        workload.limit_ms,
    )
    wall_latency, _ = latency_metrics(latencies, workload.limit_ms)
    after_burst, session = result["after_burst"], result["session"]
    answered = burst["answered"] + window["answered"]
    chunks = burst["chunks"]
    burst_s = sum(chunk["seconds"] for chunk in chunks)
    scaled_burst_s = sum(
        chunk["seconds"] * factor
        for chunk, factor in zip(chunks, chunk_scales(chunks, burst["references"]))
    )
    metrics = {
        "setup_s": setup_s(setups),
        "pairs_per_s": size_burst / scaled_burst_s,
        **latency,
        "answered_ratio": sum(answered) / len(answered),
        "usd_per_1k_pairs": usd_per_1k(after_burst, size_burst),
        "f1": f1_percent(burst_gold, burst["labels"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    checks = {
        "every submitted pair resolved": session["resolved"] == session["submitted"] == len(gold),
        "no submission refused": session["rejected"] == 0,
        "no cache hit on never-seen pairs": session["cache_hits"] == 0,
        f"F1 >= {F1_FLOOR:g}": metrics["f1"] >= F1_FLOOR,
    }
    window_counters = delta(session, after_burst)
    pairs = len(window["labels"])
    expected_flushes = math.ceil(size_burst / result["max_batch_size"])
    notes = [
        note, lag_note,
        f"burst of {size_burst} pairs in {len(chunks)} chunks, {after_burst['flushes']} flushes "
        f"({expected_flushes} full ones expected), {burst_s:.2f} s of which "
        f"{sum(chunk['cpu_s'] for chunk in chunks):.2f} CPU s; window of {pairs} pairs; "
        f"setup over {len(setups)} starts",
        f"window answers (timing-dependent): F1 {f1_percent(window_gold, window['labels']):.2f}%, "
        f"${usd_per_1k(window_counters, pairs):.3f}/1k pairs, "
        f"{pairs / window_counters['flushes']:.1f} pairs per flush",
        wall_note(setups, {"pairs_per_s": size_burst / burst_s, **timings(wall_latency)}),
        reference_note(burst["references"] + window["references"]),
    ]
    first_due = min(window["due"])
    layer_input = {
        "counters": window_counters,
        "llm_calls": [call for call in result.get("llm_calls", []) if call[2] >= first_due],
        "pairs": pairs,
        "cpu_per_pair": window_counters["cpu_s"] / pairs,
        "lag_ms_p99": lag_ms,
        "since": first_due,
    }
    answers = {f"burst/{index}": label for index, label in enumerate(burst["labels"])}
    failed = len(answered) - sum(answered)
    return Outcome(metrics, checks, len(gold), failed, answers, notes, layer_input)


def measure_server(workload, args, size, repeats, trace) -> Outcome:
    setups = setup_samples(workload.name, args, repeats)
    server = Server(program_command(workload.name, args, trace=trace))
    try:
        setups.append(server.ready)
        port = server.ready["port"]
        count = size.hot_connections if workload.name == "serve_hot" else size.http_connections
        connections = [loadgen.Connection(port) for _ in range(count)]
        try:
            drive = drive_hot if workload.name == "serve_hot" else drive_http
            phases = drive(server, connections, args, size)
        finally:
            for connection in connections:
                connection.close()
        phases["result"] = server.stop()
    finally:
        server.close()
    finish = hot_outcome if workload.name == "serve_hot" else http_outcome
    outcome = finish(workload, phases, setups)
    outcome.notes += [f"setup over {len(setups)} starts", reference_note(phases["references"])]
    return outcome


def drive_hot(server: Server, connections, args, size) -> dict:
    """Pre-warm the working set through ``/bulk``, warm up, then measure."""
    working = workloads.unseen_pairs(size, size.hot_pairs)
    status, body = connections[0].post("/bulk", loadgen.payload(working))
    if status != 200:
        raise Unmeasurable(f"pre-warm /bulk answered {status}")
    prewarmed = {entry["pair_id"]: entry for entry in json.loads(body)["resolutions"]}
    generator = workloads.rng("serve_hot", args.seed)
    picks = [[working[generator.randrange(len(working))]]
             for _ in range(size.hot_warmup + size.hot_requests)]
    warm = loadgen.closed_loop(connections, picks[: size.hot_warmup], "w")
    measured = picks[size.hot_warmup:]
    window = metered_closed_loop(server, connections, measured, size.hot_chunk, "")
    return {"working": working, "prewarmed": prewarmed, "warm": warm, **window}


def drive_http(server: Server, connections, args, size) -> dict:
    """Warm up, the open-loop window, then the saturating closed loop."""
    warm_blocks, window_blocks, capacity_blocks = workloads.http_blocks(size, args.seed)
    warm = loadgen.open_loop(
        connections, warm_blocks, workloads.steady_arrivals(len(warm_blocks), size.http_rate), "w"
    )
    before = server.mark()["counters"]
    records = loadgen.open_loop(
        connections, window_blocks, workloads.steady_arrivals(len(window_blocks), size.http_rate)
    )
    after = server.mark()["counters"]
    capacity = metered_closed_loop(server, connections, capacity_blocks, size.http_chunk, "x")
    return {"warm": warm, "records": records, "capacity": capacity,
            "before": before, "after": after, "references": capacity["references"]}


def metered_closed_loop(server: Server, connections, requests: list[list], per_chunk: int,
                        key_prefix: str) -> dict:
    """A closed loop over ``requests``, ``per_chunk`` at a time.

    Between chunks the program is idle.  There the speed reference is timed
    on both CPUs (``speed``) — here and in the program — and the program's
    counters are taken, so each chunk gets its factor to reference seconds
    from this process's and the program's CPU time, each at its own CPU's
    speed (``speed.step_scale``).  Returns the chunks' records, their
    factors, the program's counters before the first chunk and after the
    last, and every reference timing.
    """
    marks, references = [server.mark()], [speed.reference()]
    chunks, scales = [], []
    for first in range(0, len(requests), per_chunk):
        cpu = time.process_time()
        chunk = loadgen.closed_loop(connections, requests[first:first + per_chunk],
                                    f"{key_prefix}{first}-")
        cpu = time.process_time() - cpu
        marks.append(server.mark())
        references.append(speed.reference())
        before, after = marks[-2], marks[-1]
        work = [
            (cpu, speed.scale(references[-2], references[-1])),
            (after["counters"]["cpu_s"] - before["counters"]["cpu_s"],
             speed.scale(before["reference"], after["reference"])),
        ]
        chunks.append(chunk)
        scales.append(speed.step_scale(busy_s(chunk), work))
    return {
        "chunks": chunks,
        "scales": scales,
        "counters": (marks[0]["counters"], marks[-1]["counters"]),
        "references": references + [mark["reference"] for mark in marks],
    }


def served(records: list[loadgen.Sent]) -> tuple[dict[str, dict], int, bool]:
    """Resolutions by pair id, failed pairs, and whether every resolution
    echoed its pair in order."""
    answers: dict[str, dict] = {}
    failed = 0
    echoed = True
    for record in records:
        resolutions = record.resolutions()
        if len(resolutions) != len(record.pairs):
            failed += len(record.pairs)
            continue
        for pair, resolution in zip(record.pairs, resolutions):
            echoed &= resolution["pair_id"] == pair.pair_id
            failed += 0 if resolution["answered"] else 1
            answers[pair.pair_id] = resolution
    return answers, failed, echoed


def busy_s(records: list[loadgen.Sent]) -> float:
    """Seconds from the first send to the last reply."""
    return max(r.done for r in records) - min(r.send for r in records)


def sent_pairs(records: list[loadgen.Sent]) -> int:
    return sum(len(record.pairs) for record in records)


def answered_latencies(records: list[loadgen.Sent], factor: float = 1.0) -> list[float]:
    """Request latencies times ``factor``; a failed request's is infinite."""
    return [r.latency * factor if r.status == 200 else float("inf") for r in records]


def hot_outcome(workload, phases: dict, setups: list[dict]) -> Outcome:
    chunks, scales = phases["chunks"], phases["scales"]
    records = [record for chunk in chunks for record in chunk]
    warm, result = phases["warm"], phases["result"]
    session = result["session"]
    everything = warm + records
    _, failed, echoed = served(everything)
    prewarmed = phases["prewarmed"]
    matched = all(
        record.resolutions()[0]["label"] == prewarmed[record.pairs[0].pair_id]["label"]
        for record in everything if record.status == 200
    )
    working = phases["working"]
    walls = [busy_s(chunk) for chunk in chunks]
    latency, note = latency_metrics(
        [latency for chunk, factor in zip(chunks, scales)
         for latency in answered_latencies(chunk, factor)],
        workload.limit_ms,
    )
    wall_latency, _ = latency_metrics(answered_latencies(records), workload.limit_ms)
    served_pairs = len(working) + len(everything)
    metrics = {
        "setup_s": setup_s(setups),
        "pairs_per_s": len(records) / sum(w * f for w, f in zip(walls, scales)),
        **latency,
        "answered_ratio": 1.0 - (failed + sum(not e["answered"] for e in prewarmed.values()))
        / served_pairs,
        "usd_per_1k_pairs": usd_per_1k(session, served_pairs),
        "f1": f1_percent([int(pair.label) for pair in working],
                         [prewarmed[pair.pair_id]["label"] for pair in working]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    first, last = phases["counters"]
    window = delta(last, first)
    checks = {
        "every request answered 200": all(record.status == 200 for record in everything),
        "resolutions echo the pairs sent": echoed,
        "every hit returns its pre-warmed label": matched,
        "no model call in the window": window["calls"] == 0,
        "no submission refused": session["rejected"] == 0,
        f"F1 >= {F1_FLOOR:g}": metrics["f1"] >= F1_FLOOR,
    }
    notes = [
        note,
        f"{len(records)} requests in {len(chunks)} chunks after {len(warm)} warm-up",
        wall_note(setups, {"pairs_per_s": len(records) / sum(walls), **timings(wall_latency)}),
    ]
    layer_input = {
        "counters": window,
        "llm_calls": result.get("llm_calls", []),
        "pairs": len(records),
        "cpu_per_pair": window["cpu_s"] / len(records),
        "lag_ms_p99": 0.0,
        "since": min(record.send for record in records),
        "client_spans": client_spans(everything),
    }
    labels = {pair_id: entry["label"] for pair_id, entry in prewarmed.items()}
    return Outcome(metrics, checks, served_pairs, failed, labels, notes, layer_input)


def http_outcome(workload, phases: dict, setups: list[dict]) -> Outcome:
    records, warm = phases["records"], phases["warm"]
    result, before, after = phases["result"], phases["before"], phases["after"]
    metered = phases["capacity"]
    capacity = [record for chunk in metered["chunks"] for record in chunk]
    session = result["session"]
    lag_ms, lag_note = lag_check(workload, [record.lag for record in records])
    timed = warm + records
    answers, failed, echoed = served(timed + capacity)
    timed_ids = [pair.pair_id for record in timed for pair in record.pairs]
    gold = {pair.pair_id: int(pair.label) for record in timed for pair in record.pairs}
    latency, note = latency_metrics(answered_latencies(records), workload.limit_ms)
    capacity_s = sum(busy_s(chunk) for chunk in metered["chunks"])
    scaled_capacity_s = sum(
        busy_s(chunk) * factor for chunk, factor in zip(metered["chunks"], metered["scales"])
    )
    first, last = metered["counters"]
    metrics = {
        "setup_s": setup_s(setups),
        "pairs_per_s": sent_pairs(capacity) / scaled_capacity_s,
        **latency,
        "answered_ratio": 1.0 - failed / sent_pairs(timed + capacity),
        "usd_per_1k_pairs": usd_per_1k(after, len(timed_ids)),
        "f1": f1_percent([gold[i] for i in timed_ids],
                         [answers[i]["label"] if i in answers else 0 for i in timed_ids]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    checks = {
        "every request answered 200": all(r.status == 200 for r in timed + capacity),
        "resolutions echo the pairs sent": echoed,
        "no submission refused": session["rejected"] == 0,
        "no cache hit on never-seen pairs": session["cache_hits"] == 0,
        f"F1 >= {F1_FLOOR:g}": metrics["f1"] >= F1_FLOOR,
    }
    window = delta(after, before)
    pairs = sent_pairs(records)
    notes = [
        note, lag_note,
        f"{len(records)} requests after {len(warm)} warm-up, in {window['flushes']} flushes; "
        f"then {len(capacity)} back to back in {len(metered['chunks'])} chunks, "
        f"{capacity_s:.2f} s of which {last['cpu_s'] - first['cpu_s']:.2f} program CPU s",
        wall_note(setups, {"pairs_per_s": sent_pairs(capacity) / capacity_s}),
    ]
    layer_input = {
        "counters": window,
        "llm_calls": result.get("llm_calls", []),
        "pairs": pairs,
        "cpu_per_pair": window["cpu_s"] / pairs,
        "lag_ms_p99": lag_ms,
        "since": min(record.due for record in records),
        "until": max(record.done for record in records),
        "client_spans": client_spans(timed + capacity),
    }
    labels = {pair_id: answers[pair_id]["label"] for pair_id in timed_ids if pair_id in answers}
    sent = sent_pairs(timed + capacity)
    return Outcome(metrics, checks, sent, failed, labels, notes, layer_input)


MEASURE = {"batch": measure_batch, "live": measure_live, "server": measure_server}


def measure(name: str, args: argparse.Namespace, repeats: int, trace: Path | None = None) -> Outcome:
    workload = workloads.WORKLOADS[name]
    size = workloads.sizes(args.small)
    return MEASURE[workload.role](workload, args, size, repeats, trace)


def measure_traced(name: str, args: argparse.Namespace) -> Outcome:
    """Untraced run, traced run, identity and sum checks, per-layer metrics."""
    from repro.observability.export import JsonlTraceSink, read_trace_file

    from layers import layer_metrics

    plain = measure(name, args, repeats=1)
    scale = "-small" if args.small else ""
    path = OUT / f"{name}-seed{args.seed}{scale}.trace.jsonl"
    traced = measure(name, args, repeats=1, trace=path)
    inputs = traced.layer_input
    with JsonlTraceSink(path) as sink:
        for span in inputs.get("client_spans", []):
            sink.write(span)
    spans = read_trace_file(path)
    since = inputs.get("since", float("-inf"))
    until = inputs.get("until", float("inf"))
    overhead = (inputs["cpu_per_pair"] / plain.layer_input["cpu_per_pair"] - 1.0) * 100.0
    metrics = layer_metrics(
        spans, inputs["counters"],
        [call for call in inputs["llm_calls"] if since <= call[2] <= until],
        inputs["pairs"], inputs["lag_ms_p99"], overhead, since=since, until=until,
    )
    checks = {f"untraced: {key}": ok for key, ok in plain.checks.items()}
    checks.update({f"traced: {key}": ok for key, ok in traced.checks.items()})
    checks["traced outputs equal untraced"] = traced.answers == plain.answers
    if name == "batch_suite":
        checks["stage spans cover >= 95% of run time"] = (
            metrics["pipeline.unattributed_share"] <= UNATTRIBUTED_LIMIT
        )
    if name == "serve_http":
        checks["median request >= 95% attributed"] = (
            metrics["trace.unattributed_share_p50"] <= UNATTRIBUTED_LIMIT
        )
    notes = [f"{len(spans)} spans in {path.relative_to(ROOT)}",
             f"tracing overhead {overhead:+.1f}% program CPU per pair"]
    return Outcome(metrics, checks, traced.attempted, traced.failed, traced.answers, notes)


# -- reporting -------------------------------------------------------------------


def report(name: str, outcome: Outcome, units: dict[str, str], args) -> dict:
    workload = workloads.WORKLOADS[name]
    print(f"== {name} ({workload.loop} loop, seed {args.seed}) ==")
    for metric, value in outcome.metrics.items():
        print(f"  {metric:44s} {value:14.6g} {units[metric]}")
    for note in outcome.notes:
        print(f"  - {note}")
    failed_checks = [check for check, ok in outcome.checks.items() if not ok]
    print(f"  checks: {len(outcome.checks) - len(failed_checks)}/{len(outcome.checks)} passed"
          + "".join(f"\n  FAILED: {check}" for check in failed_checks), flush=True)
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in outcome.metrics.items()
        },
    }


def combined(results: dict[str, dict]) -> dict:
    """The last line of a run: one workload's result, or every workload's
    with metrics named ``<workload>.<metric>``."""
    if len(results) == 1:
        return next(iter(results.values()))
    return {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }


def check_source() -> None:
    """Refuse to run unless the program's source sits next to the benchmark."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise Unmeasurable(f"no program source at {SOURCE / 'repro'}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise Unmeasurable(f"imported repro from {repro.__file__}, not {SOURCE}")


def _alarm(signum, frame) -> None:
    raise Unmeasurable("run exceeded its time budget")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end BatchER benchmark.")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="the window, fixed per scale; any other value is refused")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smoke-test scale: beer, 1 s windows, 5 ms model latency")
    args = parser.parse_args(argv)
    window_s = workloads.sizes(args.small).window_s
    if args.seconds is not None and args.seconds != window_s:
        parser.error(f"the window is fixed at {window_s:g} s at this scale")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    args.cpu = pin()
    signal.signal(signal.SIGALRM, _alarm)
    results = {}
    try:
        check_source()
        if args.trace:
            from layers import PER_LAYER

            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            units = {name: unit for name, unit, _ in END_TO_END}
        for name in names:
            signal.alarm(170)
            started = time.monotonic()
            repeats = workloads.sizes(args.small).setup_repeats
            outcome = measure_traced(name, args) if args.trace else measure(name, args, repeats)
            outcome.notes.append(f"run took {time.monotonic() - started:.1f} s")
            results[name] = report(name, outcome, units, args)
        signal.alarm(0)
    except (Unmeasurable, OSError, subprocess.SubprocessError) as error:
        print(f"run.py: not measured: {error}", file=sys.stderr)
        return 2
    final = combined(results)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
