"""The program process of the end-to-end benchmark.

``run.py`` starts this file in a fresh interpreter for every set-up and every
measured run, so each run pays its own imports and warm-up.  Set-up is timed
from just before ``repro`` is imported until the program is ready — for a
server, bound and serving — minus the time spent generating the benchmark's
own inputs.

Roles (``workloads.Workload.role``):

* ``batch`` — runs batch_suite's jobs through ``BatchER.run``.
* ``live`` — starts a ``ResolutionService`` and, from this process's main
  thread, submits serve_live's burst and then its open-loop window.
* ``server`` — serves the service over the asyncio HTTP front end.  It prints
  one JSON line when ready, then reads commands on stdin: ``mark`` answers
  with the service's counters, ``stop`` (or end of input) shuts down and
  prints the result.

Every role prints its result as the last JSON line on stdout.  With
``--trace FILE`` the program traces itself (``probes.py``) into FILE.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import speed
import workloads


def emit(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cost_dict(breakdown) -> dict:
    return {
        "api_usd": breakdown.api_cost,
        "labeling_usd": breakdown.labeling_cost,
        "labeled": breakdown.num_labeled_pairs,
        "calls": breakdown.num_llm_calls,
    }


def service_counters(service) -> dict:
    stats = service.stats()
    store = stats.feature_store
    planning = store.planning if store is not None else {}
    return {
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "submitted": stats.submitted,
        "resolved": stats.resolved,
        "rejected": stats.rejected_overload + stats.rejected_budget + stats.rejected_degraded,
        "flushes": stats.flushes,
        "dense_graphs": planning.get("dense_graphs", 0),
        "sparse_graphs": planning.get("sparse_graphs", 0),
        "edges_built": planning.get("edges_built", 0),
        "cpu_s": time.process_time(),
        **cost_dict(stats.cost),
    }


def digest(result) -> str:
    """Content digest of a ``RunResult`` (exact floats, every field)."""
    text = json.dumps(asdict(result), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def speed_hook():
    """A ``StageHook`` that times the speed reference (``speed``) before the
    first stage it sees and after every stage.

    Stage ``i`` then ran between ``references[i]`` and ``references[i + 1]``.
    ``wall_s`` and ``cpu_s`` total what the references took.
    """
    from repro.pipeline.pipeline import StageHook

    class SpeedHook(StageHook):
        def __init__(self) -> None:
            self.references: list[float] = []
            self.stage_seconds: list[float] = []
            self.wall_s = 0.0
            self.cpu_s = 0.0

        def reference(self) -> None:
            wall, cpu = time.monotonic(), time.process_time()
            self.references.append(speed.reference())
            self.wall_s += time.monotonic() - wall
            self.cpu_s += time.process_time() - cpu

        def on_stage_start(self, stage, context) -> None:
            if not self.references:
                self.reference()

        def on_stage_end(self, stage, context, seconds: float) -> None:
            self.stage_seconds.append(seconds)
            self.reference()

    return SpeedHook()


class Program:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = workloads.WORKLOADS[args.workload]
        self.size = workloads.sizes(args.small)
        self.probes = None
        self.generation_s = 0.0

    def setup_started(self) -> float:
        """Import ``repro`` (timed as set-up) and start tracing if asked."""
        self.setup_references = [speed.reference()]
        started = time.monotonic()
        import repro  # noqa: F401 - importing is part of set-up

        if self.args.trace:
            from probes import Probes

            self.probes = Probes(Path(self.args.trace)).install()
        return started

    def setup_done(self, started: float) -> dict:
        """Set-up's wall seconds, minus input generation, and the reference
        timings around it (``speed``)."""
        wall = time.monotonic() - started - self.generation_s
        self.setup_references.append(speed.reference())
        return {"setup_wall_s": wall, "setup_references": self.setup_references}

    @property
    def tracer(self):
        return self.probes.tracer if self.probes is not None else None

    def finish(self, result: dict) -> None:
        result["peak_rss_mb"] = peak_rss_mb()
        if self.probes is not None:
            result["llm_calls"] = self.probes.llm_calls
            self.probes.close()
        emit(result)

    def build_service(self, tenant: bool):
        from repro import ResolutionService, ServiceConfig, TenantConfig

        generated = time.monotonic()
        dataset = workloads.serve_dataset(self.size)
        self.generation_s += time.monotonic() - generated
        config = ServiceConfig(
            tenants=(TenantConfig(workloads.TENANT_NAME, workloads.TENANT_KEY),)
            if tenant
            else ()
        )
        service = ResolutionService.from_dataset(dataset, config, tracer=self.tracer)
        service.resolver.llm.latency_seconds = self.size.model_latency_s
        if self.probes is not None:
            self.probes.observe_llm(service.resolver.llm)
        return service.start()

    # -- roles ---------------------------------------------------------------

    def run_batch(self) -> None:
        started = self.setup_started()
        from repro import BatchER, BatcherConfig, load_dataset

        # A traced run leaves the machine's speed unmeasured: references
        # inside BatchER.run would count as time no stage accounts for.
        meter = speed_hook()
        hooks = (self.probes.hook,) if self.probes is not None else (meter,)
        batcher = BatchER(BatcherConfig(), hooks=hooks, tracer=self.tracer)
        setup = self.setup_done(started)
        if self.args.setup_only:
            emit(setup)
            return
        jobs = workloads.batch_jobs(self.size, self.args.seed)
        datasets = {
            (name, scale): load_dataset(name, seed=self.size.data_seed, scale=scale)
            for _, name, scale in jobs
        }
        records = []
        cpu_s = 0.0
        for round_index, name, scale in jobs:
            dataset = datasets[name, scale]
            first_stage, metered_wall, metered_cpu = len(meter.stage_seconds), meter.wall_s, meter.cpu_s
            cpu_began = time.process_time()
            began = time.monotonic()
            result = batcher.run(dataset)
            # Minus the time the meter spent on references during the run.
            seconds = time.monotonic() - began - (meter.wall_s - metered_wall)
            cpu_s += time.process_time() - cpu_began - (meter.cpu_s - metered_cpu)
            records.append(
                {
                    "round": round_index,
                    "dataset": name,
                    "scale": scale,
                    "seconds": seconds,
                    "stages": [first_stage, len(meter.stage_seconds)],
                    "gold": [int(pair.label) for pair in dataset.splits.test],
                    "pred": [int(label) for label in result.predictions],
                    "f1": result.metrics.f1,
                    "batches": result.num_batches,
                    "unanswered": result.num_unanswered,
                    "digest": digest(result),
                    **cost_dict(result.cost),
                }
            )
        result = {
            **setup,
            "cpu_s": cpu_s,
            "jobs": records,
            "stage_seconds": meter.stage_seconds,
            "references": meter.references,
        }
        if self.probes is not None:
            stores = self.probes.store_stats
            result["counters"] = {
                name: sum(stats.planning.get(name, 0) for stats in stores)
                for name in ("dense_graphs", "sparse_graphs", "edges_built")
            }
        self.finish(result)

    def run_live(self) -> None:
        started = self.setup_started()
        service = self.build_service(tenant=False)
        setup = self.setup_done(started)
        if self.args.setup_only:
            service.stop()
            emit(setup)
            return
        burst, window, offsets = workloads.live_inputs(self.size, self.args.seed)
        result = {
            **setup,
            "max_batch_size": service.config.max_batch_size,
            "gold": [int(pair.label) for pair in burst + window],
        }
        result["burst"] = self.burst(service, burst)
        result["after_burst"] = service_counters(service)
        result["window"] = self.live_window(service, window, offsets)
        result["session"] = service_counters(service)
        service.stop()
        self.finish(result)

    def burst(self, service, pairs: list) -> dict:
        """Submit pairs all at once and wait, chunk by chunk: the service's
        capacity.

        Each chunk is ``live_burst_chunk`` pairs, a whole number of flushes, so
        the service flushes consecutive groups of ``max_batch_size`` pairs,
        the same groups on every run.  Only a chunk's first flush could start
        short — if the micro-batcher's thread took the interpreter while this
        one was still submitting its first group — so thread switches are
        held off until that group is queued.  Between chunks, with the
        service idle, the machine's speed is measured (``speed``); each
        chunk reports its wall seconds and the process CPU seconds they hold.
        """
        if self.size.live_burst_chunk % service.config.max_batch_size:
            raise ValueError("live_burst_chunk must be a whole number of flushes")
        resolutions, chunks, references = [], [], [speed.reference()]
        for start in range(0, len(pairs), self.size.live_burst_chunk):
            chunk = pairs[start:start + self.size.live_burst_chunk]
            futures = []
            switch_interval = sys.getswitchinterval()
            sys.setswitchinterval(1.0)
            cpu, first = time.process_time(), time.monotonic()
            for index, pair in enumerate(chunk):
                if index == service.config.max_batch_size:
                    sys.setswitchinterval(switch_interval)
                futures.append(service.submit(pair.without_label()))
            sys.setswitchinterval(switch_interval)
            resolutions += [future.result(timeout=120.0) for future in futures]
            chunks.append({"seconds": time.monotonic() - first, "cpu_s": time.process_time() - cpu})
            references.append(speed.reference())
        return {
            "chunks": chunks,
            "references": references,
            "labels": [int(r.label) for r in resolutions],
            "answered": [r.answered for r in resolutions],
        }

    def live_window(self, service, pairs: list, offsets: list[float]) -> dict:
        """Submit each pair at its due time from this thread (open loop).

        The window runs in chunks of ``live_window_chunk`` arrivals: each chunk
        keeps its arrivals' spacing, and the next starts once the service
        has answered it, after the speed reference is timed (``speed``).
        Each chunk reports its first index, wall seconds (first due time to
        last answer) and the process CPU seconds they hold.  When traced,
        each pair is a ``loadgen:request`` trace (due to done) whose
        ``loadgen:send`` span wraps the submit.
        """
        from repro.observability.tracing import Span

        count = len(pairs)
        due, ready, sent, done = ([0.0] * count for _ in range(4))
        tracer = self.tracer
        futures = []
        chunks, references = [], [speed.reference()]
        for first in range(0, count, self.size.live_window_chunk):
            last = min(first + self.size.live_window_chunk, count)
            cpu = time.process_time()
            origin = time.monotonic() + 0.05 - offsets[first]
            for index in range(first, last):
                ready[index] = time.monotonic()
                due[index] = origin + offsets[index]
                if due[index] > ready[index]:
                    time.sleep(due[index] - ready[index])
                sent[index] = time.monotonic()
                pair = pairs[index].without_label()
                if tracer is None:
                    future = service.submit(pair)
                else:
                    with tracer.span("loadgen:send") as scope:
                        scope.span.trace_id, scope.span.parent_id = f"r{index}", f"q{index}"
                        future = service.submit(pair)
                future.add_done_callback(
                    lambda _f, i=index: done.__setitem__(i, time.monotonic())
                )
                futures.append(future)
            for future in futures[first:last]:
                future.result(timeout=120.0)
            chunks.append({"first": first, "seconds": time.monotonic() - due[first],
                           "cpu_s": time.process_time() - cpu})
            references.append(speed.reference())
        resolutions = [future.result() for future in futures]
        if tracer is not None:
            self.probes.extra += [
                Span("loadgen:request", f"r{i}", f"q{i}", None, due[i], done[i], "ok", {})
                for i in range(count)
            ]
        return {
            "chunks": chunks,
            "references": references,
            "due": due,
            "ready": ready,
            "sent": sent,
            "done": done,
            "labels": [int(r.label) for r in resolutions],
            "answered": [r.answered for r in resolutions],
        }

    def run_server(self) -> None:
        started = self.setup_started()
        from repro.service.aio import AsyncServiceHTTPServer

        service = self.build_service(tenant=True)
        server = AsyncServiceHTTPServer(service, port=0).serve_in_background()
        setup = self.setup_done(started)
        port = int(server.address.rsplit(":", 1)[1])
        emit({"event": "ready", "port": port, **setup})
        try:
            if not self.args.setup_only:
                for line in sys.stdin:
                    command = line.strip()
                    if command == "mark":
                        # The service is idle: time the speed reference here.
                        counters = service_counters(service)
                        emit({"event": "mark", "counters": counters,
                              "reference": speed.reference()})
                    elif command == "stop":
                        break
        finally:
            server.shutdown()
        if self.args.setup_only:
            service.stop()
            return
        result = {"event": "result", "session": service_counters(service)}
        service.stop()
        self.finish(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark program process")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None, help="write spans to this JSONL file")
    parser.add_argument("--cpu", type=int, default=None, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        # Before numpy loads, so its thread pool sizes itself to one CPU.
        os.sched_setaffinity(0, {args.cpu})
    program = Program(args)
    getattr(program, f"run_{program.workload.role}")()
    return 0


if __name__ == "__main__":
    sys.exit(main())
