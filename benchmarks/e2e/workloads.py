"""The four workloads of the end-to-end benchmark and the inputs they send.

Inputs are a pure function of ``--seed``: every order, draw and arrival time
comes from a ``random.Random`` seeded with the workload name and the seed.
The data itself is fixed: batch_suite's dataset instances and the serve
workloads' pairs are generated by ``repro.load_dataset`` with one data seed,
and the seed decides only their order and timing.  That keeps F1 and cost a
property of the program: on every seed the program answers the same
questions in the same groups, so F1 and cost read the same on every run and a
change that moves them by half a percent shows.

The program runs at its defaults (``BatcherConfig()``, ``ServiceConfig()``);
serve workloads add only a 50 ms per-call model latency standing in for a
remote model, and serve_hot/serve_http a tenant API key.

The window is fixed per scale (:attr:`Sizes.window_s`), and so is the work:
batch_suite's rounds, serve_hot's request count and the open loops' arrivals
are counts, not durations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

#: Tenant presented by the HTTP workloads (``X-API-Key``).
TENANT_NAME = "bench"
TENANT_KEY = "bench-key"

#: Request header carrying ``<trace id>/<parent span id>`` from the load
#: generator, so a traced server's spans join the client's request trace.
REQUEST_HEADER = "x-bench-request"


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name / why: as listed in ``BENCHMARK.json``.
        loop: ``"closed"`` (a client waits for each reply before sending the
            next request) or ``"open"`` (requests are sent on a schedule).
        limit_ms: latency limit of ``slo_ok_ratio``.  serve_hot's answers
            take about 1 ms, but when other tenants load the machine's
            cores up to 12% of them took over 5 ms and 2.7% over 10 ms; at
            20 ms at most 0.4% missed, so the share follows the program.
        role: how ``program.py`` hosts the program: ``batch`` and ``live``
            run the workload in the program process, ``server`` serves HTTP
            to the load generator in ``run.py``.
    """

    name: str
    why: str
    loop: str
    limit_ms: float
    role: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "batch_suite",
            "offline BatchER.run over the 8 datasets, one above the dense-planning "
            "threshold; CPU-bound in featurize, selection and inference; no service",
            loop="closed",
            limit_ms=10_000.0,
            role="batch",
        ),
        Workload(
            "serve_live",
            "single never-seen pairs via submit: a saturating burst, then open-loop "
            "Poisson arrivals; micro-batching across callers; cache written, never hit",
            loop="open",
            limit_ms=500.0,
            role="live",
        ),
        Workload(
            "serve_hot",
            "closed loop over 2 HTTP connections on a pre-warmed 64-pair set; "
            "every request a cache hit, so the pipeline stays idle",
            loop="closed",
            limit_ms=20.0,
            role="server",
        ),
        Workload(
            "serve_http",
            "open-loop 8-pair blocks of never-seen pairs over HTTP, then a "
            "saturating closed loop; the only mix whose requests cross every layer",
            loop="open",
            limit_ms=500.0,
            role="server",
        ),
    )
}


@dataclass(frozen=True)
class Sizes:
    """How much each workload sends (``SMALL`` is the smoke-test scale).

    Attributes:
        window_s: the measured window: the open loops' arrivals span it and
            the closed loops are sized to fill it.  ``BENCHMARK.json``'s
            ``run_seconds`` is the full scale's.
        data_seed: seed of every dataset instance.
        batch_first: the ``(dataset, scale)`` job batch_suite runs once,
            first.  At full scale it has 2,109 questions, above the
            planner's 2,048-point dense threshold, so it plans sparse; the
            others plan dense.  Run first in a fresh process, its peak
            memory does not depend on what ran before it.
        batch_suite: the ``(dataset, scale)`` jobs of one batch_suite round.
        batch_rounds: rounds per run; every round runs the same jobs.
        serve_dataset / serve_scale: the service's demonstration pool is this
            dataset instance's train split; the pairs sent are its
            validation and test splits, which the service has never seen.
        model_latency_s: per-call latency of the simulated model on serve_*.
        live_burst / live_burst_chunk: pairs serve_live submits before its
            window, in chunks submitted at once (a whole number of flushes).
        live_rate / live_window_chunk: serve_live's arrivals per second in
            the window, and how many arrive before it pauses to measure the
            machine's speed (``speed``).
        http_rate / http_block / http_warmup_s: serve_http requests per
            second, pairs per request and warm-up seconds.
        http_connections: serve_http's connections.  Enough that window
            requests never wait for a free connection (with 2, at most 2 are
            in flight, which caps the rate near 2 / latency and queues
            requests in the client instead of the program), and that the
            closed loop after the window keeps more than one flush's worth
            of pairs queued, so every flush it causes is full.
        http_capacity_blocks / http_chunk: blocks serve_http sends back to
            back after its window to measure throughput, ``http_chunk`` at a
            time with the machine's speed measured in between (``speed``).
        hot_pairs / hot_connections: serve_hot's working-set size and
            closed-loop clients.
        hot_requests / hot_warmup: serve_hot's measured and warm-up requests.
        hot_chunk: serve_hot sends its measured requests this many at a
            time, with the machine's speed measured in between (``speed``).
        setup_repeats: program set-ups per measured run (median reported).
    """

    window_s: float = 15.0
    data_seed: int = 0
    batch_first: tuple[str, float] = ("ag", 0.92)
    batch_suite: tuple[tuple[str, float], ...] = (
        ("beer", 1.0),
        ("fz", 1.0),
        ("ia", 1.0),
        ("wa", 0.04),
        ("ab", 0.04),
        ("da", 0.08),
        ("ds", 0.03),
    )
    batch_rounds: int = 3
    serve_dataset: str = "wa"
    serve_scale: float = 0.6
    model_latency_s: float = 0.05
    live_burst: int = 896
    live_burst_chunk: int = 128
    live_rate: float = 100.0
    live_window_chunk: int = 300
    http_rate: float = 8.0
    http_block: int = 8
    http_warmup_s: float = 1.0
    http_connections: int = 16
    http_capacity_blocks: int = 160
    http_chunk: int = 20
    hot_pairs: int = 64
    hot_connections: int = 2
    hot_requests: int = 24_000
    hot_warmup: int = 1000
    hot_chunk: int = 1000
    setup_repeats: int = 3


FULL = Sizes()

SMALL = replace(
    FULL,
    window_s=1.0,
    batch_first=("ia", 1.0),
    batch_suite=(("beer", 1.0),),
    serve_dataset="beer",
    serve_scale=1.0,
    model_latency_s=0.005,
    live_burst=64,
    live_burst_chunk=32,
    live_window_chunk=50,
    http_warmup_s=0.25,
    http_capacity_blocks=8,
    http_chunk=4,
    hot_pairs=16,
    hot_requests=1000,
    hot_warmup=100,
    hot_chunk=500,
    setup_repeats=1,
)


def sizes(small: bool) -> Sizes:
    return SMALL if small else FULL


def rng(workload: str, seed: int, stream: str = "") -> random.Random:
    """The workload's seeded random stream (string seeds hash stably)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def batch_jobs(size: Sizes, seed: int) -> list[tuple[int, str, float]]:
    """``(round, dataset, scale)`` of every batch_suite job.

    ``batch_first`` runs once, as round -1; then every round runs the same
    dataset instances of ``batch_suite`` in seeded order.
    """
    jobs = [(-1, *size.batch_first)]
    for round_index in range(size.batch_rounds):
        suite = list(size.batch_suite)
        rng("batch_suite", seed, f"round{round_index}").shuffle(suite)
        jobs += [(round_index, name, scale) for name, scale in suite]
    return jobs


def serve_dataset(size: Sizes):
    """The serve workloads' dataset instance (pool and streams)."""
    from repro.data.registry import load_dataset

    return load_dataset(size.serve_dataset, seed=size.data_seed, scale=size.serve_scale)


def unseen_pairs(size: Sizes, count: int) -> list:
    """The first ``count`` labeled pairs the service has never seen.

    They are the instance's validation and test splits, in a fixed order,
    each given a pair id unique within the run.
    """
    splits = serve_dataset(size).splits
    unseen = list(splits.validation) + list(splits.test)
    if count > len(unseen):
        raise ValueError(f"{count} unseen pairs asked for, {len(unseen)} available")
    return [replace(pair, pair_id=f"u{index}") for index, pair in enumerate(unseen[:count])]


def live_inputs(size: Sizes, seed: int) -> tuple[list, list, list[float]]:
    """serve_live's burst pairs, window pairs and window arrival offsets.

    The burst is the first ``live_burst`` unseen pairs in a fixed order, so
    its flushes are the same consecutive groups on every run.  The window's
    pairs follow in seeded order, at seeded Poisson arrival times.
    """
    count = round(size.live_rate * size.window_s)
    pairs = unseen_pairs(size, size.live_burst + count)
    burst, window = pairs[: size.live_burst], pairs[size.live_burst:]
    generator = rng("serve_live", seed)
    generator.shuffle(window)
    return burst, window, poisson_arrivals(generator, count, size.live_rate)


def http_blocks(size: Sizes, seed: int) -> tuple[list[list], list[list], list[list]]:
    """serve_http's warm-up, window and capacity blocks.

    A block is ``http_block`` consecutive unseen pairs, the same on every
    seed; the seed orders the warm-up and window blocks.  At the window's
    rate each block is flushed on its own, so the answers do not depend on
    the order.  The capacity blocks come after, in a fixed order.
    """
    warm = max(1, round(size.http_rate * size.http_warmup_s))
    window = round(size.http_rate * size.window_s)
    total = warm + window + size.http_capacity_blocks
    pairs = unseen_pairs(size, total * size.http_block)
    blocks = [pairs[i * size.http_block:(i + 1) * size.http_block] for i in range(total)]
    timed = blocks[: warm + window]
    rng("serve_http", seed).shuffle(timed)
    return timed[:warm], timed[warm:], blocks[warm + window:]


def poisson_arrivals(generator: random.Random, count: int, rate: float) -> list[float]:
    """Offsets (s) of ``count`` Poisson arrivals at ``rate`` per second.

    The arrival count is fixed and the times are uniform order statistics
    over ``count / rate`` seconds — a Poisson process conditioned on its
    count — so every run offers exactly the same load.
    """
    span = count / rate
    return sorted(generator.uniform(0.0, span) for _ in range(count))


def steady_arrivals(count: int, rate: float) -> list[float]:
    """Offsets (s) of ``count`` arrivals evenly spaced at ``rate`` per second."""
    return [index / rate for index in range(count)]
