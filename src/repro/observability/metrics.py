"""Prometheus-style metrics: counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` owns a namespace of metric *families*; each family
holds one sample per label combination.  Three instrument kinds cover the
stack's needs:

* :class:`Counter` — monotonically increasing totals (retries, flushes);
* :class:`Gauge` — point-in-time values (queue depth, hit rates);
* :class:`Histogram` — fixed-bucket latency/size distributions with the
  classic cumulative ``_bucket`` / ``_sum`` / ``_count`` exposition.

The registry is the *store* for event counters: the serving stack increments
them where events happen, and ``GET /stats`` reads them back, so it and
``GET /metrics`` cannot disagree.  A counter or gauge may instead read a
scrape-time callback (:meth:`Counter.set_function`) when another component
is the single owner of that state — the result cache's hit counts, the
breaker's trips, the queue's depth.

Everything is thread-safe (one lock per family), and durations are measured
through the injectable :class:`~repro.engines.transport.Clock` protocol, so
tests drive timing with a :class:`~repro.engines.faults.FakeClock` and make
sleepless, deterministic assertions.  :meth:`MetricsRegistry.render` emits
the Prometheus text exposition format (``text/plain; version=0.0.4``) served
by the HTTP front end's ``GET /metrics``.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Iterable, Mapping, Sequence

from repro.engines.transport import Clock

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Default histogram buckets for request/call latencies, in seconds.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0, 60.0,
)

_VALID_FIRST = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | frozenset("0123456789")


def _validate_name(name: str) -> str:
    if not name or name[0] not in _VALID_FIRST or any(
        ch not in _VALID_REST for ch in name
    ):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in labels.items()
    )
    return "{" + inner + "}"


class _Metric:
    """Shared machinery of one metric family (name, help, labels, lock)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_names = tuple(label_names)
        for label in self.label_names:
            _validate_name(label)
        self._label_set = frozenset(self.label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, str]) -> tuple[str, ...]:
        if labels.keys() != self._label_set:
            raise ValueError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple([str(labels[name]) for name in self.label_names])

    def _labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, key))

    def header_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        return lines


class _ScalarMetric(_Metric):
    """One value per label combination, stored or read from a scrape callback."""

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], float] = {}
        self._callbacks: dict[tuple[str, ...], Callable[[], float]] = {}

    def _add(self, amount: float, labels: Mapping[str, str]) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        """Source the labeled sample from ``fn`` at scrape time.

        For state another component owns (cache hit counts, breaker trips,
        queue depth): the registry reads it instead of keeping a copy.
        """
        key = self._key(labels)
        with self._lock:
            self._callbacks[key] = fn

    def value(self, **labels: str) -> float:
        """Current value of the labeled sample (0.0 if never touched)."""
        key = self._key(labels)
        with self._lock:
            callback = self._callbacks.get(key)
        if callback is not None:
            return float(callback())
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        """All (labels, value) samples, callback-sourced ones included."""
        with self._lock:
            values = dict(self._values)
            callbacks = dict(self._callbacks)
        for key, callback in callbacks.items():
            values[key] = float(callback())
        return [(self._labels_of(key), value) for key, value in sorted(values.items())]

    def render(self) -> list[str]:
        lines = self.header_lines()
        samples = self.samples() or ([({}, 0.0)] if not self.label_names else [])
        for labels, value in samples:
            lines.append(f"{self.name}{_format_labels(labels)} {_format_value(value)}")
        return lines


class Counter(_ScalarMetric):
    """A monotonically increasing total, one sample per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (>= 0) to the labeled sample."""
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        self._add(amount, labels)


class Gauge(_ScalarMetric):
    """A point-in-time value, settable directly or from a scrape callback."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        """Set the labeled sample to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labeled sample."""
        self._add(amount, labels)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Subtract ``amount`` from the labeled sample."""
        self._add(-amount, labels)


class Histogram(_Metric):
    """A fixed-bucket distribution with cumulative Prometheus exposition.

    Args:
        buckets: strictly increasing upper bounds; an implicit ``+Inf``
            bucket is always appended.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"buckets must be strictly increasing, got {buckets}")
        self.buckets = bounds
        # key -> ([per-bucket counts..., +Inf count], sum)
        self._series: dict[tuple[str, ...], tuple[list[int], float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labeled series."""
        key = self._key(labels)
        with self._lock:
            counts, total = self._series.get(key, (None, 0.0))
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[index] += 1
                    break
            else:
                counts[-1] += 1
            self._series[key] = (counts, total + float(value))

    def count(self, **labels: str) -> int:
        """Total observations recorded for the labeled series."""
        key = self._key(labels)
        with self._lock:
            counts, _ = self._series.get(key, (None, 0.0))
            return sum(counts) if counts is not None else 0

    def sum(self, **labels: str) -> float:
        """Sum of all observed values for the labeled series."""
        key = self._key(labels)
        with self._lock:
            return self._series.get(key, (None, 0.0))[1]

    def render(self) -> list[str]:
        lines = self.header_lines()
        with self._lock:
            series = {
                key: (list(counts), total)
                for key, (counts, total) in self._series.items()
            }
        if not series and not self.label_names:
            series = {(): ([0] * (len(self.buckets) + 1), 0.0)}
        for key in sorted(series):
            counts, total = series[key]
            labels = self._labels_of(key)
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                bucket_labels = {**labels, "le": _format_value(bound)}
                lines.append(
                    f"{self.name}_bucket{_format_labels(bucket_labels)} {cumulative}"
                )
            cumulative += counts[-1]
            inf_labels = {**labels, "le": "+Inf"}
            lines.append(f"{self.name}_bucket{_format_labels(inf_labels)} {cumulative}")
            lines.append(f"{self.name}_sum{_format_labels(labels)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_format_labels(labels)} {cumulative}")
        return lines


class _Timer:
    """Context manager recording its enclosed duration into a histogram."""

    __slots__ = ("_histogram", "_labels", "_clock", "_started")

    def __init__(self, histogram: Histogram, labels: dict[str, str], clock: Clock) -> None:
        self._histogram = histogram
        self._labels = labels
        self._clock = clock
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = self._clock.monotonic()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._histogram.observe(
            self._clock.monotonic() - self._started, **self._labels
        )


class MetricsRegistry:
    """A namespace of metric families with Prometheus text exposition.

    Family registration is idempotent *per kind and label set*: asking for an
    existing family returns it, asking with a conflicting type or labels
    raises — one name means one thing.

    Args:
        clock: time source for :meth:`time`; inject a fake for sleepless,
            deterministic timing tests.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock or Clock()
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    @property
    def clock(self) -> Clock:
        """The registry's time source."""
        return self._clock

    def _register(self, metric: _Metric, kind: type) -> _Metric:
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is None:
                self._metrics[metric.name] = metric
                return metric
            if type(existing) is not kind or existing.label_names != metric.label_names:
                raise ValueError(
                    f"metric {metric.name!r} already registered as "
                    f"{type(existing).__name__}{existing.label_names}"
                )
            return existing

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        """Get or create the named counter family."""
        return self._register(Counter(name, help, tuple(labels)), Counter)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Iterable[str] = ()) -> Gauge:
        """Get or create the named gauge family."""
        return self._register(Gauge(name, help, tuple(labels)), Gauge)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Iterable[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get or create the named histogram family."""
        return self._register(
            Histogram(name, help, tuple(labels), buckets=buckets), Histogram
        )  # type: ignore[return-value]

    def time(self, histogram: Histogram, **labels: str) -> _Timer:
        """Context manager observing its enclosed duration into ``histogram``."""
        return _Timer(histogram, labels, self._clock)

    def get(self, name: str) -> _Metric | None:
        """The named family, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, object]:
        """A JSON-serializable dump of every family's current samples.

        The consolidated ``GET /stats`` uses this so its numbers and the
        ``/metrics`` exposition come from the same source of truth.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        dump: dict[str, object] = {}
        for metric in metrics:
            if isinstance(metric, Histogram):
                with metric._lock:
                    series = {
                        key: (sum(counts), total)
                        for key, (counts, total) in metric._series.items()
                    }
                dump[metric.name] = {
                    "type": metric.kind,
                    "series": [
                        {
                            "labels": metric._labels_of(key),
                            "count": count,
                            "sum": total,
                        }
                        for key, (count, total) in sorted(series.items())
                    ],
                }
            else:
                dump[metric.name] = {
                    "type": metric.kind,
                    "series": [
                        {"labels": labels, "value": value}
                        for labels, value in metric.samples()  # type: ignore[union-attr]
                    ],
                }
        return dump

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return f"MetricsRegistry(families={len(self._metrics)})"
