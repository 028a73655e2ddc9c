"""The metrics registry: named counters, gauges and bounded histograms.

One :class:`MetricsRegistry` per telemetry session; metrics are created
on first use (``registry.counter("scenarios_completed")``) and updated
under one registry-wide lock — a campaign updates from its calling
thread, but a registry may be read or fed from other threads at the
same time, and campaign-scale update rates (one batch of updates per
*scenario*, not per step) make lock granularity irrelevant.

Determinism is the design constraint, mirroring
:class:`~repro.provenance.usage.ResourceUsage`: metrics fed from the
deterministic fields of the event stream (verdicts, steps, message
counters, cache decisions) have **bit-identical** count/sum/bin values
across engines and campaign backends, because the event
multiset is identical and counts and integer sums are order-independent.
Wall-clock metrics (scenario latency, queue depth over time) are
measurement, not outcome — they are flagged ``timing=True`` and
:meth:`MetricsRegistry.deterministic_snapshot` excludes them, which is
what the cross-backend equality tests pin.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_LATENCY_BOUNDS"]

#: Default histogram bounds for wall-clock seconds: sub-ms to minutes.
DEFAULT_LATENCY_BOUNDS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Default bounds for per-scenario work volumes (steps, messages).
DEFAULT_VOLUME_BOUNDS = (1, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000)


class Counter:
    """A monotonically increasing count (ints stay ints)."""

    __slots__ = ("name", "timing", "value", "_lock")

    def __init__(self, name: str, *, timing: bool, lock: threading.RLock):
        self.name = name
        self.timing = timing
        self.value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        with self._lock:
            self.value += amount

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "timing": self.timing, "value": self.value}


class Gauge:
    """A value that goes up and down (queue depth, in-flight workers)."""

    __slots__ = ("name", "timing", "value", "_lock")

    def __init__(self, name: str, *, timing: bool, lock: threading.RLock):
        self.name = name
        self.timing = timing
        self.value: float = 0
        self._lock = lock

    def set(self, value) -> None:
        with self._lock:
            self.value = value

    def add(self, delta) -> None:
        with self._lock:
            self.value += delta

    def snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "timing": self.timing, "value": self.value}


class Histogram:
    """A bounded histogram: fixed buckets, exact count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one overflow bucket catches everything beyond, so memory is
    fixed no matter how many observations arrive.  Feed only integers to
    a deterministic histogram — integer sums are bit-identical whatever
    the observation order, float sums are not.
    """

    __slots__ = ("name", "timing", "bounds", "bins", "count", "sum", "min", "max",
                 "_lock")

    def __init__(self, name: str, *, bounds: Sequence[float], timing: bool,
                 lock: threading.RLock):
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError(
                f"histogram {name!r} needs sorted, non-empty bounds; "
                f"got {bounds!r}"
            )
        self.name = name
        self.timing = timing
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bins = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = lock

    def observe(self, value) -> None:
        with self._lock:
            # bisect_left on the sorted upper edges: bucket i holds
            # bounds[i-1] < value <= bounds[i]; the final bin overflows.
            self.bins[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "timing": self.timing,
            "bounds": list(self.bounds),
            "bins": list(self.bins),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named metrics (thread-safe).

    Re-requesting a name returns the existing instance; requesting it as
    a different metric type (or with different bounds/timing) raises —
    silent divergence between writers would corrupt the aggregate.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, kind, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, requested {kind.__name__}"
                    )
                return existing
            metric = kind(name, lock=self._lock, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, *, timing: bool = False) -> Counter:
        return self._get_or_create(name, Counter, timing=timing)

    def gauge(self, name: str, *, timing: bool = False) -> Gauge:
        return self._get_or_create(name, Gauge, timing=timing)

    def histogram(
        self,
        name: str,
        *,
        bounds: Sequence[float] = DEFAULT_VOLUME_BOUNDS,
        timing: bool = False,
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds=bounds, timing=timing)

    # -- inspection --------------------------------------------------------

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Every metric, timing ones included — what the exporter dumps."""
        with self._lock:
            return {name: metric.snapshot()
                    for name, metric in sorted(self._metrics.items())}

    def deterministic_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Only the deterministic metrics, without machine-dependent fields.

        Two campaigns over the same scenarios — on either engine, on
        any backend — produce *equal* deterministic snapshots; the
        plumbing tests assert this with ``==``.
        """
        with self._lock:
            snapshot = {}
            for name, metric in sorted(self._metrics.items()):
                if metric.timing:
                    continue
                snapshot[name] = metric.snapshot()
            return snapshot
