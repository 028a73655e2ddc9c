"""One campaign's telemetry, tied together: config, session, worker half.

:class:`TelemetryConfig` is what a caller decides (sample how
aggressively? export where?); :class:`TelemetrySession` is the
parent-process object that lives through one or more campaign runs,
owning the :class:`~repro.telemetry.metrics.MetricsRegistry`, the
collected :class:`~repro.telemetry.spans.SpanRecord`\\ s and the
exporters; :class:`WorkerTelemetry` is the small frozen picklable slice
of it that crosses into worker processes — campaign correlation id and
sampling stride — while the spans a worker records come back on its
task results and reach the session on
:class:`~repro.campaign.runner.ScenarioEvent`\\ s.

**Sampling.**  Tracing every scenario of a 100k-scenario sweep would
produce a trace nobody can open; the session derives a stride from
``sample_threshold`` (``stride = ceil(total / threshold)``) and a
scenario is traced iff ``spec.derived_seed() % stride == 0``.  Because
the derived seed is a pure function of the scenario's identity, the
*same* scenarios are sampled whatever the backend, chunking or worker
placement — sampled traces are reproducible, not lucky.

Metrics are fed parent-side from the event stream, so their
deterministic fields (counts, integer sums, histogram bins over steps
and message volumes) are bit-identical across engines and backends;
wall-clock metrics are flagged ``timing`` and excluded from
:meth:`TelemetrySession.deterministic_snapshot`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry.export import append_metrics, write_trace
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BOUNDS,
    MetricsRegistry,
)
from repro.telemetry.spans import SpanRecord, Tracer

__all__ = ["TelemetryConfig", "WorkerTelemetry", "TelemetrySession"]


@dataclass(frozen=True)
class TelemetryConfig:
    """What to capture and where to ship it.

    Attributes
    ----------
    sample_threshold:
        Target number of traced scenarios per campaign; campaigns larger
        than this are sampled down by a deterministic stride.  ``0``
        disables sampling (trace everything).
    trace_path:
        Chrome trace-event file to write on :meth:`TelemetrySession.finish`
        (``None``: keep spans in memory only).
    metrics_path:
        Metrics JSONL dump to append on finish (``None``: in-memory only).
    """

    sample_threshold: int = 128
    trace_path: Optional[Union[str, Path]] = None
    metrics_path: Optional[Union[str, Path]] = None


@dataclass(frozen=True)
class WorkerTelemetry:
    """The picklable worker-side slice: who am I tracing for, how much.

    ``samples(spec)`` is the *only* sampling decision in the system —
    evaluated where the scenario runs, deterministic in the scenario's
    identity, so the serial and process backends trace the same
    scenarios.

    The stride filter keeps a scenario iff its derived seed is divisible
    by the stride — nothing guarantees any seed of a *small* campaign
    is, and an all-misses campaign would ship an empty trace that the
    report CLI then summarises as if tracing had been off.
    ``ensure_samples`` closes that hole: when no spec passes the stride
    filter it pins ``force_seed`` to the first spec's derived seed, so
    every campaign traces at least one scenario — still deterministic
    in the spec list, so all backends agree on the forced choice.
    """

    campaign: str
    stride: int = 1
    force_seed: Optional[int] = None

    def samples(self, spec) -> bool:
        if self.stride <= 1:
            return True
        seed = spec.derived_seed()
        return seed % self.stride == 0 or seed == self.force_seed

    def ensure_samples(self, specs) -> "WorkerTelemetry":
        """A telemetry slice guaranteed to sample at least one of ``specs``."""
        if self.stride <= 1 or not specs:
            return self
        if any(self.samples(spec) for spec in specs):
            return self
        return replace(self, force_seed=specs[0].derived_seed())


class TelemetrySession:
    """Parent-side telemetry for campaign runs (thread-safe).

    Wire it into a :class:`~repro.store.caching.CachingRunner` via its
    ``telemetry=`` parameter; standalone use follows the same protocol:
    ``begin(campaign_id, total)`` → feed events to :meth:`on_event` →
    ``finish()``.  A campaign feeds its events from the calling thread,
    but a session may be shared by threads running campaigns or reading
    snapshots concurrently; all mutation is locked.

    A session reused across campaigns keeps two different scopes.
    :attr:`metrics` describe the current campaign only: each
    :meth:`begin` starts a fresh registry, so each metrics record counts
    its own campaign.  Spans keep accumulating over the whole session,
    because the trace file covers every campaign the session ran.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None):
        self.config = config or TelemetryConfig()
        self.metrics = MetricsRegistry()
        self.campaign: Optional[str] = None
        self._lock = threading.Lock()
        self._spans: List[SpanRecord] = []
        self._worker: Optional[WorkerTelemetry] = None
        self._tracer: Optional[Tracer] = None
        self._campaign_span = None
        self._total = 0
        self._summary: Optional[Dict[str, Any]] = None

    # -- lifecycle ---------------------------------------------------------

    def begin(self, campaign: str, total: int) -> None:
        """Start one campaign: fix the correlation id and sampling stride,
        and start its metrics from a fresh registry."""
        threshold = self.config.sample_threshold
        stride = 1 if threshold <= 0 or total <= threshold else -(-total // threshold)
        with self._lock:
            self.campaign = campaign
            self.metrics = MetricsRegistry()
            self._total = total
            self._worker = WorkerTelemetry(campaign=campaign, stride=stride)
            self._tracer = Tracer(trace_id=campaign)
            self._campaign_span = self._tracer.start_span(
                "campaign", {"total": total, "stride": stride})
            self._summary = None

    def worker_telemetry(self) -> Optional[WorkerTelemetry]:
        """The slice to hand to :meth:`CampaignRunner.run(telemetry=...)`."""
        return self._worker

    # -- the event stream --------------------------------------------------

    def on_event(self, event) -> None:
        """Ingest one :class:`~repro.campaign.runner.ScenarioEvent`.

        Deterministic fields feed deterministic metrics; wall-clock
        fields feed ``timing`` metrics; any spans the worker attached
        are collected for export.
        """
        m = self.metrics
        m.counter("scenarios_completed").inc()
        if event.cached:
            m.counter("scenarios_cached").inc()
        m.counter(f"verdict_{event.verdict}").inc()
        usage = event.usage
        m.counter("steps_total").inc(usage.steps)
        m.counter("messages_sent_total").inc(usage.messages_sent)
        m.counter("messages_delivered_total").inc(usage.messages_delivered)
        m.histogram("scenario_steps").observe(usage.steps)
        m.histogram("scenario_messages_sent").observe(usage.messages_sent)
        if usage.steps:
            m.histogram("messages_per_step").observe(
                usage.messages_sent // usage.steps)
        m.histogram(
            "scenario_seconds", bounds=DEFAULT_LATENCY_BOUNDS, timing=True,
        ).observe(event.seconds)
        with self._lock:
            depth = self._total - self.metrics.counter("scenarios_completed").value
        m.gauge("queue_depth", timing=True).set(max(0, depth))
        spans: Tuple[SpanRecord, ...] = getattr(event, "spans", ())
        if spans:
            with self._lock:
                self._spans.extend(spans)

    # -- inspection --------------------------------------------------------

    def spans(self) -> Tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._spans)

    def cache_hit_rate(self) -> float:
        completed = self.metrics.counter("scenarios_completed").value
        if not completed:
            return 0.0
        return self.metrics.counter("scenarios_cached").value / completed

    def deterministic_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Counts/sums only — bit-identical across policies and backends."""
        return self.metrics.deterministic_snapshot()

    def record_faults(self, fault_stats: Dict[str, int], *,
                      store_write_failures: int = 0) -> None:
        """Record the supervisor's fault counters for this campaign.

        Only non-zero counters are registered, and all of them as
        ``timing=True``: how often infrastructure failed is measurement,
        not outcome, so the counters must not perturb the cross-backend
        equality of :meth:`deterministic_snapshot` (worker deaths are
        scheduling accidents even when injected deterministically).
        """
        for name, value in fault_stats.items():
            if value:
                self.metrics.counter(name, timing=True).inc(int(value))
        if store_write_failures:
            self.metrics.counter(
                "store_write_failures", timing=True).inc(store_write_failures)

    def record_dispatch(self, dispatch_stats: Dict[str, Any], *,
                        store_io: Optional[Dict[str, int]] = None) -> None:
        """Record what shipping the campaign and storing its outcomes cost.

        ``dispatch_stats`` is a
        :meth:`~repro.faults.supervisor.DispatchStats.as_dict` payload;
        ``store_io`` the store's :meth:`~repro.store.base.ResultStore.io_stats`.
        Every non-zero value lands as a ``timing=True`` ``dispatch:*``
        counter (``*_seconds`` become ``*_micros``), plus a
        ``dispatch:bytes_per_task`` histogram when tasks were shipped —
        dispatch cost is orchestration measurement, not outcome, so it
        stays out of :meth:`deterministic_snapshot` exactly like the
        fault counters.  A ``dispatch:summary`` span carries the same
        numbers into the exported trace.  An in-process campaign ships
        nothing: on a JSONL or SQLite store it records only its non-zero
        ``dispatch:store_*`` counters and the summary span, and on the
        in-memory store (no I/O stats) nothing at all.
        """
        shipped = int(dispatch_stats.get("tasks_shipped", 0) or 0)
        scaled = {
            name: (int(round(value * 1_000_000))
                   if name.endswith("_seconds") else int(value))
            for name, value in dispatch_stats.items()
            if isinstance(value, (int, float))
        }
        for name, value in scaled.items():
            metric = (f"dispatch:{name[:-len('_seconds')]}_micros"
                      if name.endswith("_seconds") else f"dispatch:{name}")
            if value:
                self.metrics.counter(metric, timing=True).inc(value)
        if shipped:
            self.metrics.histogram(
                "dispatch:bytes_per_task", timing=True,
            ).observe(dispatch_stats.get("wire_bytes", 0) // shipped)
        if store_io:
            for name, value in store_io.items():
                if isinstance(value, int) and value:
                    self.metrics.counter(
                        f"dispatch:store_{name}", timing=True).inc(value)
        if self._tracer is not None and (shipped or store_io):
            attrs: Dict[str, Any] = {
                k: v for k, v in dispatch_stats.items()
                if isinstance(v, (int, float))
            }
            if store_io:
                attrs.update({f"store_{k}": v for k, v in store_io.items()
                              if isinstance(v, int)})
            span = self._tracer.start_span("dispatch:summary", attrs)
            self._tracer.end_span(span)

    # -- export ------------------------------------------------------------

    def finish(self, stats: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """Close the campaign span and write the configured exporters.

        Returns a summary dict (span/metric counts, export paths).
        Idempotent per ``begin``: :class:`~repro.store.caching.CachingRunner`
        finishes the session at the end of each ``run``, so a caller
        asking for the summary afterwards gets the cached one instead of
        a duplicate export.  An export that fails raises, also out of
        ``CachingRunner.run``: the caller configured it, unlike an
        observer's hook, whose errors the runner contains.
        """
        if self._summary is not None:
            return self._summary
        if self._tracer is not None and self._campaign_span is not None:
            if stats:
                self._campaign_span.attrs.update(
                    {k: v for k, v in stats.items()
                     if isinstance(v, (int, float, str, bool))})
            self._tracer.end_span(self._campaign_span)
            self._campaign_span = None
            with self._lock:
                self._spans.extend(self._tracer.drain())

        summary: Dict[str, Any] = {
            "campaign": self.campaign,
            "spans": len(self.spans()),
            "metrics": len(self.metrics.names()),
            "cache_hit_rate": round(self.cache_hit_rate(), 4),
        }
        if self.config.trace_path is not None:
            summary["trace_path"] = str(
                write_trace(self.config.trace_path, self.spans()))
        if self.config.metrics_path is not None and self.campaign is not None:
            path = append_metrics(
                self.config.metrics_path, self.campaign, self.metrics.snapshot(),
                extra={"stats": dict(stats) if stats else {}},
            )
            summary["metrics_path"] = str(path)
        self._summary = summary
        return summary
