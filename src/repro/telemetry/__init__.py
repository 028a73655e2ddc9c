"""Unified telemetry: spans, metrics, exporters and the logging facade.

The observability layer of the campaign stack, one level of abstraction
per module and **stdlib-only imports** throughout, so every other layer
(simulation executor included) may depend on it without cycles:

- :mod:`repro.telemetry.spans` — hierarchical span tracing with an
  ambient, thread-local tracer.  Telemetry is **off by default**: with
  no tracer active the executor's only residue is a ``None`` check.
- :mod:`repro.telemetry.metrics` — named counters, gauges and bounded
  histograms whose deterministic fields (counts, integer sums, bins)
  are bit-identical across engines and campaign backends.
- :mod:`repro.telemetry.export` — torn-tail-safe Chrome trace-event
  files (Perfetto / ``chrome://tracing`` load them directly) and
  metrics JSONL dumps.
- :mod:`repro.telemetry.logs` — the logging facade: one ``repro``
  logger hierarchy and private plain-line stream loggers.
- :mod:`repro.telemetry.session` — :class:`TelemetrySession`, the
  campaign-level tie-in consumed by
  :class:`~repro.store.caching.CachingRunner`, and the picklable
  :class:`WorkerTelemetry` slice that crosses into worker processes
  with deterministic scenario sampling.

``python -m repro.report --trace ...`` validates an exported trace and
prints its per-phase breakdowns, slowest-scenario tables and journal
join.

Typical use::

    from repro.campaign import CampaignRunner, theorem8_specs
    from repro.store import CachingRunner, open_store
    from repro.telemetry import TelemetryConfig, TelemetrySession

    session = TelemetrySession(TelemetryConfig(
        trace_path="campaign_trace.jsonl",
        metrics_path="campaign_metrics.jsonl",
    ))
    with CachingRunner(
        open_store("theorem8.sqlite"),
        CampaignRunner(backend="process", workers=8),
        telemetry=session,
    ) as runner:
        runner.run(theorem8_specs([4, 5, 6, 7]))
    print(session.finish())   # exports trace + metrics, reports paths
"""

from repro.telemetry.export import (
    TELEMETRY_SCHEMA_VERSION,
    append_metrics,
    read_metrics,
    read_trace,
    span_to_trace_event,
    write_trace,
)
from repro.telemetry.logs import (
    DEFAULT_FORMAT,
    configure,
    get_logger,
    stream_logger,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.session import TelemetryConfig, TelemetrySession, WorkerTelemetry
from repro.telemetry.spans import (
    PhaseAccumulator,
    SpanRecord,
    Tracer,
    activate,
    activated,
    current_tracer,
    deactivate,
    span,
)

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    # spans
    "SpanRecord",
    "PhaseAccumulator",
    "Tracer",
    "activate",
    "activated",
    "current_tracer",
    "deactivate",
    "span",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # export
    "span_to_trace_event",
    "write_trace",
    "read_trace",
    "append_metrics",
    "read_metrics",
    # logging facade
    "DEFAULT_FORMAT",
    "get_logger",
    "configure",
    "stream_logger",
    # session
    "TelemetryConfig",
    "TelemetrySession",
    "WorkerTelemetry",
]
