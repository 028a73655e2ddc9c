"""Demo: the unified telemetry layer — spans, metrics, trace export.

Runs the Theorem 8 border campaign three ways under one
:class:`~repro.telemetry.TelemetrySession`:

1. **traced, process backend** — worker processes record hierarchical
   spans (campaign → scenario → execute → ``phase:*`` → decision) that
   ship back on the scenario events, correlated by the journal's
   campaign id; the session exports a Chrome trace-event file (load it
   at ``ui.perfetto.dev``) and a metrics JSONL dump on finish;
2. **serial, fresh session** — the deterministic metric fields (counts,
   integer sums, histogram bins) are *equal* to the process run's:
   telemetry, like :class:`~repro.provenance.ResourceUsage`, separates
   what the machine did from how long it took;
3. **cached replay** — a warm store answers every scenario; the session
   reports a 100% cache hit rate and no executor spans.

It then summarises the trace through the bundled CLI — the same thing
``python -m repro.report --trace trace.jsonl --metrics ... --journal
...`` prints.  Run with::

    PYTHONPATH=src python examples/campaign_telemetry.py

Set ``REPRO_TRACE``, ``REPRO_METRICS`` and ``REPRO_TELEMETRY_JOURNAL``
to keep the artifacts (CI uploads them next to the benchmark JSON).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, theorem8_specs
from repro.store import CachingRunner, MemoryResultStore
from repro.telemetry import TelemetryConfig, TelemetrySession, read_trace
from repro.report import main as report_main


def main() -> None:
    n_values = [4, 5]
    specs = theorem8_specs(n_values, seeds=(1,), max_steps=6_000)
    print(f"campaign: {len(specs)} scenarios over n={n_values}")

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(os.environ.get("REPRO_TRACE", Path(tmp) / "trace.jsonl"))
        metrics_path = Path(os.environ.get("REPRO_METRICS", Path(tmp) / "metrics.jsonl"))
        journal_path = Path(os.environ.get(
            "REPRO_TELEMETRY_JOURNAL", Path(tmp) / "journal.jsonl"))

        # 1. Traced process-backend run: spans cross the process boundary
        #    on the scenario events, the journal shares the correlation id.
        session = TelemetrySession(TelemetryConfig(
            sample_threshold=0,          # small campaign: trace everything
            trace_path=trace_path,
            metrics_path=metrics_path,
        ))
        store = MemoryResultStore()
        with CachingRunner(
            store,
            CampaignRunner(backend="process", workers=2, chunk_size=8),
            journal=journal_path,
            telemetry=session,
        ) as runner:
            result = runner.run(specs)
            campaign = runner.last_campaign_id

            # 3 (early, while the store is still open). Cached replay:
            #    every scenario answered from the store — 100% hit rate,
            #    no executor spans, nothing executed.
            warm = TelemetrySession(TelemetryConfig())
            CachingRunner(store, telemetry=warm).run(specs)
            assert warm.cache_hit_rate() == 1.0
            assert not [s for s in warm.spans() if s.name == "execute"]
        summary = session.finish()
        print(f"traced:    {result.verdict_counts()} "
              f"({summary['spans']} spans, campaign {campaign})")
        assert summary["trace_path"] == str(trace_path)

        spans = session.spans()
        names = {s.name for s in spans}
        assert {"campaign", "scenario", "execute", "decision"} <= names
        assert any(n.startswith("phase:") for n in names)
        worker_pids = {s.pid for s in spans if s.name == "scenario"}
        print(f"  span kinds: {sorted(names)[:4]}… from "
              f"{len(worker_pids)} worker pid(s)")
        assert {s.trace_id for s in spans} == {campaign}

        # 2. Same campaign, serial backend, fresh session: deterministic
        #    metric fields are bit-identical — wall-clock is excluded.
        serial = TelemetrySession(TelemetryConfig())
        CachingRunner(MemoryResultStore(), telemetry=serial).run(specs)
        assert serial.deterministic_snapshot() == session.deterministic_snapshot()
        det = serial.deterministic_snapshot()
        print(f"serial:    deterministic snapshot equal to process run "
              f"({det['steps_total']['value']} steps, "
              f"{det['messages_sent_total']['value']} msgs)")

        # 3. Reported here; the replay itself ran above, before the
        #    in-memory store was closed.
        print(f"cached:    hit rate {warm.cache_hit_rate():.0%}, "
              f"no executor spans")

        # 4. The exported trace validates and summarises via the CLI.
        events = read_trace(trace_path)
        assert {e["args"]["trace_id"] for e in events} == {campaign}
        print(f"\ntrace file: {len(events)} events at {trace_path}")
        rc = report_main([
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--journal", str(journal_path),
            "--top", "3",
        ])
        assert rc == 0

    print("\nall telemetry guarantees hold")


if __name__ == "__main__":
    main()
