"""Telemetry through the whole campaign stack.

The acceptance properties of the unified telemetry layer:

* the **deterministic metric fields** (counts, integer sums, bins) are
  bit-identical across all recording policies and all campaign
  backends — the telemetry mirror of the recording-plumbing pins;
* a traced **process-backend** campaign collects spans from the worker
  processes (worker pids, not the parent's) under the correct campaign
  correlation id, shipped back on the scenario events;
* **sampling** is a deterministic function of scenario identity, so the
  same scenarios are traced whatever the backend;
* with **telemetry off** the executor records nothing (and the ambient
  tracer is absent), which is the zero-overhead default;
* the exported trace validates and summarises through
  ``python -m repro.report``, joining the provenance journal.
"""

from __future__ import annotations

import os

import pytest

from repro.campaign import (
    CampaignRunner,
    SharedExecutionKind,
    get_kind,
    theorem8_specs,
)
from repro.simulation.recording import RECORDING_POLICY_NAMES
from repro.store import CachingRunner, MemoryResultStore
from repro.telemetry import (
    TelemetryConfig,
    TelemetrySession,
    Tracer,
    WorkerTelemetry,
    activated,
    current_tracer,
    read_trace,
)
from repro.report import main as report_main

PINNED_GRID = [4]
PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}
BACKENDS = ("serial", "process")


def _execution_key(spec):
    kind = get_kind(spec.kind)
    if isinstance(kind, SharedExecutionKind):
        return kind.execution_key(spec)
    return None


def _run_with_telemetry(recording: str, backend: str, **config):
    session = TelemetrySession(TelemetryConfig(**config))
    runner = CachingRunner(
        MemoryResultStore(),
        CampaignRunner(backend=backend, workers=2, chunk_size=5),
        telemetry=session,
    )
    specs = theorem8_specs(PINNED_GRID, recording=recording, **PINNED_KWARGS)
    result = runner.run(specs)
    return session, result


class TestDeterministicMetrics:
    def test_metrics_identical_across_policies_and_backends(self):
        # The ResourceUsage design pattern, applied to the registry: the
        # deterministic snapshot must be equal with ``==`` across the
        # full policy x backend matrix.  Wall-clock metrics are excluded
        # by deterministic_snapshot itself.
        snapshots = {}
        verdicts = {}
        for recording in RECORDING_POLICY_NAMES:
            for backend in BACKENDS:
                session, result = _run_with_telemetry(recording, backend)
                snapshots[(recording, backend)] = session.deterministic_snapshot()
                verdicts[(recording, backend)] = result.verdict_counts()
        baseline = snapshots[("full", "serial")]
        assert baseline["scenarios_completed"]["value"] > 0
        for key, snapshot in snapshots.items():
            assert snapshot == baseline, f"diverged: {key}"
        baseline_verdicts = verdicts[("full", "serial")]
        assert all(v == baseline_verdicts for v in verdicts.values())

    def test_deterministic_snapshot_excludes_wall_clock(self):
        session, _ = _run_with_telemetry("full", "serial")
        det = session.deterministic_snapshot()
        assert "scenario_seconds" not in det
        assert "queue_depth" not in det
        full = session.metrics.snapshot()
        assert "scenario_seconds" in full


class TestWorkerSpans:
    def test_process_campaign_collects_worker_side_spans(self):
        session, result = _run_with_telemetry("full", "process")
        spans = session.spans()
        assert spans, "traced campaign produced no spans"
        campaign = session.campaign
        assert campaign == "%s" % session.campaign
        assert {s.trace_id for s in spans} == {campaign}
        if result.workers > 1:
            worker_pids = {s.pid for s in spans if s.name == "scenario"}
            assert os.getpid() not in worker_pids

    def test_span_hierarchy_covers_the_stack(self):
        session, _ = _run_with_telemetry("full", "serial")
        names = {s.name for s in session.spans()}
        assert {"scenario", "execute", "decision"} <= names
        assert any(n.startswith("phase:") for n in names)

    @pytest.mark.parametrize("recording", ["full", "verdict-only"])
    def test_execute_spans_carry_deterministic_counters(self, recording):
        session, _ = _run_with_telemetry(recording, "serial")
        executes = [s for s in session.spans() if s.name == "execute"]
        det = session.deterministic_snapshot()
        assert sum(s.attrs["steps"] for s in executes) == \
            det["steps_total"]["value"]
        assert sum(s.attrs["messages_sent"] for s in executes) == \
            det["messages_sent_total"]["value"]
        if recording == "verdict-only":
            # Every traced scenario executes exactly once; the solvable
            # side takes the bitmask fast path, the partitioning
            # constructions of the impossible side the scalar executor.
            scenarios = [s for s in session.spans() if s.name == "scenario"]
            solvable = [s for s in scenarios
                        if s.attrs["kind"] == "theorem8-solvable"]
            engines = [s.attrs["engine"] for s in executes]
            assert solvable and len(executes) == len(scenarios)
            assert engines.count("bitmask") == len(solvable)
            assert engines.count("scalar") == len(scenarios) - len(solvable)


class TestSharedExecutionSpans:
    def test_shared_runs_keep_each_positions_spans(self):
        # Chunks of 24 hold whole groups of round-robin runs that differ
        # only in k: a task executes each group once and judges every
        # position at its own k.
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        events = []
        CampaignRunner(backend="process", workers=2, chunk_size=24).run(
            specs, on_settle=events.append,
            telemetry=WorkerTelemetry(campaign="c" * 12, stride=1))
        # Tasks settle in completion order; each position settles once.
        assert sorted(e.spec.label() for e in events) == sorted(
            spec.label() for spec in specs)
        executes = 0
        for event in events:
            names = [span.name for span in event.spans]
            assert names.count("scenario") == 1
            (decision,) = [s for s in event.spans if s.name == "decision"]
            assert decision.attrs["k"] == event.spec.k
            executes += names.count("execute")
        executions = 0
        for start in range(0, len(specs), 24):
            keys = [_execution_key(spec) for spec in specs[start:start + 24]]
            executions += keys.count(None) + len(set(keys) - {None})
        assert executes == executions < len(specs)


class TestSampling:
    def test_stride_derives_from_threshold(self):
        session = TelemetrySession(TelemetryConfig(sample_threshold=10))
        session.begin("c" * 12, total=44)
        assert session.worker_telemetry().stride == 5  # ceil(44/10)

    def test_zero_threshold_traces_everything(self):
        session = TelemetrySession(TelemetryConfig(sample_threshold=0))
        session.begin("c" * 12, total=10_000)
        assert session.worker_telemetry().stride == 1

    def test_sampled_scenarios_identical_across_backends(self):
        labels = {}
        for backend in BACKENDS:
            session, _ = _run_with_telemetry(
                "verdict-only", backend, sample_threshold=10)
            labels[backend] = sorted(
                s.attrs["label"] for s in session.spans()
                if s.name == "scenario"
            )
        assert labels["serial"] == labels["process"]
        total = len(theorem8_specs(PINNED_GRID, **PINNED_KWARGS))
        assert 0 < len(labels["serial"]) < total

    def test_sampling_is_a_pure_function_of_identity(self):
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        telem = WorkerTelemetry(campaign="c" * 12, stride=5)
        first = [telem.samples(spec) for spec in specs]
        assert first == [telem.samples(spec) for spec in specs]
        assert any(first) and not all(first)


class TestOffByDefault:
    def test_no_ambient_tracer_without_telemetry(self):
        assert current_tracer() is None
        runner = CampaignRunner()
        runner.run(theorem8_specs(PINNED_GRID, **PINNED_KWARGS)[:5])
        assert current_tracer() is None

    def test_execute_records_nothing_without_a_tracer(self):
        from repro.campaign.scenarios import execute_theorem8_solvable
        from repro.campaign.spec import ScenarioSpec

        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=2)
        run, report = execute_theorem8_solvable(spec)
        assert run.completed  # behaviour unchanged, nothing traced

    def test_execute_is_traced_under_an_ambient_tracer(self):
        from repro.campaign.scenarios import execute_theorem8_solvable
        from repro.campaign.spec import ScenarioSpec

        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=2)
        tracer = Tracer(trace_id="t")
        with activated(tracer):
            execute_theorem8_solvable(spec)
        names = [r.name for r in tracer.records()]
        assert "execute" in names
        assert "decision" in names
        assert "phase:transition" in names

    def test_runner_ignores_telemetry_without_a_progress_sink(self):
        # Spans travel on ScenarioEvents; without a progress sink there
        # is no event stream, so telemetry must be dropped, not crash.
        runner = CampaignRunner()
        telem = WorkerTelemetry(campaign="c" * 12)
        result = runner.run(
            theorem8_specs(PINNED_GRID, **PINNED_KWARGS)[:5], telemetry=telem)
        assert len(result.outcomes) == 5


class TestCacheInteraction:
    def test_cached_rerun_reports_full_hit_rate(self):
        store = MemoryResultStore()
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        CachingRunner(store).run(specs)

        session = TelemetrySession(TelemetryConfig())
        CachingRunner(store, telemetry=session).run(specs)
        assert session.cache_hit_rate() == 1.0
        det = session.deterministic_snapshot()
        assert det["scenarios_cached"]["value"] == len(specs)
        # Nothing executed -> no scenario/execute spans from workers.
        assert not [s for s in session.spans() if s.name == "execute"]


class TestEndToEndExport:
    def test_trace_and_report_roundtrip_with_journal(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.jsonl"
        journal_path = tmp_path / "journal.jsonl"
        session = TelemetrySession(TelemetryConfig(
            trace_path=trace_path, metrics_path=metrics_path))
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        with CachingRunner(
            MemoryResultStore(),
            CampaignRunner(backend="process", workers=2, chunk_size=5),
            journal=journal_path,
            telemetry=session,
        ) as runner:
            runner.run(specs)
            campaign = runner.last_campaign_id

        summary = session.finish()  # idempotent: run() already finished it
        assert summary["trace_path"] == str(trace_path)

        events = read_trace(trace_path)
        assert events
        campaign_ids = {e["args"]["trace_id"] for e in events}
        assert campaign_ids == {campaign}

        assert report_main([
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
            "--journal", str(journal_path),
        ]) == 0

    def test_finish_is_idempotent_per_begin(self, tmp_path):
        metrics_path = tmp_path / "metrics.jsonl"
        session = TelemetrySession(TelemetryConfig(metrics_path=metrics_path))
        with CachingRunner(
            MemoryResultStore(), telemetry=session
        ) as runner:
            runner.run(theorem8_specs(PINNED_GRID, **PINNED_KWARGS)[:5])
        first = session.finish()
        second = session.finish()
        assert first is second
        from repro.telemetry import read_metrics
        assert len(read_metrics(metrics_path)) == 1


class TestSessionReuse:
    def test_second_metrics_record_counts_only_its_campaign(self, tmp_path):
        from repro.telemetry import read_metrics

        metrics_path = tmp_path / "metrics.jsonl"
        session = TelemetrySession(TelemetryConfig(metrics_path=metrics_path))
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        runner = CachingRunner(MemoryResultStore(), telemetry=session)
        runner.run(specs)
        runner.run(specs[:10])  # all ten served from the store

        first, second = read_metrics(metrics_path)
        assert first["stats"]["total"] == first["metrics"][
            "scenarios_completed"]["value"] == len(specs)
        assert second["stats"]["total"] == 10
        assert second["metrics"]["scenarios_completed"]["value"] == 10
        assert second["metrics"]["scenarios_cached"]["value"] == 10
        assert second["metrics"]["queue_depth"]["value"] == 0
        assert session.cache_hit_rate() == 1.0
        # The trace covers the whole session: both campaign spans stay.
        assert len([s for s in session.spans() if s.name == "campaign"]) == 2
