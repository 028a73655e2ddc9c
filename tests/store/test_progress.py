"""Progress reporting: event streams, pool-wide liveness, cached events."""

from __future__ import annotations

import io
import logging
import os

import pytest

from repro.campaign import CampaignRunner, ScenarioEvent, theorem8_specs
from repro.provenance import read_journal, replay_ledger
from repro.provenance.usage import ResourceUsage
from repro.store import (
    CachingRunner,
    CollectingProgressReporter,
    LogProgressReporter,
    MemoryResultStore,
    ProgressReporter,
)
from repro.store.fingerprint import fingerprint_spec
from repro.telemetry import TelemetrySession

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)


def _cached_event(spec, outcome):
    """The event of a scenario served without running, field by field."""
    return ScenarioEvent(
        spec=spec, outcome=outcome, seconds=0.0, worker_pid=os.getpid(),
        cached=True, spans=(),
    )


def _assert_identity_and_usage(event, spec, outcome):
    """The fields an event derives from its spec and outcome."""
    assert event.label == spec.label()
    assert event.verdict == outcome.verdict
    assert event.fingerprint == fingerprint_spec(spec)
    assert event.usage == ResourceUsage.of_outcome(outcome)
    assert event.usage.seconds == 0.0


class TestEventStream:
    def test_serial_campaign_reports_every_scenario(self):
        reporter = CollectingProgressReporter()
        caching = CachingRunner(MemoryResultStore(), progress=reporter)
        result = caching.run(SPECS)
        assert len(reporter.events) == len(result.outcomes) == len(SPECS)
        snap = reporter.snapshot()
        assert snap["total"] == len(SPECS)
        assert snap["completed"] == len(SPECS)
        assert snap["cached"] == 0
        assert snap["ok"] + snap["violation"] + snap["error"] == len(SPECS)

    def test_verdict_counts_match_the_result(self):
        reporter = CollectingProgressReporter()
        CachingRunner(MemoryResultStore(), progress=reporter).run(SPECS)
        counts = CampaignRunner().run(SPECS).verdict_counts()
        snap = reporter.snapshot()
        assert {k: snap[k] for k in ("ok", "violation", "error")} == counts

    def test_process_campaign_streams_worker_side_events(self):
        reporter = CollectingProgressReporter()
        caching = CachingRunner(
            MemoryResultStore(),
            CampaignRunner(backend="process", workers=2, chunk_size=3),
            progress=reporter,
        )
        result = caching.run(SPECS)
        assert len(reporter.events) == len(result.outcomes)
        pids = {event.worker_pid for event in reporter.events}
        assert len(pids) >= 1  # a degraded (fork-less) pool still reports
        if result.workers > 1:
            assert os.getpid() not in pids  # events were produced worker-side

    def test_cached_scenarios_appear_as_cached_events(self):
        store = MemoryResultStore()
        CachingRunner(store).run(SPECS[:10])
        reporter = CollectingProgressReporter()
        CachingRunner(store, progress=reporter).run(SPECS)
        cached_events = [event for event in reporter.events if event.cached]
        fresh_events = [event for event in reporter.events if not event.cached]
        assert len(cached_events) == 10
        assert len(fresh_events) == len(SPECS) - 10
        assert all(event.worker_pid == os.getpid() for event in cached_events)
        assert reporter.snapshot()["executed"] == len(SPECS) - 10

    def test_duplicate_specs_still_reach_the_announced_total(self):
        # Deduplicated duplicates complete with their first occurrence;
        # the reporter must still see completed == total at the end.
        reporter = CollectingProgressReporter()
        duplicated = [SPECS[0], SPECS[0], SPECS[1], SPECS[0]]
        CachingRunner(MemoryResultStore(), progress=reporter).run(duplicated)
        snap = reporter.snapshot()
        assert snap["total"] == 4
        assert snap["completed"] == 4
        assert snap["cached"] == 2  # the two replayed duplicate positions

    def test_store_hit_events_carry_the_scenario_identity_and_usage(self):
        store = MemoryResultStore()
        CachingRunner(store).run(SPECS[:10])
        reporter = CollectingProgressReporter()
        result = CachingRunner(store, progress=reporter).run(SPECS)
        cached_events = [event for event in reporter.events if event.cached]
        assert len(cached_events) == 10
        by_label = {o.spec.label(): o for o in result.outcomes}
        for event in cached_events:
            outcome = by_label[event.label]
            assert event == _cached_event(outcome.spec, outcome)
            _assert_identity_and_usage(event, outcome.spec, outcome)

    def test_duplicate_position_events_carry_the_scenario_identity_and_usage(self):
        reporter = CollectingProgressReporter()
        duplicated = [SPECS[0], SPECS[0], SPECS[1], SPECS[0]]
        result = CachingRunner(MemoryResultStore(), progress=reporter).run(duplicated)
        cached_events = [event for event in reporter.events if event.cached]
        assert len(cached_events) == 2
        assert cached_events == [_cached_event(SPECS[0], result.outcomes[0])] * 2
        for event in cached_events:
            _assert_identity_and_usage(event, SPECS[0], result.outcomes[0])


class RaisingReporter(CollectingProgressReporter):
    def on_event(self, event):
        super().on_event(event)
        raise RuntimeError("reporting is broken")


class RaisingStartReporter(CollectingProgressReporter):
    def campaign_started(self, total):
        super().campaign_started(total)
        raise RuntimeError("start hook broken")


class RaisingFinishReporter(CollectingProgressReporter):
    def campaign_finished(self):
        raise RuntimeError("finish hook broken")


class RaisingSession(TelemetrySession):
    def on_event(self, event):
        raise RuntimeError("telemetry is broken")


OBSERVERS = {
    "reporter": lambda: {"progress": RaisingReporter()},
    "reporter-start": lambda: {"progress": RaisingStartReporter()},
    "reporter-finish": lambda: {"progress": RaisingFinishReporter()},
    "telemetry": lambda: {"telemetry": RaisingSession()},
}


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


@pytest.fixture
def caching_warnings():
    """The warnings ``CachingRunner`` logs while the test runs."""
    handler = _Records()
    logger = logging.getLogger("repro.store.caching")
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


# Each run settles its positions by another path: all executed, all
# served from a warm store, or executed once and replayed as duplicates.
RUNS = {
    "cold": (SPECS[:5], False),
    "warm": (SPECS, True),
    "duplicates": ([SPECS[0], SPECS[0], SPECS[1], SPECS[0]], False),
}


class TestRaisingObservers:
    """An observer that raises is contained on every path a position
    settles by, and when the campaign starts or finishes, and changes
    neither the outcomes nor the journal."""

    @pytest.mark.parametrize("run", list(RUNS))
    @pytest.mark.parametrize("observer", sorted(OBSERVERS))
    def test_outcomes_and_journal_equal_a_quiet_runs(
            self, observer, run, tmp_path, caching_warnings):
        specs, warm = RUNS[run]
        store = MemoryResultStore()
        quiet = CachingRunner(store).run(specs)
        if not warm:
            store = MemoryResultStore()
        journal = tmp_path / "journal.jsonl"
        with CachingRunner(store, journal=journal,
                           **OBSERVERS[observer]()) as runner:
            loud = runner.run(specs)
        assert loud.outcomes == quiet.outcomes
        assert runner.last_stats.cached == (len(specs) if warm else 0)
        ledger = replay_ledger(read_journal(journal)).campaigns[
            runner.last_campaign_id]
        assert ledger.finished
        assert ledger.ran + ledger.cached + ledger.skipped == ledger.total
        assert ledger.total == len(specs)
        assert len(caching_warnings) == 1  # once per campaign, not per event

    def test_a_reporter_whose_start_raises_still_sees_every_event(self):
        reporter = RaisingStartReporter()
        CachingRunner(MemoryResultStore(), progress=reporter).run(SPECS[:5])
        assert reporter.snapshot()["completed"] == 5
        assert len(reporter.events) == 5

    def test_a_raising_telemetry_session_still_feeds_the_reporter(self):
        reporter = CollectingProgressReporter()
        CachingRunner(MemoryResultStore(), telemetry=RaisingSession(),
                      progress=reporter).run(SPECS[:5])
        assert reporter.snapshot()["completed"] == 5


class TestLogReporter:
    def test_log_lines_are_emitted(self):
        stream = io.StringIO()
        reporter = LogProgressReporter(every=10, stream=stream)
        CachingRunner(MemoryResultStore(), progress=reporter).run(SPECS)
        text = stream.getvalue()
        assert f"started: {len(SPECS)} scenarios" in text
        assert f"{len(SPECS)}/{len(SPECS)}" in text
        assert "violation=" in text

    def test_errors_are_always_logged(self):
        from repro.campaign import ScenarioSpec

        stream = io.StringIO()
        reporter = LogProgressReporter(every=1000, stream=stream)
        infeasible = ScenarioSpec(kind="theorem8-impossible", n=4, f=1, k=1)
        CachingRunner(MemoryResultStore(), progress=reporter).run([infeasible])
        assert "ERROR" in stream.getvalue()


class TestReuseAcrossCampaigns:
    @pytest.mark.parametrize("kind", ["base", "collecting", "log"])
    def test_second_campaign_reports_only_itself(self, kind):
        stream = io.StringIO()
        reporter = {
            "base": ProgressReporter,
            "collecting": CollectingProgressReporter,
            "log": lambda: LogProgressReporter(every=10, stream=stream),
        }[kind]()
        caching = CachingRunner(MemoryResultStore(), progress=reporter)
        caching.run(SPECS)
        caching.run(SPECS[:10])  # all ten served from the store
        snap = reporter.snapshot()
        assert snap["total"] == snap["completed"] == 10
        assert snap["cached"] == 10
        assert snap["executed"] == 0
        assert snap["ok"] + snap["violation"] + snap["error"] == 10
        assert snap["workers_seen"] == 1
        if kind == "collecting":  # the event log stays append-only
            assert len(reporter.events) == len(SPECS) + 10
        if kind == "log":
            last = stream.getvalue().splitlines()[-1]
            assert last.startswith("[campaign] 10/10 (10 cached) ")
