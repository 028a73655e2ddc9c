"""ProgressReporter under concurrent event delivery.

A campaign delivers events on its calling thread, while another thread
may call ``snapshot()`` whenever it likes; these tests hammer that
contract directly with threads (the
same discipline as tests/store/test_store_concurrency.py applies to the
SQLite store) and pin the well-formed-zero-state guarantee for
snapshots taken before ``campaign_started``.
"""

from __future__ import annotations

import io
import threading

from repro.campaign.runner import ScenarioEvent
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.store import (
    CollectingProgressReporter,
    LogProgressReporter,
    ProgressReporter,
)

THREADS = 8
EVENTS_PER_THREAD = 250


def _event(i: int, *, verdict: str = "ok", cached: bool = False) -> ScenarioEvent:
    spec = ScenarioSpec(kind="progress-probe", n=4, f=1, k=1, seed=i)
    return ScenarioEvent.of(
        spec, ScenarioOutcome(spec=spec, verdict=verdict), 0.001,
        worker_pid=40_000 + (i % 4), cached=cached,
    )


def _hammer(reporter: ProgressReporter, verdicts) -> None:
    """Deliver events from THREADS threads, all released at once."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def worker(thread_index: int) -> None:
        try:
            barrier.wait()
            for i in range(EVENTS_PER_THREAD):
                reporter(_event(
                    thread_index * EVENTS_PER_THREAD + i,
                    verdict=verdicts[i % len(verdicts)],
                    cached=(i % 5 == 0),
                ))
        except Exception as exc:  # noqa: BLE001 - surfaced as test failure
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(t,)) for t in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []


class TestConcurrentDelivery:
    def test_counters_are_exact_under_thread_hammer(self):
        total = THREADS * EVENTS_PER_THREAD
        reporter = ProgressReporter()
        reporter.campaign_started(total)
        _hammer(reporter, verdicts=("ok", "violation", "error"))
        snap = reporter.snapshot()
        assert snap["completed"] == total
        assert snap["cached"] == total // 5
        assert snap["ok"] + snap["violation"] + snap["error"] == total
        assert snap["executed"] == total - total // 5
        assert snap["workers_seen"] == 4

    def test_snapshot_is_consistent_while_events_arrive(self):
        # A snapshot taken mid-hammer must be internally consistent: the
        # verdict counts sum to completed, cached never exceeds it.
        reporter = ProgressReporter()
        reporter.campaign_started(THREADS * EVENTS_PER_THREAD)
        stop = threading.Event()
        inconsistencies = []

        def observer() -> None:
            while not stop.is_set():
                snap = reporter.snapshot()
                verdict_sum = snap["ok"] + snap["violation"] + snap["error"]
                if verdict_sum != snap["completed"]:
                    inconsistencies.append(snap)
                if snap["cached"] > snap["completed"]:
                    inconsistencies.append(snap)

        watcher = threading.Thread(target=observer)
        watcher.start()
        try:
            _hammer(reporter, verdicts=("ok", "violation"))
        finally:
            stop.set()
            watcher.join()
        assert inconsistencies == []

    def test_collecting_reporter_keeps_every_event(self):
        reporter = CollectingProgressReporter()
        reporter.campaign_started(THREADS * EVENTS_PER_THREAD)
        _hammer(reporter, verdicts=("ok",))
        assert len(reporter.events) == THREADS * EVENTS_PER_THREAD

    def test_log_reporter_survives_the_hammer(self):
        stream = io.StringIO()
        total = THREADS * EVENTS_PER_THREAD
        reporter = LogProgressReporter(every=100, stream=stream)
        reporter.campaign_started(total)
        _hammer(reporter, verdicts=("ok",))
        reporter.campaign_finished()
        text = stream.getvalue()
        assert f"started: {total} scenarios" in text
        assert f"{total}/{total}" in text


class TestZeroState:
    def test_snapshot_before_campaign_started_is_well_formed(self):
        snap = ProgressReporter().snapshot()
        assert snap == {
            "total": 0,
            "completed": 0,
            "cached": 0,
            "executed": 0,
            "workers_seen": 0,
            "elapsed_seconds": 0.0,
            "scenarios_per_second": 0.0,
            "ok": 0,
            "violation": 0,
            "error": 0,
        }

    def test_events_before_campaign_started_still_count(self):
        # The runner contract delivers campaign_started first, but a
        # reporter fed bare events must degrade gracefully, not divide
        # by an unset start time.
        reporter = ProgressReporter()
        reporter(_event(0))
        snap = reporter.snapshot()
        assert snap["completed"] == 1
        assert snap["total"] == 0
        assert snap["elapsed_seconds"] == 0.0
        assert snap["scenarios_per_second"] == 0.0

    def test_log_reporter_zero_state_rate_is_silent(self):
        stream = io.StringIO()
        reporter = LogProgressReporter(every=1, stream=stream)
        reporter.campaign_finished()  # no events at all
        line = stream.getvalue().strip()
        assert line.startswith("[campaign] 0/?")
        assert "rate=" not in line  # no samples -> no extrapolation

    def test_rate_and_eta_appear_after_enough_samples(self):
        stream = io.StringIO()
        reporter = LogProgressReporter(every=10, stream=stream)
        reporter.campaign_started(40)
        for i in range(20):
            reporter(_event(i))
        text = stream.getvalue()
        assert "rate=" in text
        assert "eta=" in text


class TestRateWindowGuards:
    """Degenerate sample windows must never produce a rate or an ETA."""

    @staticmethod
    def _reporter_with_samples(samples):
        reporter = LogProgressReporter(every=1, stream=io.StringIO())
        reporter.campaign_started(100)
        reporter.completed = samples[-1][1]
        reporter._samples.clear()
        reporter._samples.extend(samples)
        return reporter

    def test_same_tick_samples_yield_no_estimate(self):
        # Two samples in the same clock tick: zero-width window.  Must
        # degrade to "no estimate", never raise ZeroDivisionError.
        reporter = self._reporter_with_samples([(10.0, 0), (10.0, 5)])
        rate, eta = reporter._rate_eta()
        assert (rate, eta) == (0.0, None)

    def test_near_same_tick_samples_yield_no_estimate(self):
        # Regression: a positive-but-negligible span used to pass the
        # exact-zero guard and manufacture an absurd rate (here 5e9/s)
        # and a nonsense ETA.
        reporter = self._reporter_with_samples([(10.0, 0), (10.0 + 1e-9, 5)])
        rate, eta = reporter._rate_eta()
        assert (rate, eta) == (0.0, None)

    def test_real_window_still_estimates(self):
        reporter = self._reporter_with_samples([(10.0, 0), (12.0, 10)])
        rate, eta = reporter._rate_eta()
        assert rate == 5.0
        assert eta == (100 - 10) / 5.0

    def test_same_tick_line_emission_is_safe(self):
        stream = io.StringIO()
        reporter = LogProgressReporter(every=1, stream=stream)
        reporter.campaign_started(10)
        reporter.completed = 2
        reporter._samples.clear()
        reporter._samples.extend([(10.0, 0), (10.0, 2)])
        reporter._emit_line()  # must not raise, must not print a rate
        assert "rate=" not in stream.getvalue()
