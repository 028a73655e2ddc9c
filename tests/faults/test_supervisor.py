"""Supervisor unit contracts: settle-once, retry, bisect, quarantine,
and the pool it owns.

Most of these exercise the supervision state machine in-process with
scripted task functions — no pool, no fault plan — so each transition
(retry with backoff accounting, bisection re-attribution, quarantine as
an ``"error"`` outcome) is pinned in isolation from the chaos machinery.
``TestPoolOwnership`` pins what a task learns of where it runs and the
campaign that a host unable to fork still completes.
"""

from __future__ import annotations

import logging
import multiprocessing

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.spec import ScenarioOutcome
from repro.faults import FaultPlan, RetryPolicy, Supervisor
from repro.faults.supervisor import QuarantineError

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)[:6]


def _ok(spec) -> ScenarioOutcome:
    return ScenarioOutcome(spec=spec, verdict="ok", distinct_decisions=1,
                           decided=spec.n, steps=1)


def _recorder(results, events=None):
    def record(indices, outcomes, timings, slot_events):
        for index, outcome, seconds, event in zip(
                indices, outcomes, timings, slot_events):
            assert index not in results, f"slot {index} settled twice"
            results[index] = outcome
            if events is not None:
                events.append(event)
    return record


def _policy(**overrides):
    defaults = dict(max_attempts=3, backoff_seconds=0.0,
                    task_timeout_seconds=5.0, death_grace_seconds=0.2,
                    wake_seconds=0.02, teardown_grace_seconds=0.5)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestInline:
    def test_settles_every_slot_exactly_once(self):
        results = {}
        supervisor = Supervisor(retry=_policy(), record=_recorder(results))
        supervisor.run_inline([
            (lambda specs, *a, **k: ([_ok(s) for s in specs],
                                     [0.0] * len(specs),
                                     [None] * len(specs)),
             tuple(SPECS), tuple(range(len(SPECS)))),
        ])
        assert sorted(results) == list(range(len(SPECS)))
        assert all(o.verdict == "ok" for o in results.values())

    def test_transient_failure_is_retried(self):
        calls = []

        def flaky(specs, *args, attempt=1, **kwargs):
            calls.append(attempt)
            if attempt == 1:
                raise RuntimeError("transient")
            return [_ok(s) for s in specs], [0.0] * len(specs), [None] * len(specs)

        results = {}
        supervisor = Supervisor(retry=_policy(), record=_recorder(results))
        supervisor.run_inline([(flaky, tuple(SPECS), tuple(range(len(SPECS))))])
        assert calls == [1, 2]
        assert supervisor.stats.task_retries == 1
        assert len(results) == len(SPECS)

    def test_persistent_chunk_failure_bisects_to_the_guilty_spec(self):
        guilty = SPECS[2]

        def poisoned(specs, *args, **kwargs):
            if guilty in specs:
                raise RuntimeError("poison")
            return [_ok(s) for s in specs], [0.0] * len(specs), [None] * len(specs)

        results = {}
        supervisor = Supervisor(retry=_policy(max_attempts=2),
                                record=_recorder(results))
        supervisor.run_inline([(poisoned, tuple(SPECS), tuple(range(len(SPECS))))])

        assert supervisor.stats.quarantined == 1
        assert supervisor.stats.bisections >= 1
        assert len(results) == len(SPECS)  # nothing lost, nothing doubled
        bad = results[2]
        assert bad.verdict == "error"
        assert bad.error.startswith("QuarantineError")
        assert all(results[i].verdict == "ok"
                   for i in range(len(SPECS)) if i != 2)

    def test_single_spec_task_quarantines_after_max_attempts(self):
        attempts = []

        def always_fails(specs, *args, attempt=1, **kwargs):
            attempts.append(attempt)
            raise RuntimeError("never works")

        results = {}
        supervisor = Supervisor(retry=_policy(max_attempts=3),
                                record=_recorder(results))
        supervisor.run_inline([(always_fails, (SPECS[0],), (0,))])
        assert attempts == [1, 2, 3]
        assert supervisor.stats.task_retries == 2
        assert supervisor.stats.quarantined == 1
        assert results[0].verdict == "error"
        assert "never works" in results[0].error

    def test_quarantined_slot_settles_with_an_empty_payload(self):
        # No task ever returned for the slot, so no payload exists.
        events = []

        def always_fails(specs, *args, **kwargs):
            raise RuntimeError("boom")

        supervisor = Supervisor(retry=_policy(max_attempts=1),
                                record=_recorder({}, events))
        supervisor.run_inline([(always_fails, (SPECS[0],), (0,))])
        assert events == [None]

    def test_repeated_events_are_dropped_with_their_slot(self):
        events = []
        supervisor = Supervisor(retry=_policy(), record=_recorder({}, events))
        supervisor._settle([0, 1], [_ok(SPECS[0]), _ok(SPECS[1])], [0.0, 0.0],
                           ["first-0", "first-1"])
        # A retried or late duplicate task: slot 0 again, plus slot 2.
        supervisor._settle([0, 2], [_ok(SPECS[0]), _ok(SPECS[2])], [0.0, 0.0],
                           ["late-0", "first-2"])
        assert events == ["first-0", "first-1", "first-2"]

    def test_settled_slots_are_never_overwritten(self):
        results = {}
        supervisor = Supervisor(retry=_policy(), record=_recorder(results))
        first = _ok(SPECS[0])
        supervisor._settle([0], [first], [0.0])
        late = ScenarioOutcome.from_error(SPECS[0], RuntimeError("late"))
        supervisor._settle([0], [late], [0.0])  # the recorder asserts
        assert results[0] is first

    def test_empty_tasks_are_skipped(self):
        supervisor = Supervisor(retry=_policy(), record=_recorder({}))
        supervisor.run_inline([(lambda *a, **k: ([], [], []), (), ())])


def _where(specs, telemetry=None, *, attempt=1, faults=None, in_worker=False):
    """A scripted task whose outcome for each slot is its ``in_worker``.

    Module-level, so a pool can ship it by reference.
    """
    return [in_worker] * len(specs), [0.0] * len(specs), [None] * len(specs)


class TestPoolOwnership:
    def test_only_pool_tasks_are_told_they_run_in_a_worker(self):
        tasks = [(_where, tuple(SPECS[i:i + 2]), tuple(range(i, i + 2)))
                 for i in range(0, len(SPECS), 2)]
        pooled, inline = {}, {}
        supervisor = Supervisor(retry=_policy(), record=_recorder(pooled))
        assert supervisor.run_pool(tasks, 2) == 2
        assert pooled == {index: True for index in range(len(SPECS))}
        assert supervisor.dispatch.tasks_shipped == len(tasks)
        Supervisor(retry=_policy(), record=_recorder(inline)).run_inline(tasks)
        assert inline == {index: False for index in range(len(SPECS))}

    def test_a_host_that_cannot_fork_runs_the_campaign_inline(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise OSError("fork forbidden")

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", no_fork)
        result = CampaignRunner(backend="process", workers=2).run(SPECS)
        assert result == CampaignRunner().run(SPECS)
        assert result.workers == 1
        assert not result.dispatch_stats.any()


class _Messages(logging.Handler):
    """Collects the messages logged to the logger it is attached to."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class TestTeardown:
    def test_a_worker_death_does_not_wait_out_the_teardown_grace(self):
        """A dead worker's task never leaves the pool's result cache, so
        a join after ``close()`` cannot return: teardown must go straight
        to ``terminate()`` rather than wait out the grace."""
        specs = theorem8_specs([4], seeds=(1,))
        grace = 3.0
        logger = logging.getLogger("repro.faults.supervisor")
        handler = _Messages()
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.WARNING)
        try:
            result = CampaignRunner(
                backend="process", workers=2, chunk_size=4,
                retry=_policy(teardown_grace_seconds=grace),
                faults=FaultPlan(seed=31, crash_rate=0.1),
            ).run(specs)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert result.fault_stats.worker_deaths >= 1
        assert result.elapsed_seconds < grace / 2
        assert result == CampaignRunner().run(specs)
        assert not [message for message in handler.messages
                    if "after close" in message]


class TestQuarantineError:
    def test_is_a_runtime_error_with_context(self):
        assert issubclass(QuarantineError, RuntimeError)
        outcome = ScenarioOutcome.from_error(
            SPECS[0], QuarantineError("quarantined after 3 attempt(s)"))
        assert outcome.error.startswith("QuarantineError")
        with pytest.raises(QuarantineError):
            raise QuarantineError("x")
