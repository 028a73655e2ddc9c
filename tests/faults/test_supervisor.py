"""Supervisor unit contracts: settle-once, retry, bisect, quarantine,
and the workers it owns.

Most of these exercise the supervision state machine in-process with
scripted task functions — no pool, no fault plan — so each transition
(retry with backoff accounting, bisection re-attribution, quarantine as
an ``"error"`` outcome) is pinned in isolation from the chaos machinery.
``TestPoolOwnership`` pins what a task learns of where it runs, the
campaign that a host unable to fork still completes and pipe traffic
larger than a pipe's buffer.  ``TestAttribution`` pins that a death
retries exactly the task its worker ran, and ``TestTeardown`` that
every exit path stops every worker.
"""

from __future__ import annotations

import logging
import multiprocessing
import signal
import threading

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.spec import ScenarioOutcome
from repro.faults import FaultPlan, RetryPolicy, Supervisor
from repro.faults.supervisor import QuarantineError

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)[:6]

#: A campaign of eleven 4-spec chunks, five of which crash their worker
#: on the first attempt under ``CRASH_PLAN``.
CRASH_SPECS = theorem8_specs([4], seeds=(1,))
CRASH_PLAN = FaultPlan(seed=31, crash_rate=0.1)


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
                    task_timeout_seconds=5.0, teardown_grace_seconds=0.5)
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
    """A scripted task whose outcome for each slot is its ``in_worker``
    and whose payload is the slot's spec.

    Module-level, so a pool can ship it by reference.
    """
    return [in_worker] * len(specs), [0.0] * len(specs), list(specs)


def _unpicklable(specs, telemetry=None, *, attempt=1, faults=None,
                 in_worker=False):
    """A scripted task whose reply holds a lock, which cannot be pickled."""
    return ([in_worker] * len(specs), [0.0] * len(specs),
            [threading.Lock()] * len(specs))


def _time_out(signum, frame):
    raise TimeoutError("the campaign did not finish in time")


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

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Process", no_fork)
        result = CampaignRunner(backend="process", workers=2).run(SPECS)
        assert result == CampaignRunner().run(SPECS)
        assert result.workers == 1
        assert not result.dispatch_stats.any()

    def test_tasks_and_replies_larger_than_a_pipe_buffer_do_not_deadlock(self):
        # A worker is sent its queued task while it runs another.  If it
        # finishes first and blocks sending a reply that overflows the
        # pipe, the parent must not block sending it the queued task.
        blob = b"x" * 1_000_000
        tasks = [(_where, (blob,), (index,)) for index in range(4)]
        results, events = {}, []
        previous = signal.signal(signal.SIGALRM, _time_out)
        signal.alarm(20)
        try:
            Supervisor(retry=_policy(),
                       record=_recorder(results, events)).run_pool(tasks, 1)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert results == {index: True for index in range(4)}
        assert events == [blob] * 4

    def test_a_reply_that_cannot_be_pickled_fails_its_task_not_its_worker(self):
        results = {}
        supervisor = Supervisor(retry=_policy(max_attempts=2),
                                record=_recorder(results))
        supervisor.run_pool([(_unpicklable, (SPECS[0],), (0,))], 1)
        assert supervisor.stats.worker_deaths == 0
        assert supervisor.stats.task_retries == 1
        assert supervisor.stats.quarantined == 1
        assert "task reply cannot be pickled" in results[0].error


def _chunks_holding(plan, specs, size, kind):
    """How many ``size``-spec chunks of ``specs`` hold a spec that
    ``plan`` gives a ``kind`` fault on its first attempt."""
    return sum(
        any(getattr(plan.decide(spec), "kind", None) == kind
            for spec in specs[start:start + size])
        for start in range(0, len(specs), size))


def _quarantine_errors(result) -> int:
    return sum(outcome.verdict == "error"
               and outcome.error.startswith("QuarantineError")
               for outcome in result.outcomes)


class TestAttribution:
    def test_each_death_retries_exactly_the_task_its_worker_ran(self):
        """A worker's death names the task it held: that task alone is
        retried, so each chunk holding a crash costs one death and one
        retry, and no live task waits out a deadline or runs twice."""
        crashing = _chunks_holding(CRASH_PLAN, CRASH_SPECS, 4, "crash")
        assert crashing == 5
        result = CampaignRunner(
            backend="process", workers=2, chunk_size=4,
            retry=_policy(), faults=CRASH_PLAN,
        ).run(CRASH_SPECS)
        stats = result.fault_stats
        assert stats.worker_deaths == stats.task_retries == crashing
        assert stats.task_timeouts == 0
        assert stats.quarantined == _quarantine_errors(result) == 0
        assert result.elapsed_seconds < 1.0
        assert result == CampaignRunner().run(CRASH_SPECS)


def _record_forks(monkeypatch, limit=None):
    """The pids of the workers a campaign forks, in start order; a start
    beyond ``limit`` raises ``OSError`` as a host out of processes would."""
    context = multiprocessing.get_context("fork")
    started = []

    class Recorded(context.Process):
        def start(self):
            if limit is not None and len(started) >= limit:
                raise OSError("fork refused")
            super().start()
            started.append(self.pid)

    monkeypatch.setattr(context, "Process", Recorded)
    return started


def _running(pids):
    return [child.pid for child in multiprocessing.active_children()
            if child.pid in pids]


class _Messages(logging.Handler):
    """Collects the messages logged to the logger it is attached to."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


class TestTeardown:
    def test_a_worker_death_does_not_wait_out_the_teardown_grace(self):
        """Workers left idle at the end of a campaign that survived worker
        deaths exit on their stop message; no teardown waits out the
        grace."""
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
                faults=CRASH_PLAN,
            ).run(CRASH_SPECS)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert result.fault_stats.worker_deaths >= 1
        assert result.elapsed_seconds < grace / 2
        assert result == CampaignRunner().run(CRASH_SPECS)
        assert not [message for message in handler.messages
                    if "after its stop message" in message]

    def test_a_finished_campaign_stops_every_worker(self, monkeypatch):
        started = _record_forks(monkeypatch)
        result = CampaignRunner(
            backend="process", workers=2, chunk_size=4, retry=_policy(),
        ).run(CRASH_SPECS)
        assert len(started) == 2
        assert not _running(started)
        assert result == CampaignRunner().run(CRASH_SPECS)

    def test_a_campaign_whose_settle_hook_raises_stops_every_worker(
            self, monkeypatch):
        started = _record_forks(monkeypatch)

        def sink(event):
            raise RuntimeError("sink failed")

        with pytest.raises(RuntimeError, match="sink failed"):
            CampaignRunner(
                backend="process", workers=2, chunk_size=4, retry=_policy(),
            ).run(CRASH_SPECS, on_settle=sink)
        assert len(started) == 2
        assert not _running(started)

    def test_a_failed_replacement_fork_finishes_in_process(self, monkeypatch):
        # Only the first two workers start: the first death's replacement
        # cannot be forked, so the rest of the campaign runs in-process.
        started = _record_forks(monkeypatch, limit=2)
        result = CampaignRunner(
            backend="process", workers=2, chunk_size=4,
            retry=_policy(), faults=CRASH_PLAN,
        ).run(CRASH_SPECS)
        assert len(started) == 2
        assert result.fault_stats.pool_failures == 1
        assert result.fault_stats.worker_deaths >= 1
        assert not _running(started)
        assert result == CampaignRunner().run(CRASH_SPECS)


class TestQuarantineError:
    def test_is_a_runtime_error_with_context(self):
        assert issubclass(QuarantineError, RuntimeError)
        outcome = ScenarioOutcome.from_error(
            SPECS[0], QuarantineError("quarantined after 3 attempt(s)"))
        assert outcome.error.startswith("QuarantineError")
        with pytest.raises(QuarantineError):
            raise QuarantineError("x")
