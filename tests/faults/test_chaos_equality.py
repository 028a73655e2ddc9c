"""The headline invariant: injected chaos never changes campaign results.

A quarantine-free :class:`FaultPlan` perturbs *scheduling* — workers
crash, tasks raise and are retried, chunks time out and are re-queued —
but the :class:`CampaignResult` must stay **equal to the fault-free
run's, bit-identical, on every backend**.  Quarantining plans change
exactly the quarantined slots and nothing else.

Every run here is also implicitly a bounded-wall-time test: the
module-level plans use tight retry policies, and a supervisor that
parked in an unbounded wait would hang the suite rather than pass it;
the crash and hang tests assert explicit wall-clock ceilings too.
"""

from __future__ import annotations

import time

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.faults import FaultPlan, RetryPolicy

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
BASELINE = CampaignRunner().run(SPECS)

FAST_RETRY = RetryPolicy(
    max_attempts=3,
    backoff_seconds=0.01,
    task_timeout_seconds=5.0,
    teardown_grace_seconds=1.0,
)

# Transient raise + delay chaos: recoverable by one retry on any backend.
RAISE_PLAN = FaultPlan(seed=11, raise_rate=0.25, delay_rate=0.25,
                       delay_seconds=0.001)


def _assert_equal_to_baseline(result):
    assert result == BASELINE
    assert [o.spec for o in result.outcomes] == [o.spec for o in BASELINE.outcomes]
    assert result.verdict_counts() == BASELINE.verdict_counts()


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


class TestTransientChaosEquality:
    @pytest.mark.parametrize("backend,workers,chunk", [
        ("serial", 1, None),
        pytest.param("process", 2, 1, id="process-1"),
        ("process", 2, 4),
        # Two tasks, each holding whole groups of shared round-robin runs
        # (f=1 at positions 0-19, f=2 at 24-35): retries of tasks that
        # memoise executions.
        ("process", 2, 24),
    ])
    def test_raise_and_delay_chaos_is_invisible_in_results(
            self, backend, workers, chunk):
        kwargs = {"backend": backend, "workers": workers,
                  "faults": RAISE_PLAN, "retry": FAST_RETRY}
        if chunk is not None:
            kwargs["chunk_size"] = chunk
        result = CampaignRunner(**kwargs).run(SPECS)
        _assert_equal_to_baseline(result)
        assert result.fault_stats.task_retries >= 1
        assert result.fault_stats.quarantined == 0

    def test_fault_stats_do_not_perturb_result_equality(self):
        # Chaos is infrastructure: two runs with different fault plans
        # (and so different stats) still compare equal on outcomes.
        noisy = CampaignRunner(faults=RAISE_PLAN, retry=FAST_RETRY).run(SPECS)
        assert noisy.fault_stats.any()
        assert not BASELINE.fault_stats.any()
        assert noisy == BASELINE

    def test_result_json_roundtrips_fault_stats(self):
        result = CampaignRunner(faults=RAISE_PLAN, retry=FAST_RETRY).run(SPECS)
        clone = type(result).from_json(result.to_json())
        assert clone == result
        assert clone.fault_stats == result.fault_stats


class TestWorkerDeathEquality:
    def test_sigkilled_workers_are_survived_bit_identically(self):
        # ~15% of scenarios SIGKILL their worker on first attempt; the
        # supervisor must detect the deaths, re-queue the lost chunks and
        # still produce the fault-free result — within a bounded wall
        # time (an unbounded wait would blow straight past it).
        plan = FaultPlan(seed=23, crash_rate=0.15)
        started = time.monotonic()
        result = CampaignRunner(
            backend="process", workers=2, chunk_size=4,
            faults=plan, retry=FAST_RETRY,
        ).run(SPECS)
        elapsed = time.monotonic() - started
        _assert_equal_to_baseline(result)
        assert result.fault_stats.task_retries >= 1
        assert result.fault_stats.quarantined == 0
        assert elapsed < 90.0

    def test_hung_workers_hit_the_deadline_and_work_is_requeued(self):
        # Only a hung task overruns its deadline, once: its retry is past
        # the plan's fault gate.  No live task times out, so nothing is
        # bisected, and a hung worker costs one deadline, not the hang.
        plan = FaultPlan(seed=5, hang_rate=0.1, hang_seconds=3.0)
        retry = RetryPolicy(
            max_attempts=3, backoff_seconds=0.01,
            task_timeout_seconds=0.75, teardown_grace_seconds=0.5,
        )
        started = time.monotonic()
        result = CampaignRunner(
            backend="process", workers=2, chunk_size=4,
            faults=plan, retry=retry,
        ).run(SPECS)
        elapsed = time.monotonic() - started
        _assert_equal_to_baseline(result)
        stats = result.fault_stats
        assert stats.task_timeouts == _chunks_holding(plan, SPECS, 4, "hang") == 4
        assert stats.bisections == 0
        assert stats.quarantined == _quarantine_errors(result)
        assert elapsed < plan.hang_seconds

    def test_crash_plans_are_noops_on_the_serial_backend(self):
        # No worker to kill: a serial run under a crash-only plan is the
        # baseline, fault stats and all.
        plan = FaultPlan(seed=23, crash_rate=0.5)
        result = CampaignRunner(faults=plan, retry=FAST_RETRY).run(SPECS)
        _assert_equal_to_baseline(result)
        assert not result.fault_stats.any()


class TestQuarantine:
    def test_poisoned_spec_is_quarantined_everything_else_is_baseline(self):
        poisoned = SPECS[7]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        for kwargs in (
            {"backend": "serial"},
            {"backend": "process", "workers": 2, "chunk_size": 4},
        ):
            result = CampaignRunner(faults=plan, retry=FAST_RETRY,
                                    **kwargs).run(SPECS)
            assert result != BASELINE
            assert result.fault_stats.quarantined == 1
            assert _quarantine_errors(result) == 1
            by_spec = {o.spec: o for o in result.outcomes}
            bad = by_spec[poisoned]
            assert bad.verdict == "error"
            assert bad.error.startswith("QuarantineError")
            for baseline_outcome in BASELINE.outcomes:
                if baseline_outcome.spec != poisoned:
                    assert by_spec[baseline_outcome.spec] == baseline_outcome

    def test_quarantine_drills_through_chunks_via_bisection(self):
        poisoned = SPECS[3]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        result = CampaignRunner(backend="process", workers=2, chunk_size=16,
                                faults=plan, retry=FAST_RETRY).run(SPECS)
        assert result.fault_stats.quarantined == _quarantine_errors(result) == 1
        assert result.fault_stats.bisections >= 1
        errors = [o for o in result.outcomes if o.verdict == "error"
                  and o.error.startswith("QuarantineError")]
        assert [o.spec for o in errors] == [poisoned]
