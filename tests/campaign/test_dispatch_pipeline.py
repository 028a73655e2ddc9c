"""The one dispatch pipeline: task building and per-slot event delivery.

Every backend builds ``(fn, specs, positions)`` tasks — one spec per task
for serial and single-worker runs, an even split otherwise — and settles
them through the supervisor.  These tests pin the split (every position
exactly once, in order, a pure function of its inputs), the lazy
``should_skip`` semantics it gives adaptive budgets, and the contract the
settle path gives progress sinks: exactly one event per position, whatever
retries, quarantines or chunk sizes happen on the way.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, ScenarioEvent, theorem8_specs
from repro.campaign.runner import _run_batch, _tasks
from repro.faults import FaultPlan, RetryPolicy

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
HAMMER_SPECS = theorem8_specs([4, 5], seeds=(1,), max_steps=4_000)

FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, task_timeout_seconds=5.0,
    death_grace_seconds=0.5, wake_seconds=0.05, teardown_grace_seconds=1.0,
)

BACKENDS = pytest.mark.parametrize("kwargs", [
    {"backend": "serial"},
    {"backend": "chunked", "chunk_size": 8},
    {"backend": "process", "workers": 2, "chunk_size": 4},
], ids=["serial", "chunked", "process"])


def _positions(tasks):
    return [list(positions) for _, _, positions in tasks]


class TestTaskSplit:
    @pytest.mark.parametrize("size", [1, 3, 1000])
    def test_every_position_exactly_once_in_order(self, size):
        tasks = list(_tasks(SPECS, size, None))
        flat = [p for positions in _positions(tasks) for p in positions]
        assert flat == list(range(len(SPECS)))
        assert all(len(chunk) <= size for _, chunk, _ in tasks)
        # Only the last task may be short.
        assert all(len(chunk) == size for _, chunk, _ in tasks[:-1])
        for _, chunk, positions in tasks:
            assert list(chunk) == [SPECS[p] for p in positions]

    def test_split_is_a_pure_function_of_inputs(self):
        first = list(_tasks(HAMMER_SPECS, 7, None))
        for _ in range(3):
            assert list(_tasks(HAMMER_SPECS, 7, None)) == first

    def test_skipped_specs_keep_positions_and_leave_no_empty_task(self):
        # Skip the whole second chunk and one spec of the third.
        skipped = {SPECS[p] for p in (4, 5, 6, 7, 9)}
        tasks = list(_tasks(SPECS[:12], 4, lambda spec: spec in skipped))
        assert _positions(tasks) == [[0, 1, 2, 3], [8, 10, 11]]

    def test_should_skip_is_consulted_only_when_a_task_is_pulled(self):
        consulted = []
        tasks = _tasks(SPECS[:6], 2, lambda spec: consulted.append(spec))
        assert consulted == []
        next(tasks)
        assert consulted == list(SPECS[:2])
        list(tasks)
        assert consulted == list(SPECS[:6])

    def test_default_chunk_size_is_an_even_split(self):
        runner = CampaignRunner(backend="process", workers=2)
        # Roughly four tasks per worker, rounded up so none is left over.
        assert runner._effective_chunk_size(100, 2) == 13
        assert runner._effective_chunk_size(3, 2) == 1
        assert runner._effective_chunk_size(0, 2) == 1
        explicit = CampaignRunner(backend="process", workers=2, chunk_size=5)
        assert explicit._effective_chunk_size(100, 2) == 5

    @pytest.mark.parametrize("kwargs", [
        {"backend": "serial"},
        {"backend": "process", "workers": 1},
    ], ids=["serial", "single-worker"])
    def test_one_spec_per_task_without_a_pool(self, kwargs):
        # One spec per task: each should_skip call comes right after
        # the previous scenario settled.
        calls = []
        CampaignRunner(**kwargs).run(
            SPECS[:5],
            should_skip=lambda spec: calls.append(("skip", spec)),
            on_outcome=lambda o, s: calls.append(("outcome", o.spec)),
        )
        assert calls == [(what, spec) for spec in SPECS[:5]
                         for what in ("skip", "outcome")]

    def test_chunked_runs_consult_a_whole_chunk_before_running_it(self):
        calls = []
        CampaignRunner(backend="chunked", chunk_size=3).run(
            SPECS[:5],
            should_skip=lambda spec: calls.append("skip"),
            on_outcome=lambda o, s: calls.append("outcome"),
        )
        assert calls == ["skip"] * 3 + ["outcome"] * 3 + ["skip"] * 2 + ["outcome"] * 2


class TestEventsPerPosition:
    @BACKENDS
    def test_retried_tasks_yield_one_event_per_position(self, kwargs):
        plan = FaultPlan(seed=11, raise_rate=0.25)
        events = []
        result = CampaignRunner(faults=plan, retry=FAST_RETRY, **kwargs).run(
            SPECS, progress=events.append)
        assert result.fault_stats.task_retries > 0
        assert sorted(e.label for e in events) == sorted(s.label() for s in SPECS)
        by_label = {o.spec.label(): o.verdict for o in result.outcomes}
        assert all(e.verdict == by_label[e.label] for e in events)

    @BACKENDS
    def test_quarantined_slot_yields_one_error_event(self, kwargs):
        poisoned = SPECS[5]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        events = []
        result = CampaignRunner(faults=plan, retry=FAST_RETRY, **kwargs).run(
            SPECS, progress=events.append)
        assert result.fault_stats.quarantined == 1
        assert sorted(e.label for e in events) == sorted(s.label() for s in SPECS)
        (bad,) = [e for e in events if e.label == poisoned.label()]
        assert bad.verdict == "error"
        assert bad.seconds == 0.0
        assert bad.fingerprint

    def test_no_event_is_built_without_progress(self):
        outcomes, timings, events = _run_batch(SPECS[:3], events=False)
        assert len(outcomes) == len(timings) == 3
        assert events == [None, None, None]
        outcomes, timings, events = _run_batch(SPECS[:3], events=True)
        assert all(isinstance(e, ScenarioEvent) for e in events)
        assert [e.label for e in events] == [s.label() for s in SPECS[:3]]
        assert [e.verdict for e in events] == [o.verdict for o in outcomes]
        assert [e.seconds for e in events] == timings


class TestDeterminismHammer:
    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner(backend="serial").run(HAMMER_SPECS)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_all_backends_agree_across_splits(self, reference, workers):
        # The split changes what each task holds; the result must not.
        for runner in (
            CampaignRunner(backend="chunked", chunk_size=1),
            CampaignRunner(backend="chunked", chunk_size=7),
            CampaignRunner(backend="chunked"),
            CampaignRunner(backend="process", workers=workers),
            CampaignRunner(backend="process", workers=workers, chunk_size=11),
        ):
            result = runner.run(HAMMER_SPECS)
            assert result == reference, (
                f"{runner.backend} chunk_size={runner.chunk_size} diverged")
            assert [o.spec for o in result.outcomes] == list(HAMMER_SPECS)
