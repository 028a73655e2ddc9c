"""The one dispatch pipeline: task building and per-slot event delivery.

Every backend builds ``(fn, specs, positions)`` tasks — one spec per task
for serial and single-worker runs, an even split otherwise — and settles
them through the supervisor.  These tests pin the split (every position
exactly once, in order, a pure function of its inputs), the lazy
``should_skip`` semantics it gives adaptive budgets, the plain data that
crosses the pool pipe in both directions, and the contract the settle
path gives progress sinks: exactly one event per position, built in the
calling process, whatever retries, quarantines or chunk sizes happen on
the way.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignRunner,
    ScenarioEvent,
    ScenarioSpec,
    theorem8_specs,
)
from repro.campaign.runner import _run_batch, _tasks
from repro.faults import FaultPlan, RetryPolicy
from repro.provenance.usage import ResourceUsage
from repro.store.fingerprint import fingerprint_spec
from repro.telemetry.session import WorkerTelemetry

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
HAMMER_SPECS = theorem8_specs([4, 5], seeds=(1,), max_steps=4_000)

FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, task_timeout_seconds=5.0,
    teardown_grace_seconds=1.0,
)

BACKENDS = pytest.mark.parametrize("kwargs", [
    {"backend": "serial"},
    {"backend": "process", "workers": 2, "chunk_size": 1},
    {"backend": "process", "workers": 2, "chunk_size": 4},
], ids=["serial", "process-1", "process"])


def _positions(tasks):
    return [list(positions) for _, _, positions in tasks]


def mixed_specs():
    """A deliberately heterogeneous spec set: every recording name,
    crash schedules, params, several kinds."""
    specs = list(theorem8_specs([4, 5], seeds=(1, 2), max_steps=4_000))[:12]
    specs += [
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="full"),
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="decisions-only"),
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="verdict-only"),
        ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2,
                     scheduler="random", seed=77,
                     crashes=((1, 0), (3, 5)), max_steps=2_000,
                     params=(("alpha", 3), ("beta", (1, 2))),
                     recording="verdict-only"),
        ScenarioSpec(kind="corollary13-middle", n=6, f=3, k=2, seed=5,
                     recording="verdict-only"),
    ]
    return tuple(specs)


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
            on_settle=lambda e: calls.append(("outcome", e.spec)),
        )
        assert calls == [(what, spec) for spec in SPECS[:5]
                         for what in ("skip", "outcome")]


class TestPlainPipe:
    """Tasks ship plain pickled spec tuples; results come back as plain
    outcomes, timings and ``(pid, spans)`` pairs."""

    def test_pickled_specs_equal_the_originals(self):
        specs = mixed_specs()
        assert pickle.loads(pickle.dumps(specs, pickle.HIGHEST_PROTOCOL)) == specs

    def test_pickled_specs_carry_no_memo_keys(self):
        specs = mixed_specs()
        for spec in specs:  # fill the per-instance memos first
            spec.derived_seed()
            fingerprint_spec(spec)
        for clone in pickle.loads(pickle.dumps(specs, pickle.HIGHEST_PROTOCOL)):
            assert not [key for key in vars(clone) if key.startswith("_")]

    def test_pickled_specs_share_fingerprint_and_seed(self):
        specs = mixed_specs()
        clones = pickle.loads(pickle.dumps(specs, pickle.HIGHEST_PROTOCOL))
        for original, clone in zip(specs, clones):
            assert clone.derived_seed() == original.derived_seed()
            assert fingerprint_spec(clone) == fingerprint_spec(original)

    def test_run_batch_returns_no_event_and_this_pid(self):
        outcomes, timings, shipped = _run_batch(SPECS[:3])
        assert len(outcomes) == len(timings) == len(shipped) == 3
        assert shipped == [(os.getpid(), ())] * 3
        assert not any(isinstance(item, ScenarioEvent)
                       for item in (*outcomes, *shipped))

    def test_process_campaign_counts_what_it_ships(self):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        serial = CampaignRunner(backend="serial").run(specs)
        proc = CampaignRunner(backend="process", workers=2, chunk_size=5).run(specs)
        assert proc == serial
        dispatch = proc.dispatch_stats
        assert dispatch.tasks_shipped == -(-len(specs) // 5)
        assert dispatch.scenarios_shipped == len(specs)
        assert dispatch.wire_bytes > 0
        # The in-process reference run ships nothing.
        assert not serial.dispatch_stats.any()
        assert serial.dispatch_stats.as_dict() == {
            "tasks_shipped": 0, "scenarios_shipped": 0, "wire_bytes": 0,
            "encode_seconds": 0.0, "queue_seconds": 0.0}

    def test_dispatch_stats_survive_json_round_trip(self):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        proc = CampaignRunner(backend="process", workers=2).run(specs)
        restored = CampaignResult.from_json(proc.to_json())
        assert restored == proc
        assert restored.dispatch_stats.as_dict() == proc.dispatch_stats.as_dict()


class TestEventsPerPosition:
    @BACKENDS
    def test_retried_tasks_yield_one_event_per_position(self, kwargs):
        plan = FaultPlan(seed=11, raise_rate=0.25)
        events = []
        result = CampaignRunner(faults=plan, retry=FAST_RETRY, **kwargs).run(
            SPECS, on_settle=events.append)
        assert result.fault_stats.task_retries > 0
        assert sorted(e.label for e in events) == sorted(s.label() for s in SPECS)
        spec_by_label = {s.label(): s for s in SPECS}
        by_label = {o.spec.label(): o for o in result.outcomes}
        for event in events:
            outcome = by_label[event.label]
            assert event.verdict == outcome.verdict
            assert event.fingerprint == fingerprint_spec(spec_by_label[event.label])
            assert event.usage == ResourceUsage.of_outcome(outcome)

    @BACKENDS
    def test_events_are_built_by_the_caller_only_for_a_progress_sink(
            self, kwargs, monkeypatch):
        built = []
        of = ScenarioEvent.of.__func__
        monkeypatch.setattr(ScenarioEvent, "of", classmethod(
            lambda cls, spec, *args, **kw:
                built.append(spec) or of(cls, spec, *args, **kw)))
        CampaignRunner(**kwargs).run(SPECS)
        assert built == []
        events = []
        result = CampaignRunner(**kwargs).run(SPECS, on_settle=events.append)
        # Built in this process, from the caller's own spec instances.
        assert sorted(map(id, built)) == sorted(map(id, SPECS))
        seconds = {o.spec.label(): s
                   for o, s in zip(result.outcomes, result.scenario_seconds)}
        assert all(e.seconds == seconds[e.label] for e in events)
        in_pool = kwargs["backend"] == "process"
        assert all((e.worker_pid != os.getpid()) == in_pool for e in events)

    @BACKENDS
    def test_quarantined_slot_yields_one_error_event(self, kwargs):
        poisoned = SPECS[5]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        events = []
        result = CampaignRunner(faults=plan, retry=FAST_RETRY, **kwargs).run(
            SPECS, on_settle=events.append)
        assert result.fault_stats.quarantined == 1
        assert sorted(e.label for e in events) == sorted(s.label() for s in SPECS)
        (bad,) = [e for e in events if e.label == poisoned.label()]
        assert bad.verdict == "error"
        assert bad.seconds == 0.0
        assert bad.fingerprint

    @BACKENDS
    def test_quarantined_event_carries_this_pid_and_no_spans(self, kwargs):
        # The slot settles with no payload, so the caller's recorder fills
        # in its own pid; every executed scenario is sampled and has spans.
        poisoned = SPECS[5]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        events = []
        result = CampaignRunner(faults=plan, retry=FAST_RETRY, **kwargs).run(
            SPECS, on_settle=events.append,
            telemetry=WorkerTelemetry(campaign="quarantine"))
        (bad,) = [e for e in events if e.label == poisoned.label()]
        (outcome,) = [o for o in result.outcomes if o.spec == poisoned]
        assert bad.worker_pid == os.getpid()
        assert bad.spans == ()
        assert bad.usage == ResourceUsage.of_outcome(outcome, seconds=0.0)
        assert all(e.spans for e in events if e is not bad)


class TestDeterminismHammer:
    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner(backend="serial").run(HAMMER_SPECS)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_all_backends_agree_across_splits(self, reference, workers):
        # The split changes what each task holds; the result must not.
        for runner in (
            CampaignRunner(backend="process", workers=workers),
            CampaignRunner(backend="process", workers=workers, chunk_size=11),
        ):
            result = runner.run(HAMMER_SPECS)
            assert result == reference, (
                f"{runner.backend} chunk_size={runner.chunk_size} diverged")
            assert [o.spec for o in result.outcomes] == list(HAMMER_SPECS)
