"""Run once, judge many: shared executions inside one campaign task.

A :class:`~repro.campaign.scenarios.SharedExecutionKind` splits a kind
into ``execute(spec)`` and ``judge(spec, run)`` under an execution key.
``_run_batch`` executes each distinct key of a task once and judges
every spec against that run; :func:`run_scenario` never shares and is
the reference.  The contract:

* a hypothesis property over random task lists (several ``k`` per
  ``(n, f, crashes)``, both schedulers, every recording policy,
  truncating budgets, inadmissible crash schedules, other kinds)
  asserts the task's outcomes equal ``run_scenario``'s, field for
  field, spec included;
* for every kind with a key, specs with equal keys execute to equal
  runs, so a kind whose execution reads what its key leaves out fails
  by name;
* each task executes each shared run once, and its memo dies with it:
  a second task, or the retry of a failed one, executes again.

CI reruns the property with many more examples under the
``repro-thorough`` profile (``--hypothesis-profile=repro-thorough``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import fields

import pytest
from hypothesis import event, given, strategies as st

from repro.campaign import (
    CampaignRunner,
    ScenarioOutcome,
    ScenarioSpec,
    SharedExecutionKind,
    corollary13_specs,
    get_kind,
    registered_kinds,
    run_scenario,
    scenario_kind,
    theorem8_impossible_grid,
    theorem8_specs,
)
from repro.campaign.runner import _run_batch
from repro.campaign.scenarios import _KINDS
from repro.campaign.spec import normalize_crashes, normalize_params
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, InjectedFaultError
from repro.simulation.recording import RECORDING_POLICY_NAMES
from repro.telemetry.spans import Tracer, activated

#: Specs that exercise the execution key of each kind that has one.  A
#: kind registered with a key must add its specs here.
KEYED_KIND_SPECS = {
    "theorem8-solvable": lambda: tuple(
        spec
        for recording in ("full", "verdict-only")
        for max_steps in (4_000, 40)  # completes / truncates
        for spec in theorem8_specs([4, 5, 6], seeds=(1,), max_steps=max_steps,
                                   recording=recording)
        if spec.kind == "theorem8-solvable"),
}

#: Kinds without a key, drawn into task lists beside the keyed specs.
OTHER_KIND_SPECS = tuple(
    spec
    for recording in RECORDING_POLICY_NAMES
    for spec in (corollary13_specs([4, 5], max_steps=300, middle_max_steps=300,
                                   recording=recording)
                 + theorem8_impossible_grid([4, 5], max_steps=300,
                                            recording=recording).compile())
)


def outcome_fields(outcome: ScenarioOutcome):
    """Every field of an outcome, by name, so a mismatch names the field."""
    return {field.name: getattr(outcome, field.name)
            for field in fields(ScenarioOutcome)}


def execution_key(spec: ScenarioSpec):
    kind = get_kind(spec.kind)
    if isinstance(kind, SharedExecutionKind):
        return kind.execution_key(spec)
    return None


def expected_executions(specs) -> int:
    """One execution per distinct key of the task, one per keyless spec."""
    keys = [execution_key(spec) for spec in specs]
    return keys.count(None) + len({key for key in keys if key is not None})


def executions(*tasks) -> int:
    """How many ``execute`` spans running the tasks, one after the other,
    opens (each task is a tuple of specs)."""
    tracer = Tracer(trace_id="executions")
    with activated(tracer):
        for specs in tasks:
            _run_batch(specs)
    return sum(1 for span in tracer.drain() if span.name == "execute")


def run_summary(run):
    return (tuple(sorted(run.decisions().items())), run.length,
            run.messages_sent(), run.messages_delivered(), run.completed,
            run.truncated)


@st.composite
def task_lists(draw):
    """A task: 1–2 points, each with variants (crashes, scheduler, seed)
    judged at several ``k``, shuffled with specs of other kinds."""
    specs = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 6))
        f = draw(st.integers(0, n - 1))
        max_steps = draw(st.integers(1, 400))  # small budgets truncate
        recording = draw(st.sampled_from(RECORDING_POLICY_NAMES))
        for _ in range(draw(st.integers(1, 3))):
            # Admissible initial crashes, or schedules the initial-crash
            # model rejects (late crashes, more than f of them).
            crashes = draw(st.one_of(
                st.sets(st.integers(1, n), max_size=f).map(sorted),
                st.dictionaries(st.integers(1, n), st.integers(0, 20),
                                max_size=n),
            ))
            params = {}
            if draw(st.booleans()):
                params["delivery_bias"] = draw(st.sampled_from((0.2, 0.8, 1.5)))
            variant = {
                "scheduler": draw(st.sampled_from(("round-robin", "random"))),
                "seed": draw(st.integers(0, 2)),
                "crashes": normalize_crashes(crashes, n),
                "params": normalize_params(params),
            }
            # k up to n + 1: judged above n, the run is trivially solved.
            for k in draw(st.lists(st.integers(1, n + 1), min_size=1,
                                   max_size=4)):
                specs.append(ScenarioSpec(
                    kind="theorem8-solvable", n=n, f=f, k=k,
                    max_steps=max_steps, recording=recording, **variant))
    specs += draw(st.lists(st.sampled_from(OTHER_KIND_SPECS), max_size=2))
    return tuple(draw(st.permutations(specs)))


class TestGroupedEqualsReference:
    @given(task_lists())
    def test_task_outcomes_equal_run_scenario(self, specs):
        event("shares an execution" if expected_executions(specs) < len(specs)
              else "shares nothing")
        outcomes, timings, shipped = _run_batch(specs)
        assert len(timings) == len(shipped) == len(specs)
        assert ([outcome_fields(o) for o in outcomes]
                == [outcome_fields(run_scenario(s)) for s in specs])

    def test_a_raising_execution_fails_every_spec_that_shares_it(self):
        # Crashes after time 0 are inadmissible in the initial-crash model.
        specs = tuple(ScenarioSpec(kind="theorem8-solvable", n=5, f=1, k=k,
                                   crashes=((1, 0), (2, 3)))
                      for k in (1, 2, 3))
        assert len({execution_key(spec) for spec in specs}) == 1
        outcomes, _, _ = _run_batch(specs)
        assert [o.verdict for o in outcomes] == ["error"] * 3
        assert outcomes[0].error.startswith("AdmissibilityError")
        assert list(outcomes) == [run_scenario(spec) for spec in specs]


class TestExecutionKeys:
    def test_every_keyed_kind_has_soundness_specs(self):
        keyed = {name for name in registered_kinds()
                 if isinstance(get_kind(name), SharedExecutionKind)}
        assert keyed == set(KEYED_KIND_SPECS)

    @pytest.mark.parametrize("name", sorted(KEYED_KIND_SPECS))
    def test_equal_keys_execute_to_equal_runs(self, name):
        kind = get_kind(name)
        groups = defaultdict(list)
        for spec in KEYED_KIND_SPECS[name]():
            key = kind.execution_key(spec)
            if key is not None:
                groups[key].append(spec)
        shared = [group for group in groups.values() if len(group) > 1]
        assert shared
        for group in shared:
            runs = {run_summary(kind.execute(spec)) for spec in group}
            assert len(runs) == 1, [spec.label() for spec in group]

    def test_theorem8_solvable_shares_only_round_robin_runs(self):
        kind = get_kind("theorem8-solvable")
        round_robin = ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=1)
        random = ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=1,
                              scheduler="random", seed=1)
        assert kind.execution_key(random) is None
        for other in (ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2),
                      ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=3)):
            assert kind.execution_key(other) == kind.execution_key(round_robin)
        for other in (
            ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=1,
                         crashes=((1, 0),)),
            ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=1,
                         max_steps=50),
            ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=1,
                         recording="verdict-only"),
        ):
            assert kind.execution_key(other) != kind.execution_key(round_robin)


class TestOneExecutionPerTask:
    SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)

    def test_a_task_executes_each_shared_run_once(self):
        expected = expected_executions(self.SPECS)
        assert expected < len(self.SPECS)
        assert executions(self.SPECS) == expected

    def test_the_memo_dies_with_its_task(self):
        assert executions(self.SPECS, self.SPECS) == 2 * expected_executions(
            self.SPECS)

    def test_one_spec_tasks_share_nothing(self):
        assert executions(*((spec,) for spec in self.SPECS)) == len(self.SPECS)

    def test_a_retried_task_executes_again(self):
        # The last spec raises on the first attempt, after every shared
        # run of the task executed; the retry starts with an empty memo.
        plan = FaultPlan(raise_labels=frozenset({self.SPECS[-1].label()}))
        expected = expected_executions(self.SPECS)
        tracer = Tracer(trace_id="retry")
        with activated(tracer):
            with pytest.raises(InjectedFaultError):
                _run_batch(self.SPECS, attempt=1, faults=plan)
            failed = [s for s in tracer.drain() if s.name == "execute"]
            outcomes, _, _ = _run_batch(self.SPECS, attempt=2, faults=plan)
        retried = [s for s in tracer.drain() if s.name == "execute"]
        assert len(failed) == expected - 1  # all but the raising last spec
        assert len(retried) == expected
        assert list(outcomes) == [run_scenario(spec) for spec in self.SPECS]

    def test_the_fault_plan_fires_for_every_spec_in_order(self):
        class RecordingPlan:
            def __init__(self):
                self.seen = []

            def perform(self, spec, attempt, *, in_worker):
                self.seen.append((spec, attempt))

        plan = RecordingPlan()
        _run_batch(self.SPECS, attempt=2, faults=plan)
        assert plan.seen == [(spec, 2) for spec in self.SPECS]


class TestRegistration:
    def test_key_and_judge_are_registered_together(self):
        with pytest.raises(ConfigurationError):
            scenario_kind("test-half-split", execution_key=lambda spec: None)
        assert "test-half-split" not in _KINDS

    def test_a_custom_shared_kind_runs_once_per_task(self):
        calls = []

        def judge(spec, run):
            return ScenarioOutcome(spec=spec, verdict="ok", steps=run)

        @scenario_kind("test-shared-kind", execution_key=lambda spec: spec.n,
                       judge=judge)
        def execute_once(spec):
            calls.append(spec)
            if spec.n == 3:
                raise RuntimeError("no run for n=3")
            return spec.n * 10

        try:
            kind = get_kind("test-shared-kind")
            assert isinstance(kind, SharedExecutionKind)
            specs = tuple(ScenarioSpec(kind="test-shared-kind", n=n, f=0, k=k)
                          for n in (2, 3) for k in (1, 2, 3))
            outcomes, _, _ = _run_batch(specs)
            # n=2 executes once; n=3 raises, is not memoised, and so
            # executes (and fails) at each of its positions.
            assert [spec.n for spec in calls] == [2, 3, 3, 3]
            assert [o.verdict for o in outcomes] == ["ok"] * 3 + ["error"] * 3
            assert list(outcomes) == [run_scenario(spec) for spec in specs]
            assert CampaignRunner().run(specs).outcomes == tuple(outcomes)
        finally:
            del _KINDS["test-shared-kind"]
