"""Tests for the two-stage protocol, FLP consensus and the Section VI algorithm."""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional, Tuple

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.algorithms.base import StepOutput, broadcast
from repro.algorithms.flp_consensus import FLPConsensus
from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.two_stage import Report, TwoStageKnowledgeProtocol, TwoStageState
from repro.core.ksetagreement import KSetAgreementProblem
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern
from repro.graphs.knowledge_graph import decide_from_reports
from repro.models.initial_crash import initial_crash_model
from repro.simulation.executor import ExecutionSettings, execute
from repro.simulation.scheduler import Adversary, RandomScheduler, RoundRobinScheduler
from repro.types import Value


class TestConfigurationValidation:
    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            TwoStageKnowledgeProtocol(4, 0)
        with pytest.raises(ConfigurationError):
            TwoStageKnowledgeProtocol(4, 5)
        with pytest.raises(ConfigurationError):
            TwoStageKnowledgeProtocol(0, 1)

    def test_flp_requires_majority(self):
        with pytest.raises(ConfigurationError):
            FLPConsensus(4, 2)
        FLPConsensus(5, 2)  # fine

    def test_kset_requires_f_below_n(self):
        with pytest.raises(ConfigurationError):
            KSetInitialCrash(4, 4)
        with pytest.raises(ConfigurationError):
            KSetInitialCrash(4, -1)

    def test_system_size_mismatch_rejected(self):
        algorithm = KSetInitialCrash(4, 1)
        with pytest.raises(ConfigurationError):
            algorithm.initial_state(1, (1, 2, 3), 1)

    def test_max_distinct_decisions(self):
        assert KSetInitialCrash(6, 3).max_distinct_decisions() == 2
        assert KSetInitialCrash(6, 4).max_distinct_decisions() == 3
        assert FLPConsensus(5, 2).max_distinct_decisions() == 1
        assert KSetInitialCrash(7, 4).achieved_k == 2

    def test_describe(self):
        assert "L=n-f=3" in KSetInitialCrash(6, 3).describe()
        assert "majority" in FLPConsensus(5, 2).describe()


def run_protocol(n, f, dead, adversary=None, proposals=None, max_steps=8_000):
    model = initial_crash_model(n, f)
    algorithm = KSetInitialCrash(n, f)
    proposals = proposals or {p: p for p in model.processes}
    pattern = FailurePattern.initially_dead(model.processes, dead)
    return execute(
        algorithm, model, proposals,
        adversary=adversary or RoundRobinScheduler(),
        failure_pattern=pattern,
        settings=ExecutionSettings(max_steps=max_steps),
    ), proposals


class TestFLPConsensus:
    @pytest.mark.parametrize("n,f", [(3, 1), (5, 2), (7, 3), (9, 4)])
    def test_consensus_with_majority(self, n, f):
        model = initial_crash_model(n, f)
        algorithm = FLPConsensus(n, f)
        dead = set(range(n - f + 1, n + 1))
        pattern = FailurePattern.initially_dead(model.processes, dead)
        run = execute(algorithm, model, {p: p * 7 for p in model.processes},
                      failure_pattern=pattern)
        report = KSetAgreementProblem(1).evaluate(run)
        assert report.all_ok, report.violations

    def test_consensus_under_random_schedules(self):
        n, f = 5, 2
        model = initial_crash_model(n, f)
        for seed in range(4):
            rng = random.Random(seed)
            dead = set(rng.sample(range(1, n + 1), rng.randint(0, f)))
            pattern = FailurePattern.initially_dead(model.processes, dead)
            run = execute(
                FLPConsensus(n, f), model, {p: p for p in model.processes},
                adversary=RandomScheduler(seed),
                failure_pattern=pattern,
            )
            report = KSetAgreementProblem(1).evaluate(run)
            assert report.all_ok, (seed, report.violations)


class TestKSetInitialCrash:
    @pytest.mark.parametrize(
        "n,f,k",
        [(4, 1, 1), (4, 2, 2), (6, 3, 2), (6, 4, 3), (8, 4, 2), (9, 6, 3), (10, 5, 2)],
    )
    def test_properties_hold_on_solvable_side(self, n, f, k):
        # k = floor(n / (n - f)) is exactly the guarantee of the protocol.
        assert k == n // (n - f)
        run, proposals = run_protocol(n, f, dead=set(range(n - f + 1, n + 1)))
        report = KSetAgreementProblem(k).evaluate(run, proposals=proposals)
        assert report.all_ok, report.violations

    def test_no_crash_run_decides_single_value(self):
        run, _ = run_protocol(6, 3, dead=set())
        assert run.completed
        assert len(run.distinct_decisions()) == 1

    def test_validity_with_non_identity_proposals(self):
        proposals = {1: "a", 2: "b", 3: "c", 4: "d", 5: "e", 6: "f"}
        run, _ = run_protocol(6, 3, dead={5, 6}, proposals=proposals)
        assert run.distinct_decisions() <= set(proposals.values())

    @given(
        st.integers(min_value=3, max_value=8),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_random_crashes_and_schedules_respect_bound(self, n, data):
        f = data.draw(st.integers(min_value=1, max_value=n - 1))
        dead_count = data.draw(st.integers(min_value=0, max_value=f))
        dead = set(data.draw(st.permutations(range(1, n + 1)))[:dead_count])
        seed = data.draw(st.integers(min_value=0, max_value=100))
        run, proposals = run_protocol(n, f, dead, adversary=RandomScheduler(seed))
        k = n // (n - f)
        report = KSetAgreementProblem(k).evaluate(run, proposals=proposals)
        assert report.all_ok, report.violations

    def test_decisions_trace_back_to_source_components(self):
        run, _ = run_protocol(6, 4, dead={5, 6})
        # threshold is 2, four alive processes: at most 2 source components
        assert 1 <= len(run.distinct_decisions()) <= 2


class _ReferenceStep:
    """The protocol's step as it was before it built one state per step.

    Kept verbatim (a ``dataclasses.replace`` chain, fresh sets every
    step, a decision attempt on every step with a new report) as the
    reference the current step is held to.
    """

    def step(
        self,
        state: TwoStageState,
        delivered: Tuple[object, ...],
        fd_output: Optional[object] = None,
    ) -> StepOutput:
        """One atomic step: absorb messages, advance stages, decide."""
        if state.has_decided:
            return StepOutput(state=state)

        processes = tuple(range(1, self.n + 1))
        outgoing = []
        heard = set(state.heard_stage1)
        reports = set(state.reports)

        for message in delivered:
            payload = message.payload
            kind = payload[0]
            if kind == "S1":
                heard.add(payload[1])
            elif kind == "S2":
                _kind, sender, predecessors, value = payload
                reports.add((sender, tuple(predecessors), value))

        new_reports = len(reports) != len(state.reports)
        new_state = replace(
            state, heard_stage1=frozenset(heard), reports=frozenset(reports)
        )

        if not new_state.sent_stage1:
            outgoing.extend(
                broadcast(processes, ("S1", state.pid), exclude=(state.pid,))
            )
            new_state = replace(new_state, sent_stage1=True)

        if new_state.stage == 1 and new_state.sent_stage1:
            if len(new_state.heard_stage1 - {state.pid}) >= self.threshold - 1:
                predecessors = tuple(sorted(new_state.heard_stage1 - {state.pid}))
                own_report: Report = (state.pid, predecessors, state.proposal)
                reports = set(new_state.reports)
                reports.add(own_report)
                outgoing.extend(
                    broadcast(
                        processes,
                        ("S2", state.pid, predecessors, state.proposal),
                        exclude=(state.pid,),
                    )
                )
                new_state = replace(
                    new_state,
                    stage=2,
                    sent_stage2=True,
                    predecessors=predecessors,
                    reports=frozenset(reports),
                )
                new_reports = True

        # The decision depends only on the report set, so a step that
        # brought no new report cannot newly complete the closure — skip
        # the (O(edges)) attempt instead of recomputing the same "not yet".
        if new_state.stage == 2 and new_reports:
            decision = self._try_decide(new_state)
            if decision is not None:
                new_state = new_state.decide(decision)

        return StepOutput(state=new_state, messages=tuple(outgoing))

    def _try_decide(self, state: TwoStageState) -> Optional[Value]:
        """Return the decision value once the knowledge closure is complete.

        Works directly on the raw report tuples via
        :func:`repro.graphs.knowledge_graph.decide_from_reports` — the
        per-attempt :class:`KnowledgeGraph` (one frozenset per report,
        rebuilt on every stage-2 step) was the dominant allocation of a
        Section VI run.  Reports are write-once per process, so the
        graph's conflicting-report validation has nothing to detect here.
        """
        heard_from = {}
        values = {}
        for process, predecessors, value in state.reports:
            heard_from[process] = predecessors
            values[process] = value
        return decide_from_reports(state.pid, heard_from, values)


class ReferenceKSet(_ReferenceStep, KSetInitialCrash):
    pass


class ReferenceFLP(_ReferenceStep, FLPConsensus):
    pass


def executions(n, f):
    """One execution of an ``(n, f)`` protocol: an admissible initial-crash
    set, proposals, either scheduler and a budget that may truncate."""
    schedulers = st.one_of(st.none(), st.fixed_dictionaries(dict(
        seed=st.integers(0, 2 ** 16),
        delivery_bias=st.floats(0.0, 1.0),
        max_delay=st.integers(0, 30),
    )))
    return st.tuples(
        st.sets(st.integers(1, n), max_size=f),
        st.lists(st.integers(0, 4), min_size=n, max_size=n),
        schedulers,
        st.one_of(st.integers(1, 60), st.integers(61, 2_000)),
    )


@st.composite
def protocols(draw):
    """``(consensus, n, f)`` of an FLP or Section VI protocol, n <= 12."""
    n = draw(st.integers(1, 12))
    consensus = draw(st.booleans())
    return consensus, n, draw(st.integers(0, (n - 1) // 2 if consensus else n - 1))


@st.composite
def protocol_runs(draw):
    """A Section VI or FLP run."""
    consensus, n, f = draw(protocols())
    return (consensus, n, f, *draw(executions(n, f)))


def _adversary(scheduler) -> Adversary:
    return (RandomScheduler(**scheduler) if scheduler is not None
            else RoundRobinScheduler())


def _full_run(algorithm, n, f, dead, proposals, max_steps, adversary):
    model = initial_crash_model(n, f)
    return execute(
        algorithm, model, dict(zip(model.processes, proposals)),
        adversary=adversary,
        failure_pattern=FailurePattern.initially_dead(model.processes, dead),
        settings=ExecutionSettings(max_steps=max_steps),
    )


def _assert_same_run(run, expected):
    assert run.events == expected.events  # every state_after included
    assert run.decisions() == expected.decisions()
    assert run.completed == expected.completed
    assert run.truncated == expected.truncated
    assert run.undelivered == expected.undelivered
    assert (run.step_count, run.sent_total, run.delivered_total) == (
        expected.step_count, expected.sent_total, expected.delivered_total)


class TestStepEqualsReference:
    """The one-state step is the pre-rewrite step, event for event."""

    @given(protocol_runs())
    def test_full_run_equals_the_reference_steps_run(self, case):
        consensus, n, f, dead, proposals, scheduler, max_steps = case
        current, reference = (
            (FLPConsensus, ReferenceFLP) if consensus
            else (KSetInitialCrash, ReferenceKSet))
        run = _full_run(current(n, f), n, f, dead, proposals, max_steps,
                        _adversary(scheduler))
        expected = _full_run(reference(n, f), n, f, dead, proposals, max_steps,
                             _adversary(scheduler))
        event("truncated" if run.truncated else
              "completed" if run.completed else "stopped")
        _assert_same_run(run, expected)


class _Nesting(Adversary):
    """``inner``'s schedule, with ``nested()`` run before the first step
    at or after time ``at``."""

    def __init__(self, inner: Adversary, at: int, nested) -> None:
        self._inner = inner
        self._at = at
        self._nested = nested

    def next_step(self, view):
        if self._nested is not None and view.time >= self._at:
            nested, self._nested = self._nested, None
            nested()
        return self._inner.next_step(view)


@st.composite
def shared_instance_runs(draw):
    """Two to four executions of one protocol, each with the step at
    which the next one starts inside it."""
    consensus, n, f = draw(protocols())
    runs = draw(st.lists(st.tuples(executions(n, f), st.integers(1, 10)),
                         min_size=2, max_size=4))
    return consensus, n, f, runs


class TestDecisionCacheIsExact:
    """One instance's cached closure decisions are right in any execution.

    The protocol caches each complete closure's decision under the
    closure's reports.  A bivalence exploration steps states of many
    executions on one instance, so the cache must not rely on
    ``initial_state`` emptying it: here each execution starts inside the
    previous one, which then resumes with the nested execution's
    closures in the cache.
    """

    @given(shared_instance_runs())
    def test_a_reused_instance_runs_as_fresh_instances_do(self, case):
        consensus, n, f, runs = case
        protocol = FLPConsensus if consensus else KSetInitialCrash
        shared = protocol(n, f)
        got = [None] * len(runs)

        def run(index):
            (dead, proposals, scheduler, max_steps), at = runs[index]
            adversary = _adversary(scheduler)
            last = index + 1 == len(runs)
            if not last:
                adversary = _Nesting(adversary, min(at, max_steps),
                                     lambda: run(index + 1))
            got[index] = _full_run(
                shared, n, f, dead, proposals, max_steps, adversary)
            if not last and got[index + 1] is None:
                event("an outer run ended before its nested run started")
                run(index + 1)

        run(0)
        for ((dead, proposals, scheduler, max_steps), _at), run_ in zip(runs, got):
            expected = _full_run(protocol(n, f), n, f, dead, proposals,
                                 max_steps, _adversary(scheduler))
            _assert_same_run(run_, expected)
