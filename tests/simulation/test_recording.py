"""The one run contract, and the lazy-view contract of the executor.

The scalar executor always records the whole trace; the bitmask fast
path's run is the one traceless run (``Run.traced`` is ``False``).  The
contract tests hold every trace query to that: on a bitmask run it
raises :class:`repro.exceptions.TraceUnavailableError`, and on a scalar
run of the same spec it never raises, whatever the spec's ``recording``
name.  A property over random initial-crash executions (the strategy the
executor-invariant tests use) holds the decisions, flags and counters of
the two runs equal.  The lazy-view tests pin the loud-failure contract:
a view (or anything it exposes lazily) used after its step raises
:class:`repro.exceptions.StaleViewError`.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.trivial import DecideOwnValue
from repro.campaign import ScenarioSpec, get_kind
from repro.campaign.scenarios import (
    execute_theorem8_impossible,
    execute_theorem8_solvable,
)
from repro.exceptions import StaleViewError, TraceUnavailableError
from repro.failure_detectors.base import FailurePattern
from repro.models.initial_crash import initial_crash_model
from repro.simulation.bitmask_kernel import execute_bitmask
from repro.simulation.executor import ExecutionSettings, execute
from repro.simulation.scheduler import (
    Adversary,
    RandomScheduler,
    RoundRobinScheduler,
    StepDirective,
)


@st.composite
def executions(draw):
    """A random initial-crash execution: point, dead set and schedule."""
    n = draw(st.integers(min_value=3, max_value=7))
    f = draw(st.integers(min_value=1, max_value=n - 1))
    dead_size = draw(st.integers(min_value=0, max_value=f))
    dead = frozenset(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=n),
                min_size=dead_size, max_size=dead_size, unique=True,
            )
        )
    )
    seed = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)))
    return n, f, dead, seed


def run_execution(engine, n, f, dead, seed, *, max_steps=4_000):
    model = initial_crash_model(n, f)
    adversary = RoundRobinScheduler() if seed is None else RandomScheduler(seed, max_delay=10)
    return engine(
        KSetInitialCrash(n, f),
        model,
        {p: p for p in model.processes},
        adversary=adversary,
        failure_pattern=FailurePattern.initially_dead(model.processes, dead),
        settings=ExecutionSettings(max_steps=max_steps),
    )


#: Every query that reads the trace, the model's admissibility check
#: included, as ``(run, model) -> answer``.
TRACE_QUERIES = {
    "steps_of": lambda run, model: run.steps_of(1),
    "state_sequence": lambda run, model: run.state_sequence(1),
    "received_before_decision": lambda run, model: run.received_before_decision(1),
    "deliveries_to": lambda run, model: run.deliveries_to(1),
    "decision_times": lambda run, model: run.decision_times(),
    "last_decision_time": lambda run, model: run.last_decision_time(),
    "undelivered_to": lambda run, model: run.undelivered_to(1),
    "admissibility_violations": lambda run, model: model.admissibility_violations(run),
}

#: ``"verdict-only"`` specs of both Theorem 8 kinds.  Under its kind the
#: solvable one runs the bitmask loop; each has a scalar run.
SOLVABLE = ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2,
                        scheduler="random", seed=3, crashes=((5, 0),),
                        recording="verdict-only")
IMPOSSIBLE = ScenarioSpec(kind="theorem8-impossible", n=4, f=2, k=1,
                          scheduler="partitioning", recording="verdict-only")
SCALAR_RUNS = {
    "theorem8-solvable": execute_theorem8_solvable,
    "theorem8-impossible": execute_theorem8_impossible,
}


def scalar_run(spec):
    return SCALAR_RUNS[spec.kind](spec)[0]


def model_of(spec):
    return initial_crash_model(spec.n, spec.f)


@pytest.mark.parametrize("query", sorted(TRACE_QUERIES))
class TestRunContract:
    def test_a_bitmask_run_raises(self, query):
        run = get_kind(SOLVABLE.kind).execute(SOLVABLE)
        assert not run.traced
        with pytest.raises(TraceUnavailableError,
                           match=r"execute_theorem8_solvable\(spec\)"):
            TRACE_QUERIES[query](run, model_of(SOLVABLE))

    @pytest.mark.parametrize("spec", [SOLVABLE, IMPOSSIBLE],
                             ids=lambda spec: spec.kind)
    def test_a_scalar_run_never_raises(self, query, spec):
        run = scalar_run(spec)
        assert run.traced
        TRACE_QUERIES[query](run, model_of(spec))


class TestEnginesAgree:
    @given(executions())
    def test_both_runs_report_identical_facts(self, case):
        """Everything a verdict needs is equal on the two engines' runs."""
        scalar = run_execution(execute, *case)
        fast = run_execution(execute_bitmask, *case)
        assert scalar.traced and not fast.traced
        assert fast.completed == scalar.completed
        assert fast.truncated == scalar.truncated
        assert fast.length == scalar.length
        for query in ("decisions", "distinct_decisions", "decided_processes",
                      "messages_sent", "messages_delivered", "summary"):
            assert getattr(fast, query)() == getattr(scalar, query)(), query

    def test_a_bitmask_run_keeps_no_trace(self):
        scalar = run_execution(execute, 6, 3, frozenset({6}), None)
        fast = run_execution(execute_bitmask, 6, 3, frozenset({6}), None)
        assert scalar.events and scalar.decision_times()
        assert fast.events == ()
        assert len(fast.fd_history) == 0
        assert fast.undelivered == ()

    def test_a_scalar_run_records_the_failure_detector_history(self):
        from repro.algorithms.sigma_kset import SigmaKSetAgreement
        from repro.failure_detectors.sigma import SigmaK
        from repro.models.asynchronous import asynchronous_model

        model = asynchronous_model(3, 2, failure_detector=SigmaK(1))
        run = execute(SigmaKSetAgreement(3), model, {1: 1, 2: 2, 3: 3})
        assert run.traced
        assert len(run.fd_history) == run.length

    def test_directly_recorded_maps_agree_with_the_event_stream(self):
        # The executor records decisions incrementally beside the events;
        # they must coincide with what replaying the events yields.
        model = initial_crash_model(5, 2)
        run = execute(KSetInitialCrash(5, 2), model, {p: p for p in model.processes})
        from_events = {}
        times = {}
        for event in run.events:
            if event.newly_decided:
                from_events[event.pid] = event.state_after.decision
                times.setdefault(event.pid, event.time)
        assert run.decisions() == from_events
        assert run.decision_times() == times
        assert run.messages_sent() == sum(len(e.sent) for e in run.events)
        assert run.messages_delivered() == sum(len(e.delivered) for e in run.events)


class ViewStashingAdversary(Adversary):
    """Round-robin-ish adversary that retains views across steps."""

    def __init__(self):
        self.stashed = []
        self.stale_error_at_step = None

    def next_step(self, view):
        if self.stashed and self.stale_error_at_step is None:
            try:
                self.stashed[-1].undecided_alive()
            except StaleViewError:
                self.stale_error_at_step = view.time
        self.stashed.append(view)
        candidates = view.undecided_alive()
        if not candidates:
            return None
        pid = candidates[0]
        return StepDirective(pid=pid, deliver=tuple(m.msg_id for m in view.pending_for(pid)))


class TestLazyViewExpiry:
    def test_view_accessed_after_its_step_raises(self):
        adversary = ViewStashingAdversary()
        model = initial_crash_model(3, 0)
        run = execute(DecideOwnValue(), model, {1: "a", 2: "b", 3: "c"}, adversary=adversary)
        assert run.completed
        # the previous step's view raised as soon as step 2 touched it
        assert adversary.stale_error_at_step == 2
        # and every retained view is dead after the run, attribute by attribute
        for view in adversary.stashed:
            for access in (
                lambda: view.time,
                lambda: view.states,
                lambda: view.pending,
                lambda: view.alive,
                lambda: view.correct,
                lambda: view.decided,
                lambda: view.processes,
                lambda: view.undecided_alive(),
                lambda: view.pending_for(1),
            ):
                with pytest.raises(StaleViewError):
                    access()

    def test_lazily_exposed_mappings_expire_with_their_view(self):
        captured = {}

        class MappingStasher(Adversary):
            def next_step(self, view):
                if "states" not in captured:
                    captured["states"] = view.states
                    captured["pending"] = view.pending
                    # live reads work while the view is current
                    assert captured["states"][1] is not None
                    assert list(captured["pending"][1]) == list(view.pending_for(1))
                candidates = view.undecided_alive()
                if not candidates:
                    return None
                return StepDirective(pid=candidates[0])

        model = initial_crash_model(2, 0)
        execute(DecideOwnValue(), model, {1: 1, 2: 2}, adversary=MappingStasher())
        with pytest.raises(StaleViewError):
            captured["states"][1]
        with pytest.raises(StaleViewError):
            len(captured["states"])
        with pytest.raises(StaleViewError):
            captured["pending"][1]
        with pytest.raises(StaleViewError):
            list(captured["pending"])

    def test_snapshot_view_still_constructible_and_cached(self):
        from repro.algorithms.base import ProcessState
        from repro.simulation.scheduler import AdversaryView

        view = AdversaryView(
            time=1,
            processes=(1, 2, 3),
            states={p: ProcessState(pid=p, proposal=p) for p in (1, 2, 3)},
            pending={},
            alive=frozenset({1, 2, 3}),
            correct=frozenset({1, 2, 3}),
            decided=frozenset({2}),
        )
        first = view.undecided_alive()
        assert first == (1, 3)
        assert view.undecided_alive() is first  # cached tuple, no re-sort


class TestIncrementalStopTracking:
    def test_builtin_conditions_advertise_required_deciders(self):
        from repro.simulation.executor import (
            all_alive_decided,
            all_correct_decided,
            group_decided,
        )

        correct = frozenset({1, 2, 3})
        assert all_correct_decided.required_deciders(correct) == correct
        assert all_alive_decided.required_deciders(correct) == correct
        assert group_decided({2, 9}).required_deciders(correct) == frozenset({2})

    def test_custom_condition_equals_fast_path(self):
        # A plain lambda with the same semantics as group_decided must
        # produce the identical run through the per-step fallback.
        from repro.simulation.executor import group_decided

        model = initial_crash_model(4, 0)
        members = frozenset({1, 2})
        fast = execute(
            DecideOwnValue(), model, {p: p for p in model.processes},
            settings=ExecutionSettings(stop_condition=group_decided(members)),
        )
        slow = execute(
            DecideOwnValue(), model, {p: p for p in model.processes},
            settings=ExecutionSettings(
                stop_condition=lambda s, d, c: (members & c).issubset(d)
            ),
        )
        assert fast.decisions() == slow.decisions()
        assert fast.length == slow.length
        assert fast.completed == slow.completed

    def test_custom_condition_still_called_per_step(self):
        calls = []

        def condition(states, decided, correct):
            calls.append((len(decided), frozenset(decided)))
            return False

        model = initial_crash_model(2, 0)
        run = execute(
            DecideOwnValue(), model, {1: 1, 2: 2},
            settings=ExecutionSettings(max_steps=5, stop_condition=condition),
        )
        assert not run.completed
        assert len(calls) == run.length + 1  # once before the loop + once per step
        assert isinstance(calls[-1][1], frozenset)
