"""Tests for :mod:`repro.simulation.executor`."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import pytest

from repro.algorithms.base import Algorithm, ProcessState, StepOutput, broadcast, send
from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.trivial import DecideOwnValue
from repro.exceptions import (
    AdmissibilityError,
    AlgorithmError,
    ConfigurationError,
)
from repro.failure_detectors.base import FailurePattern
from repro.failure_detectors.sigma import SigmaK
from repro.models.asynchronous import asynchronous_model
from repro.models.initial_crash import initial_crash_model
from repro.simulation.executor import (
    ExecutionSettings,
    all_alive_decided,
    all_correct_decided,
    execute,
    group_decided,
)
from repro.simulation.scheduler import Adversary, RoundRobinScheduler, StepDirective


class EchoOnce(Algorithm):
    """Sends one message to its successor, decides upon first reception."""

    name = "echo-once"

    def initial_state(self, pid, processes, proposal):
        return ProcessState(pid=pid, proposal=proposal)

    def step(self, state, delivered, fd_output=None):
        successor = state.pid % 4 + 1
        if delivered and not state.has_decided:
            return StepOutput(
                state=state.decide(delivered[0].payload),
                messages=(send(successor, f"from-{state.pid}"),),
            )
        return StepOutput(state=state, messages=(send(successor, f"from-{state.pid}"),))


class MisbehavingAlgorithm(Algorithm):
    """Configurable contract violations, used to test executor enforcement."""

    name = "misbehaving"

    def __init__(self, mode: str):
        self.mode = mode

    def initial_state(self, pid, processes, proposal):
        if self.mode == "wrong-initial-pid":
            return ProcessState(pid=pid + 1, proposal=proposal)
        return ProcessState(pid=pid, proposal=proposal)

    def step(self, state, delivered, fd_output=None):
        if self.mode == "wrong-pid":
            return StepOutput(state=ProcessState(pid=state.pid + 1, proposal=state.proposal))
        if self.mode == "change-decision":
            forced = replace(state, decision="first") if not state.has_decided else replace(state, decision="second")
            return StepOutput(state=forced)
        if self.mode == "change-proposal":
            return StepOutput(state=replace(state, proposal="tampered"))
        if self.mode == "foreign-receiver":
            return StepOutput(state=state, messages=(send(99, "boo"),))
        return StepOutput(state=state)


class TestBasicExecution:
    def test_trivial_algorithm_completes(self):
        model = initial_crash_model(3, 0)
        run = execute(DecideOwnValue(), model, {1: "a", 2: "b", 3: "c"})
        assert run.completed and not run.truncated
        assert run.decisions() == {1: "a", 2: "b", 3: "c"}
        assert run.length == 3

    def test_messages_flow(self):
        model = asynchronous_model(4, 0)
        run = execute(EchoOnce(), model, {p: p for p in model.processes})
        assert run.completed
        assert all(value.startswith("from-") for value in run.decisions().values())

    def test_events_are_ordered_and_timed(self):
        model = initial_crash_model(3, 0)
        run = execute(DecideOwnValue(), model, {1: 1, 2: 2, 3: 3})
        times = [event.time for event in run.events]
        assert times == sorted(times)
        assert times[0] == 1


class TestValidation:
    def test_missing_proposal_rejected(self):
        model = initial_crash_model(3, 0)
        with pytest.raises(ConfigurationError):
            execute(DecideOwnValue(), model, {1: "a"})

    def test_extra_proposal_rejected(self):
        model = initial_crash_model(2, 0)
        with pytest.raises(ConfigurationError):
            execute(DecideOwnValue(), model, {1: "a", 2: "b", 9: "c"})

    def test_pattern_must_match_model(self):
        model = initial_crash_model(3, 1)
        pattern = FailurePattern((1, 2), {})
        with pytest.raises(ConfigurationError):
            execute(DecideOwnValue(), model, {1: 1, 2: 2, 3: 3}, failure_pattern=pattern)

    def test_pattern_must_respect_failure_assumption(self):
        model = initial_crash_model(3, 1)
        pattern = FailurePattern((1, 2, 3), {1: 0, 2: 0})
        with pytest.raises(AdmissibilityError):
            execute(DecideOwnValue(), model, {1: 1, 2: 2, 3: 3}, failure_pattern=pattern)

    def test_detector_required_when_algorithm_needs_one(self):
        from repro.algorithms.sigma_kset import SigmaKSetAgreement

        model = asynchronous_model(3, 2)
        with pytest.raises(ConfigurationError):
            execute(SigmaKSetAgreement(3), model, {1: 1, 2: 2, 3: 3})

    def test_wrong_initial_pid_rejected(self):
        model = initial_crash_model(2, 0)
        with pytest.raises(AlgorithmError):
            execute(MisbehavingAlgorithm("wrong-initial-pid"), model, {1: 1, 2: 2})

    def test_wrong_step_pid_rejected(self):
        model = initial_crash_model(2, 0)
        with pytest.raises(AlgorithmError):
            execute(MisbehavingAlgorithm("wrong-pid"), model, {1: 1, 2: 2})

    def test_decision_change_rejected(self):
        class AlwaysP1(Adversary):
            def next_step(self, view):
                return StepDirective(pid=1)

        model = initial_crash_model(2, 0)
        with pytest.raises(AlgorithmError):
            execute(
                MisbehavingAlgorithm("change-decision"),
                model,
                {1: 1, 2: 2},
                adversary=AlwaysP1(),
                settings=ExecutionSettings(max_steps=10, stop_condition=lambda s, d, c: False),
            )

    def test_proposal_change_rejected(self):
        model = initial_crash_model(2, 0)
        with pytest.raises(AlgorithmError):
            execute(MisbehavingAlgorithm("change-proposal"), model, {1: 1, 2: 2},
                    settings=ExecutionSettings(max_steps=5, stop_condition=lambda s, d, c: False))

    def test_foreign_receiver_rejected(self):
        model = initial_crash_model(2, 0)
        with pytest.raises(AlgorithmError):
            execute(MisbehavingAlgorithm("foreign-receiver"), model, {1: 1, 2: 2},
                    settings=ExecutionSettings(max_steps=5, stop_condition=lambda s, d, c: False))


class TestCrashes:
    def test_initially_dead_never_step(self):
        model = initial_crash_model(4, 2)
        pattern = FailurePattern.initially_dead(model.processes, {3, 4})
        run = execute(DecideOwnValue(), model, {p: p for p in model.processes}, failure_pattern=pattern)
        assert run.completed
        assert {event.pid for event in run.events} == {1, 2}

    def test_crash_during_run_stops_steps(self):
        model = asynchronous_model(4, 1)
        pattern = FailurePattern(model.processes, {2: 3})
        run = execute(
            EchoOnce(), model, {p: p for p in model.processes}, failure_pattern=pattern,
            settings=ExecutionSettings(max_steps=100),
        )
        assert all(event.time < 3 for event in run.events if event.pid == 2)

    def test_adversary_cannot_schedule_crashed_process(self):
        class BadAdversary(Adversary):
            def next_step(self, view):
                return StepDirective(pid=1)

        model = asynchronous_model(2, 1)
        pattern = FailurePattern(model.processes, {1: 0})
        with pytest.raises(AdmissibilityError):
            execute(DecideOwnValue(), model, {1: 1, 2: 2}, adversary=BadAdversary(),
                    failure_pattern=pattern)


class TestStopConditionsAndBudget:
    def test_group_stop_condition(self):
        model = initial_crash_model(4, 0)
        run = execute(
            DecideOwnValue(), model, {p: p for p in model.processes},
            settings=ExecutionSettings(stop_condition=group_decided({1, 2})),
        )
        assert run.completed
        assert {1, 2} <= run.decided_processes()

    def test_all_alive_decided_condition(self):
        states = {1: ProcessState(pid=1, proposal=1).decide(1)}
        assert all_alive_decided(states, frozenset({1}), frozenset({1}))
        undecided = {1: ProcessState(pid=1, proposal=1)}
        assert not all_alive_decided(undecided, frozenset(), frozenset({1}))

    def test_all_correct_decided_condition(self):
        assert all_correct_decided({}, frozenset({1, 2}), frozenset({1}))
        assert not all_correct_decided({}, frozenset(), frozenset({1}))

    def test_truncation_flag(self):
        model = initial_crash_model(4, 2)
        algorithm = KSetInitialCrash(4, 2)
        # Isolate p1 alone: it waits for one more stage-1 message forever.
        from repro.simulation.adversary import IsolationAdversary

        run = execute(
            algorithm, model, {p: p for p in model.processes},
            adversary=IsolationAdversary({1}),
            settings=ExecutionSettings(max_steps=50),
        )
        assert run.truncated and not run.completed


class TestFailureDetectorQueries:
    def test_history_recorded(self):
        detector = SigmaK(1)
        model = asynchronous_model(3, 2, failure_detector=detector)
        from repro.algorithms.sigma_kset import SigmaKSetAgreement

        run = execute(SigmaKSetAgreement(3), model, {p: p for p in model.processes})
        assert run.completed
        assert len(run.fd_history) == run.length
        assert detector.check_history(run.fd_history, run.failure_pattern) == []

    def test_detector_not_queried_without_one(self):
        model = initial_crash_model(3, 0)
        run = execute(DecideOwnValue(), model, {p: p for p in model.processes})
        assert len(run.fd_history) == 0
        assert all(event.fd_output is None for event in run.events)
