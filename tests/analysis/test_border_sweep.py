"""Tests for the Theorem 8 border sweep (:mod:`repro.analysis.border_sweep`)."""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import pytest

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.analysis.border_sweep import (
    observe_impossible,
    observe_solvable,
    sweep_theorem8,
)
from repro.campaign import CampaignRunner
from repro.core.borders import theorem8_verdict
from repro.core.ksetagreement import KSetAgreementProblem
from repro.failure_detectors.base import FailurePattern
from repro.models.initial_crash import initial_crash_model
from repro.simulation.adversary import PartitioningAdversary
from repro.simulation.executor import ExecutionSettings, execute
from repro.simulation.scheduler import RandomScheduler, RoundRobinScheduler
from repro.types import Verdict


class TestObservations:
    def test_solvable_point(self):
        ok, reports = observe_solvable(5, 2, 2, seeds=(1,), max_steps=4_000)
        assert ok
        assert all(report.all_ok for report in reports)
        assert len(reports) >= 4

    def test_impossible_point(self):
        violated, report = observe_impossible(6, 4, 2, max_steps=4_000)
        assert violated
        assert not report.agreement_ok or not report.termination_ok

    def test_impossible_point_strictly_inside_region(self):
        # f larger than the border value: groups of size n-f leave leftover
        # processes that are declared initially dead.
        violated, _report = observe_impossible(7, 5, 2, max_steps=4_000)
        assert violated

    def test_consensus_with_majority_is_solvable(self):
        ok, _reports = observe_solvable(5, 2, 1, seeds=(3,), max_steps=4_000)
        assert ok


class TestSweep:
    def test_small_sweep_agrees_everywhere(self):
        points = sweep_theorem8([4, 5], seeds=(1,), max_steps=4_000)
        assert points
        disagreements = [p for p in points if not p.agrees]
        assert disagreements == []
        # both sides of the border appear in the sweep
        assert any(p.predicted is Verdict.SOLVABLE for p in points)
        assert any(p.predicted is Verdict.IMPOSSIBLE for p in points)

    def test_sweep_covers_full_grid(self):
        points = sweep_theorem8([4], seeds=(1,), max_steps=4_000)
        assert len(points) == 3 * 3  # f in 1..3, k in 1..3


class TestDetails:
    def test_agreeing_solvable_point_summarises_the_evidence(self):
        points = sweep_theorem8([4], seeds=(1,), max_steps=4_000)
        solvable = [p for p in points if p.predicted is Verdict.SOLVABLE]
        for point in solvable:
            assert point.agrees
            assert len(point.details) == 1
            assert "runs, all properties hold" in point.details[0]

    def test_impossible_point_names_the_violated_property(self):
        points = sweep_theorem8([4], seeds=(1,), max_steps=4_000)
        impossible = [p for p in points if p.predicted is Verdict.IMPOSSIBLE]
        assert impossible
        for point in impossible:
            assert point.agrees
            assert point.details
            assert any(
                "agreement" in detail or "termination" in detail
                for detail in point.details
            ), point.details

    def test_failing_runs_surface_schedule_seed_and_crash_pattern(self):
        # The sweep's detail lines come from ScenarioOutcome.describe();
        # a failing run must name the violated property, the scheduler,
        # the grid seed and the planned crash pattern it failed under —
        # and passing runs must not clutter the details.
        from repro.analysis.border_sweep import _solvable_point
        from repro.campaign import ScenarioOutcome, ScenarioSpec

        spec = ScenarioSpec(
            kind="theorem8-solvable", n=6, f=2, k=2,
            scheduler="random", seed=3, crashes=((5, 0), (6, 0)), max_steps=2_000,
        )
        failing = ScenarioOutcome(
            spec=spec, verdict="violation", agreement_ok=False,
            distinct_decisions=3, decided=4, steps=123,
            violations=("k-agreement violated: 3 distinct decision values for k=2",),
        )
        ok = ScenarioOutcome(
            spec=ScenarioSpec(kind="theorem8-solvable", n=6, f=2, k=2),
            verdict="ok", distinct_decisions=1, decided=6, steps=50,
        )
        observed, agrees, details = _solvable_point([ok, failing])
        assert observed == "violation observed"
        assert not agrees
        (detail,) = details  # only the failing run is listed
        assert "agreement violated" in detail
        assert "random/s3" in detail
        assert "p5@0" in detail and "p6@0" in detail
        assert "n=6,f=2,k=2" in detail

    def test_error_outcome_on_the_solvable_side_is_a_disagreement(self):
        from repro.analysis.border_sweep import _solvable_point
        from repro.campaign import ScenarioOutcome, ScenarioSpec

        spec = ScenarioSpec(kind="theorem8-solvable", n=5, f=1, k=2)
        ok = ScenarioOutcome(spec=spec, verdict="ok", distinct_decisions=1, decided=5)
        error = ScenarioOutcome.from_error(spec, RuntimeError("executor broke"))
        observed, agrees, details = _solvable_point([ok, error])
        assert observed == "execution error"
        assert not agrees
        assert any("executor broke" in detail for detail in details)

    def test_error_outcome_on_the_impossible_side_is_a_disagreement(self):
        # A crashed execution is evidence of nothing: it must never be
        # reported as the violation the paper predicts.
        from repro.analysis.border_sweep import _impossible_point
        from repro.campaign import ScenarioOutcome, ScenarioSpec

        spec = ScenarioSpec(kind="theorem8-impossible", n=6, f=4, k=2,
                            scheduler="partitioning")
        error = ScenarioOutcome.from_error(spec, RuntimeError("executor broke"))
        observed, agrees, details = _impossible_point([error])
        assert observed == "execution error"
        assert not agrees
        assert any("executor broke" in detail for detail in details)

    def test_missing_point_fails_loudly(self, monkeypatch):
        # If the campaign never executes a point the sweep must disagree
        # on it rather than vacuously report agreement.
        import repro.analysis.border_sweep as border_sweep

        monkeypatch.setattr(
            border_sweep, "theorem8_specs", lambda *args, **kwargs: ()
        )
        points = border_sweep.sweep_theorem8([4], seeds=(1,), max_steps=1_000)
        assert points
        assert all(not p.agrees for p in points)
        assert all(p.observed == "no scenarios executed" for p in points)


# -- regression against the pre-campaign implementation ----------------------


def _legacy_initial_crash_patterns(n: int, f: int, seeds: Sequence[int]) -> List[frozenset]:
    processes = tuple(range(1, n + 1))
    patterns = [frozenset(), frozenset(processes[-f:]) if f else frozenset(),
                frozenset(processes[:f]) if f else frozenset()]
    for seed in seeds:
        rng = random.Random(seed)
        patterns.append(frozenset(rng.sample(processes, f)) if f else frozenset())
    unique: List[frozenset] = []
    for pattern in patterns:
        if pattern not in unique:
            unique.append(pattern)
    return unique


def _legacy_observe_solvable(n, f, k, *, seeds, max_steps):
    """The pre-refactor observe_solvable, frozen for regression testing."""
    algorithm = KSetInitialCrash(n, f)
    model = initial_crash_model(n, f)
    proposals = {pid: pid for pid in model.processes}
    problem = KSetAgreementProblem(k)
    reports = []
    for dead in _legacy_initial_crash_patterns(n, f, seeds):
        pattern = FailurePattern.initially_dead(model.processes, dead)
        schedules = [RoundRobinScheduler()] + [RandomScheduler(seed) for seed in seeds]
        for adversary in schedules:
            run = execute(
                algorithm, model, proposals,
                adversary=adversary, failure_pattern=pattern,
                settings=ExecutionSettings(max_steps=max_steps),
            )
            reports.append(problem.evaluate(run, proposals=proposals))
    return all(report.all_ok for report in reports), reports


def _legacy_observe_impossible(n, f, k, *, max_steps):
    """The pre-refactor observe_impossible, frozen for regression testing."""
    group_size = n - f
    groups = [
        frozenset(range(i * group_size + 1, (i + 1) * group_size + 1))
        for i in range(k + 1)
    ]
    covered = frozenset().union(*groups)
    model = initial_crash_model(n, f)
    leftover = frozenset(model.processes) - covered
    pattern = FailurePattern.initially_dead(model.processes, leftover)
    run = execute(
        KSetInitialCrash(n, f), model, {pid: pid for pid in model.processes},
        adversary=PartitioningAdversary(groups), failure_pattern=pattern,
        settings=ExecutionSettings(max_steps=max_steps),
    )
    report = KSetAgreementProblem(k).evaluate(run)
    return (not report.agreement_ok or not report.termination_ok), report


def _legacy_sweep(n_values, *, seeds, max_steps) -> List[Tuple[int, int, int, Verdict, bool]]:
    """The pre-refactor sweep loop, reduced to its comparable signature."""
    points = []
    for n in n_values:
        for f in range(1, n):
            for k in range(1, n):
                verdict = theorem8_verdict(n, f, k)
                if verdict.is_solvable:
                    agrees, _ = _legacy_observe_solvable(n, f, k, seeds=seeds, max_steps=max_steps)
                else:
                    agrees, _ = _legacy_observe_impossible(n, f, k, max_steps=max_steps)
                points.append((n, f, k, verdict.verdict, agrees))
    return points


PINNED_GRID = [4, 5]
PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}


class TestCampaignRegression:
    def test_sweep_agrees_with_the_prerefactor_implementation(self):
        """Point-for-point agreement with the frozen legacy sweep."""
        legacy = _legacy_sweep(PINNED_GRID, **PINNED_KWARGS)
        current = sweep_theorem8(PINNED_GRID, **PINNED_KWARGS)
        assert [(p.n, p.f, p.k, p.predicted, p.agrees) for p in current] == legacy

    def test_serial_and_parallel_backends_produce_identical_points(self):
        serial = sweep_theorem8(PINNED_GRID, **PINNED_KWARGS)
        parallel = sweep_theorem8(
            PINNED_GRID,
            runner=CampaignRunner(backend="process", workers=2),
            **PINNED_KWARGS,
        )
        assert parallel == serial

    def test_observe_helpers_match_legacy_verdicts(self):
        for (n, f, k) in [(5, 2, 2), (5, 2, 1), (6, 3, 2)]:
            legacy_ok, _ = _legacy_observe_solvable(n, f, k, seeds=(1,), max_steps=4_000)
            current_ok, _ = observe_solvable(n, f, k, seeds=(1,), max_steps=4_000)
            assert current_ok == legacy_ok
        for (n, f, k) in [(6, 4, 2), (7, 5, 2)]:
            legacy_violated, _ = _legacy_observe_impossible(n, f, k, max_steps=4_000)
            current_violated, _ = observe_impossible(n, f, k, max_steps=4_000)
            assert current_violated == legacy_violated
