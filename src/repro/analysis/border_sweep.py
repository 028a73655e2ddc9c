"""Sweeping the Theorem 8 border: prediction vs. simulation.

For every parameter point ``(n, f, k)`` the closed form of Theorem 8 says
whether k-set agreement with up to ``f`` initially dead processes is
solvable (``k * n > (k + 1) * f``) or not.  This module checks both sides
empirically with the paper's own Section VI algorithm:

* on the solvable side, the algorithm is executed under a collection of
  schedules (fair, random, worst-case initial-crash sets) and all three
  properties must hold in every run;
* on the impossible side, the partitioning construction of Section VI is
  executed — ``k + 1`` disjoint groups of size ``n - f`` run without ever
  hearing from each other (any leftover processes are initially dead) —
  and must produce more than ``k`` distinct decision values.

The executions themselves run on the campaign engine
(:mod:`repro.campaign`): the grid of scenarios is compiled once and
handed to a :class:`~repro.campaign.runner.CampaignRunner`, so the same
sweep scales from a serial smoke test to a multiprocess run without
touching this module — and, because campaign outcomes are deterministic,
every backend produces the identical list of sweep points.

The sweep reports, for every point, the prediction, the observation,
whether they agree, and — when they do not — *which* property failed
under *which* schedule, seed and crash pattern (``SweepPoint.details``);
benchmark E5 asserts full agreement over the swept grid, which is the
reproduced "figure" for Theorem 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.campaign.runner import CampaignRunner
from repro.campaign.scenarios import (
    execute_theorem8_impossible,
    execute_theorem8_solvable,
    theorem8_point_specs,
    theorem8_specs,
)
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.core.borders import theorem8_verdict
from repro.core.ksetagreement import PropertyReport
from repro.types import Verdict

__all__ = ["SweepPoint", "observe_solvable", "observe_impossible", "sweep_theorem8"]


@dataclass(frozen=True)
class SweepPoint:
    """One parameter point of the Theorem 8 sweep.

    ``details`` carries one line per noteworthy run: on a disagreeing
    point, every failing run with the violated property and the schedule,
    seed and crash pattern it failed under; on an agreeing point, a
    one-line summary of the evidence.
    """

    n: int
    f: int
    k: int
    predicted: Verdict
    observed: str
    agrees: bool
    details: Tuple[str, ...] = ()


def observe_solvable(
    n: int,
    f: int,
    k: int,
    *,
    seeds: Sequence[int] = (1, 2),
    max_steps: int = 20_000,
) -> Tuple[bool, List[PropertyReport]]:
    """Exercise the Section VI algorithm on the solvable side.

    Returns ``(all_ok, reports)`` where ``all_ok`` means every executed
    schedule satisfied k-agreement, validity and termination.  The
    schedules are exactly the scenarios the campaign grid compiles for
    this point.
    """
    reports: List[PropertyReport] = []
    for spec in theorem8_point_specs(n, f, k, seeds=seeds, max_steps=max_steps):
        _run, report = execute_theorem8_solvable(spec)
        reports.append(report)
    return all(report.all_ok for report in reports), reports


def observe_impossible(
    n: int,
    f: int,
    k: int,
    *,
    max_steps: int = 20_000,
) -> Tuple[bool, PropertyReport]:
    """Run the Section VI partitioning construction on the impossible side.

    Builds ``k + 1`` disjoint groups of size ``n - f`` (possible exactly
    when ``(k + 1) * (n - f) <= n``, i.e. on the impossible side of the
    border), declares any leftover processes initially dead, and executes
    the Section VI algorithm under the partitioning adversary.  Returns
    ``(violation_found, report)``.
    """
    spec = ScenarioSpec(
        kind="theorem8-impossible", n=n, f=f, k=k,
        scheduler="partitioning", max_steps=max_steps,
    )
    _run, report = execute_theorem8_impossible(spec)
    violation_found = not report.agreement_ok or not report.termination_ok
    return violation_found, report


def _solvable_point(outcomes: Sequence[ScenarioOutcome]) -> Tuple[str, bool, Tuple[str, ...]]:
    errors = tuple(o for o in outcomes if o.verdict == "error")
    if errors:
        # An execution failure is evidence of nothing: report it as an
        # error, never as an observed property violation.
        return "execution error", False, tuple(o.describe() for o in errors)
    ok = all(outcome.all_ok for outcome in outcomes)
    if ok:
        details = (f"{len(outcomes)} runs, all properties hold",)
    else:
        details = tuple(o.describe() for o in outcomes if not o.all_ok)
    observed = "all properties hold" if ok else "violation observed"
    return observed, ok, details


def _impossible_point(outcomes: Sequence[ScenarioOutcome]) -> Tuple[str, bool, Tuple[str, ...]]:
    (outcome,) = outcomes
    if outcome.verdict == "error":
        # An execution failure is evidence of nothing: never report it as
        # the expected violation, surface it as a disagreement instead.
        return "execution error", False, (outcome.describe(),)
    violated = not outcome.agreement_ok or not outcome.termination_ok
    observed = "partitioning forces a violation" if violated else "no violation found"
    details = outcome.violations if outcome.violations else (outcome.describe(),)
    return observed, violated, details


def sweep_theorem8(
    n_values: Iterable[int],
    *,
    seeds: Sequence[int] = (1, 2),
    max_steps: int = 20_000,
    runner: Optional[CampaignRunner] = None,
    store=None,
    progress=None,
    recording: str = "verdict-only",
) -> List[SweepPoint]:
    """Sweep the full (n, f, k) grid and compare prediction with observation.

    ``runner`` selects the campaign backend (default: serial); the
    resulting points are identical for every backend.  Passing a
    ``store`` (:class:`repro.store.ResultStore`) makes the sweep
    persistent: already-stored scenarios are served from cache, fresh
    outcomes are persisted incrementally, and a killed sweep resumes
    where it stopped — producing the identical points either way.
    ``progress`` (:class:`repro.store.ProgressReporter`) streams
    pool-wide per-scenario events while the campaign runs.

    ``recording`` is every spec's
    :attr:`~repro.campaign.spec.ScenarioSpec.recording`.  The sweep only
    consumes verdicts, so the default, ``"verdict-only"``, which runs the
    solvable side on the bitmask fast path, returns the **identical**
    list of points (details included) as ``"full"``, which runs every
    scenario on the scalar executor.  The name is part of every spec's
    store fingerprint: a store filled by a ``"full"`` sweep — the default
    before it became ``"verdict-only"`` — misses once for a default
    sweep, which then stores its outcomes under the verdict-only
    fingerprints.
    """
    n_values = list(n_values)
    specs = theorem8_specs(
        n_values, seeds=seeds, max_steps=max_steps, recording=recording)
    campaign_runner = runner if runner is not None else CampaignRunner()
    if store is not None or progress is not None:
        from repro.store import CachingRunner, MemoryResultStore

        campaign_runner = CachingRunner(
            store if store is not None else MemoryResultStore(),
            campaign_runner,
            progress=progress,
        )
    result = campaign_runner.run(specs)
    grouped = result.by_point()

    points: List[SweepPoint] = []
    for n in n_values:
        for f in range(1, n):
            for k in range(1, n):
                verdict = theorem8_verdict(n, f, k)
                outcomes = grouped.get((n, f, k), ())
                if not outcomes:
                    # A point the campaign never executed is a sweep bug,
                    # not agreement — fail loudly rather than vacuously.
                    observed, agrees = "no scenarios executed", False
                    details = ("the campaign produced no outcomes for this point",)
                elif verdict.is_solvable:
                    observed, agrees, details = _solvable_point(outcomes)
                else:
                    observed, agrees, details = _impossible_point(outcomes)
                points.append(
                    SweepPoint(
                        n=n,
                        f=f,
                        k=k,
                        predicted=verdict.verdict,
                        observed=observed,
                        agrees=agrees,
                        details=details,
                    )
                )
    return points
