"""The scenario-campaign engine.

Sweeps and workloads describe *what* to run — a declarative
:class:`~repro.campaign.grid.ScenarioGrid` over parameter points,
schedulers, seeds and crash schedules, compiled into flat
:class:`~repro.campaign.spec.ScenarioSpec` lists — and a
:class:`~repro.campaign.runner.CampaignRunner` decides *how*: serially,
in chunks, or across a pool of worker processes.  Determinism is the
core contract: every scenario derives its RNG stream from its own
identity, so all backends produce identical
:class:`~repro.campaign.runner.CampaignResult`\\ s.

Typical use::

    from repro.campaign import CampaignRunner, theorem8_specs

    specs = theorem8_specs([4, 5, 6], seeds=(1,), max_steps=8_000)
    result = CampaignRunner(backend="process", workers=4).run(specs)
    assert result.verdict_counts()["error"] == 0
"""

from repro.campaign.spec import (
    DETERMINISTIC_SCHEDULERS,
    ScenarioOutcome,
    ScenarioSpec,
    normalize_crashes,
    normalize_params,
)
from repro.campaign.grid import ScenarioGrid
from repro.campaign.scenarios import (
    SharedExecutionKind,
    build_adversary,
    corollary13_specs,
    get_kind,
    initial_crash_patterns,
    registered_kinds,
    scenario_kind,
    theorem8_impossible_grid,
    theorem8_point_specs,
    theorem8_solvable_grid,
    theorem8_specs,
)
from repro.campaign.codec import (
    outcome_from_dict,
    outcome_from_row,
    outcome_to_dict,
    outcome_to_row,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.runner import (
    CampaignResult,
    CampaignRunner,
    ScenarioEvent,
    run_scenario,
)

__all__ = [
    "DETERMINISTIC_SCHEDULERS",
    "ScenarioSpec",
    "ScenarioOutcome",
    "ScenarioGrid",
    "CampaignRunner",
    "CampaignResult",
    "ScenarioEvent",
    "run_scenario",
    "spec_to_dict",
    "spec_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "outcome_to_row",
    "outcome_from_row",
    "scenario_kind",
    "SharedExecutionKind",
    "get_kind",
    "registered_kinds",
    "build_adversary",
    "initial_crash_patterns",
    "theorem8_solvable_grid",
    "theorem8_impossible_grid",
    "theorem8_specs",
    "theorem8_point_specs",
    "corollary13_specs",
    "normalize_crashes",
    "normalize_params",
]
