"""The benchmark's ledger counts self time once and adds up to wall time."""

from __future__ import annotations

import pytest

import repro.campaign.scenarios as campaign_scenarios
import repro.simulation.executor as executor
from repro.campaign import (
    CampaignRunner,
    ScenarioOutcome,
    corollary13_specs,
    theorem8_specs,
)

from bench import Workload, run_pass
from ledger import Ledger


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Journal:
    """Calls one public method from another, like ``CampaignJournal``."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def scenario(self) -> None:
        self.clock.advance(2.0)

    def scenario_event(self) -> None:
        self.clock.advance(1.0)
        self.scenario()


class Scenario:
    """A scenario that runs and evaluates inside one public call."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    @classmethod
    def build(cls, clock: FakeClock) -> "Scenario":
        clock.advance(0.125)
        return cls(clock)

    def execute(self) -> None:
        self.clock.advance(4.0)

    def evaluate(self) -> None:
        self.clock.advance(0.5)

    def violation_run(self) -> None:
        self.clock.advance(0.25)
        self.execute()
        self.evaluate()


def test_nested_calls_count_self_time_once():
    clock = FakeClock()
    journal = Journal(clock)
    ledger = Ledger(clock=clock)
    targets = [
        (journal, "scenario", "journal"),
        (journal, "scenario_event", "journal"),
        (Scenario, "build", "build"),
        (Scenario, "violation_run", "scenario"),
        (Scenario, "execute", "executor"),
        (Scenario, "evaluate", "evaluate"),
    ]
    with ledger.installed(targets):
        start = clock()
        journal.scenario_event()
        Scenario.build(clock).violation_run()
        clock.advance(1.0)  # outside every wrapped layer
        wall = clock() - start

    assert ledger.self_seconds == {
        "journal": 3.0, "build": 0.125, "scenario": 0.25,
        "executor": 4.0, "evaluate": 0.5,
    }
    assert ledger.calls["journal"] == 2
    layers = ledger.account(wall)
    assert layers["unaccounted"] == 1.0
    assert sum(layers.values()) == wall


def test_installed_restores_every_target():
    clock = FakeClock()
    journal = Journal(clock)
    originals = (Scenario.__dict__["build"], Scenario.__dict__["execute"])
    with Ledger(clock=clock).installed([
        (journal, "scenario", "journal"),
        (Scenario, "build", "build"),
        (Scenario, "execute", "executor"),
    ]):
        assert "scenario" in vars(journal)
    assert "scenario" not in vars(journal)
    assert (Scenario.__dict__["build"], Scenario.__dict__["execute"]) == originals


def test_traced_campaign_adds_up_to_wall_time(tmp_path):
    workload = Workload(
        lambda seed: (theorem8_specs([5], seeds=(seed, seed + 1))
                      + corollary13_specs([4])),
        CampaignRunner())
    run = run_pass(workload, 1, tmp_path / "pass", trace=True)

    assert run.wrong == set()
    layers = run.ledger
    assert sum(layers.values()) == pytest.approx(run.wall_s, abs=1e-9)
    assert all(seconds >= 0 for seconds in layers.values())
    assert max(layers, key=layers.get) == "executor.execute_s"
    # Every scenario runs, evaluates and builds its outcome exactly once;
    # each position gets one journal record plus start and finish.
    assert run.calls["executor.execute_s"] == run.positions
    assert run.calls["ksetagreement.evaluate_s"] == run.positions
    assert run.calls["outcome.from_report_s"] == run.positions
    assert run.counters["journal.records"] == run.positions + 2
    # The wrappers are gone once the pass is over.
    assert campaign_scenarios.execute is executor.execute
    assert not hasattr(CampaignRunner.run, "__wrapped__")
    assert not hasattr(ScenarioOutcome.from_report, "__wrapped__")
