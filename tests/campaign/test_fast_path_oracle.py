"""The bitmask fast path against its oracle, the scalar executor.

``theorem8-solvable`` runs every ``"verdict-only"`` spec on the bitmask
loop of :mod:`repro.simulation.bitmask_kernel`;
``execute_theorem8_solvable`` always runs the scalar executor.  The
contract is that the kind's outcome equals the outcome built from the
scalar run — decisions, flags, counters and error strings alike:

* a hypothesis property draws random scenarios, including inputs the
  scenario rejects (late crashes, more than ``f`` crashes, scheduler
  parameters out of range, a scheduler the kind cannot build) and step
  budgets small enough to truncate;
* a pinned grid compares the two engines' runs field for field and
  whole campaigns on every backend, with and without the store.

CI reruns the property with many more examples under the
``repro-thorough`` profile (``--hypothesis-profile=repro-thorough``).
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.campaign import (
    CampaignRunner,
    ScenarioOutcome,
    ScenarioSpec,
    run_scenario,
    theorem8_specs,
)
from repro.campaign.scenarios import (
    build_adversary,
    build_settings,
    execute_theorem8_solvable,
)
from repro.campaign.spec import normalize_crashes, normalize_params
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern
from repro.models.initial_crash import initial_crash_model
from repro.simulation.adversary import PartitioningAdversary
from repro.simulation.bitmask_kernel import execute_bitmask
from repro.simulation.run import Run
from repro.telemetry.spans import Tracer, activated

PINNED_GRID = [4, 5]
PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}


def pinned_specs(recording: str = "verdict-only"):
    """Both sides of the border: the impossible side (partitioning
    scheduler) always runs the scalar executor, so a verdict-only
    campaign over this grid mixes both engines."""
    return theorem8_specs(PINNED_GRID, recording=recording, **PINNED_KWARGS)


def oracle_outcome(spec: ScenarioSpec) -> ScenarioOutcome:
    """The outcome of ``spec`` with every execution on the scalar executor."""
    if spec.kind != "theorem8-solvable":
        return run_scenario(spec)  # no fast path for other kinds
    try:
        run, report = execute_theorem8_solvable(spec)
    except Exception as exc:  # noqa: BLE001 - the oracle of error outcomes too
        return ScenarioOutcome.from_error(spec, exc)
    return ScenarioOutcome.from_report(spec, report, run)


def bitmask_run(spec: ScenarioSpec) -> Run:
    """The fast path's run of ``spec``, built like the scenario kind does."""
    model = initial_crash_model(spec.n, spec.f)
    return execute_bitmask(
        KSetInitialCrash(spec.n, spec.f), model,
        {pid: pid for pid in model.processes},
        adversary=build_adversary(spec),
        failure_pattern=FailurePattern(model.processes, dict(spec.crashes)),
        settings=build_settings(spec),
    )


def executed_engines(spec: ScenarioSpec):
    """The ``engine`` attribute of every ``execute`` span ``spec`` opens."""
    tracer = Tracer(trace_id="engines")
    with activated(tracer):
        run_scenario(spec)
    return [s.attrs["engine"] for s in tracer.drain() if s.name == "execute"]


@st.composite
def fast_path_specs(draw):
    n = draw(st.integers(1, 12))
    f = draw(st.integers(0, n - 1))
    # k up to n + 1: k > n makes the property evaluation itself raise.
    k = draw(st.integers(1, n + 1))
    # Admissible initial crashes, or arbitrary schedules the initial-crash
    # model rejects (late crashes, more than f of them).
    crashes = draw(st.one_of(
        st.sets(st.integers(1, n), max_size=f).map(sorted),
        st.dictionaries(st.integers(1, n), st.integers(0, 40), max_size=n),
    ))
    params = {}
    if draw(st.booleans()):
        params["delivery_bias"] = draw(st.floats(-0.5, 1.5, allow_nan=False))
    if draw(st.booleans()):
        params["max_delay"] = draw(st.integers(-3, 30))
    return ScenarioSpec(
        kind="theorem8-solvable", n=n, f=f, k=k,
        # "partitioning" is a scheduler this kind cannot build.
        scheduler=draw(st.sampled_from(("round-robin", "random",
                                        "partitioning"))),
        seed=draw(st.integers(0, 2 ** 16)),
        crashes=normalize_crashes(crashes, n),
        # small budgets hit truncation
        max_steps=draw(st.integers(1, 600)),
        params=normalize_params(params),
        recording="verdict-only",
    )


class TestDifferentialOracle:
    @given(fast_path_specs())
    def test_fast_path_outcome_equals_scalar_oracle(self, spec):
        assert run_scenario(spec) == oracle_outcome(spec)

    @pytest.mark.parametrize("params,message", [
        ({"delivery_bias": 2.0}, "ValueError: delivery_bias must be within [0, 1]"),
        ({"max_delay": -1}, "ValueError: max_delay must be >= 0"),
    ])
    def test_scheduler_parameter_errors_are_the_schedulers_own(
        self, params, message
    ):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            scheduler="random", seed=2,
                            params=normalize_params(params),
                            recording="verdict-only", max_steps=4_000)
        outcome = run_scenario(spec)
        assert outcome.verdict == "error"
        assert outcome.error == message
        assert outcome == oracle_outcome(spec)

    def test_inadmissible_crash_schedule_matches_the_oracle(self):
        spec = ScenarioSpec(kind="theorem8-solvable", n=5, f=1, k=1,
                            crashes=((1, 0), (2, 3)), recording="verdict-only")
        outcome = run_scenario(spec)
        assert outcome.error.startswith("AdmissibilityError")
        assert outcome == oracle_outcome(spec)


class TestEngineSelection:
    @pytest.mark.parametrize("scheduler,seed", [("round-robin", 0), ("random", 3)])
    def test_verdict_only_specs_take_the_bitmask_path(self, scheduler, seed):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            scheduler=scheduler, seed=seed,
                            recording="verdict-only")
        assert executed_engines(spec) == ["bitmask"]

    @pytest.mark.parametrize("recording", ["full", "decisions-only"])
    def test_other_recordings_run_the_scalar_executor(self, recording):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            recording=recording)
        assert executed_engines(spec) == ["scalar"]

    def test_other_kinds_run_the_scalar_executor(self):
        spec = ScenarioSpec(kind="theorem8-impossible", n=4, f=2, k=1,
                            scheduler="partitioning", recording="verdict-only")
        assert executed_engines(spec) == ["scalar"]

    @pytest.mark.parametrize("max_steps", [10_000, 5])  # completes / truncates
    def test_bitmask_span_carries_the_scalar_spans_attributes(self, max_steps):
        spec = ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2,
                            scheduler="random", seed=7, max_steps=max_steps,
                            recording="verdict-only")

        def execute_attrs(fn):
            tracer = Tracer(trace_id="counters")
            with activated(tracer):
                fn(spec)
            (execute,) = [s for s in tracer.drain() if s.name == "execute"]
            return dict(execute.attrs)

        fast = execute_attrs(run_scenario)
        scalar = execute_attrs(execute_theorem8_solvable)
        assert fast.pop("engine") == "bitmask"
        assert scalar.pop("engine") == "scalar"
        assert fast == scalar
        assert fast["truncated"] is (max_steps == 5)

    def test_loop_rejects_inputs_it_cannot_replay(self):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            recording="full")
        with pytest.raises(ConfigurationError):
            bitmask_run(spec)
        model = initial_crash_model(4, 1)
        with pytest.raises(ConfigurationError):
            execute_bitmask(
                KSetInitialCrash(4, 1), model, {p: p for p in model.processes},
                adversary=PartitioningAdversary([frozenset({1, 2, 3})]),
                failure_pattern=FailurePattern(model.processes, {}),
                settings=build_settings(ScenarioSpec(
                    kind="theorem8-solvable", n=4, f=1, k=1,
                    recording="verdict-only")),
            )


class TestPinnedGrid:
    """Field-for-field and campaign-level equality on a pinned grid."""

    @pytest.mark.parametrize("scheduler", ["round-robin", "random"])
    def test_runs_equal_the_scalar_executor_field_for_field(self, scheduler):
        specs = [spec for spec in pinned_specs()
                 if spec.kind == "theorem8-solvable"
                 and spec.scheduler == scheduler]
        assert specs
        for spec in specs:
            fast = bitmask_run(spec)
            scalar, _report = execute_theorem8_solvable(spec)
            for field in fields(Run):
                if field.name == "fd_history":
                    assert list(fast.fd_history) == list(scalar.fd_history)
                else:
                    assert getattr(fast, field.name) == getattr(
                        scalar, field.name), (spec.label(), field.name)

    @pytest.fixture(scope="class")
    def oracle(self):
        return tuple(oracle_outcome(spec) for spec in pinned_specs())

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("chunked", None), ("process", 2),
    ])
    def test_campaign_equals_the_oracle_on_every_backend(
        self, oracle, backend, workers
    ):
        result = CampaignRunner(backend=backend, workers=workers).run(
            pinned_specs())
        assert result.outcomes == oracle  # outcome-for-outcome, in spec order

    def test_each_scenario_is_timed_on_its_own(self):
        from repro.store import CollectingProgressReporter

        reporter = CollectingProgressReporter()
        delivered = []
        result = CampaignRunner().run(
            pinned_specs(), progress=reporter,
            on_outcome=lambda outcome, seconds: delivered.append(seconds))
        seconds = list(result.scenario_seconds)
        assert len(seconds) == len(result.outcomes)
        assert delivered == seconds
        assert [event.seconds for event in reporter.events] == seconds
        assert len(set(seconds)) > 1  # not one shared mean per group

    def test_caching_runner_composes(self, oracle, tmp_path):
        from repro.store import CachingRunner, open_store

        specs = pinned_specs()
        with open_store(tmp_path / "fast.sqlite") as store:
            cold_runner = CachingRunner(store)
            cold = cold_runner.run(specs)
            assert cold_runner.last_stats.cached == 0
            assert cold.outcomes == oracle
            warm_runner = CachingRunner(store)
            warm = warm_runner.run(specs)
            assert warm_runner.last_stats.executed == 0
            assert warm == cold
