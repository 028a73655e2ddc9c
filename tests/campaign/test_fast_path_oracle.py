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
  whole campaigns on every backend, with and without the store;
* the grids the benchmarks run (n=16 and n=24) are compared outcome for
  outcome, because the loop packs messages into 2n-bit masks and
  memoises closures per run, so some bugs show only at wider n;
* the scheduler's RNG must end in the same state on both engines, so a
  CPython change to ``Random.choice`` fails a test by name;
* the loop's decision rule, :func:`lowest_source`, is held to the scalar
  protocol's :func:`decide_from_reports` by a property over random
  predecessor graphs.

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
    theorem8_solvable_grid,
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
from repro.graphs.knowledge_graph import decide_from_reports
from repro.models.initial_crash import initial_crash_model
from repro.simulation.adversary import PartitioningAdversary
from repro.simulation.bitmask_kernel import execute_bitmask, lowest_source
from repro.simulation.executor import execute
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


def engine_run(engine, spec: ScenarioSpec):
    """``engine``'s run of ``spec``, built like the scenario kind does, and
    the freshly built scheduler it consumed."""
    model = initial_crash_model(spec.n, spec.f)
    adversary = build_adversary(spec)
    run = engine(
        KSetInitialCrash(spec.n, spec.f), model,
        {pid: pid for pid in model.processes},
        adversary=adversary,
        failure_pattern=FailurePattern(model.processes, dict(spec.crashes)),
        settings=build_settings(spec),
    )
    return run, adversary


def bitmask_run(spec: ScenarioSpec) -> Run:
    """The fast path's run of ``spec``."""
    return engine_run(execute_bitmask, spec)[0]


def one_spec_per_point(specs, stride: int = 1):
    """One spec per (f, k, scheduler) point of every ``stride``-th (f, k)
    pair, in grid order, so both schedulers stay covered.  The i-th chosen
    pair contributes the (i mod size)-th spec of each of its points, so
    the selection rotates through the crash patterns instead of always
    taking the crash-free one."""
    pairs = {}
    for spec in specs:
        pairs.setdefault((spec.f, spec.k), {}).setdefault(
            spec.scheduler, []).append(spec)
    return [point[index % len(point)]
            for index, pair in enumerate(list(pairs.values())[::stride])
            for point in pair.values()]


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
        ("serial", None), ("process", 2),
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
        result = CampaignRunner().run(pinned_specs(), on_settle=reporter)
        seconds = list(result.scenario_seconds)
        assert len(seconds) == len(result.outcomes)
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


class TestBenchmarkSizes:
    """The oracle at the sizes the benchmarks run: E16's t8-cold grid
    (n=16) and the n=24 grid, beyond the property's n <= 12."""

    @pytest.mark.parametrize("n,stride,expected", [
        (16, 1, 382),  # every (f, k, scheduler) point
        (24, 8, 118),  # the points of every 8th (f, k) pair
    ])
    def test_outcomes_equal_the_oracle(self, n, stride, expected):
        grid = theorem8_solvable_grid([n], seeds=(1,), recording="verdict-only")
        specs = one_spec_per_point(grid.compile(), stride)
        assert len(specs) == expected
        assert {spec.scheduler for spec in specs} == {"round-robin", "random"}
        assert any(spec.crashes for spec in specs)
        for spec in specs:
            assert run_scenario(spec) == oracle_outcome(spec), spec.label()


def rng_stream_specs():
    """Random-scheduler specs with non-default ``delivery_bias`` and
    ``max_delay``, and budgets that truncate as well as ones that
    complete."""
    specs = []
    for n in (4, 5, 7, 8, 12, 16):
        for f in (0, n // 2, n - 1):
            for bias, max_delay in ((0.1, 3), (0.9, 0), (0.35, 40)):
                for max_steps in (7, 60, 20_000):
                    specs.append(ScenarioSpec(
                        kind="theorem8-solvable", n=n, f=f,
                        k=n // (n - f), scheduler="random", seed=len(specs),
                        crashes=normalize_crashes(range(1, f // 2 + 1), n),
                        max_steps=max_steps,
                        params=normalize_params(
                            {"delivery_bias": bias, "max_delay": max_delay}),
                        recording="verdict-only"))
    return specs


class TestRngStream:
    def test_both_engines_leave_the_scheduler_rng_in_the_same_state(self):
        """Equal outcomes are not enough: the fast path inlines the
        rejection loop of ``Random.choice``, so it must consume the
        scheduler's stream draw for draw on every supported CPython."""
        specs = rng_stream_specs()
        truncated = 0
        for spec in specs:
            fast, fast_scheduler = engine_run(execute_bitmask, spec)
            scalar, scalar_scheduler = engine_run(execute, spec)
            assert (fast_scheduler._rng.getstate()
                    == scalar_scheduler._rng.getstate()), spec.label()
            assert fast.truncated == scalar.truncated
            truncated += fast.truncated
        assert 0 < truncated < len(specs)


def ancestor_masks(preds):
    """Every node's ancestor mask, the node included, by plain search."""
    masks = []
    for node in range(len(preds)):
        mask, stack = 0, [node]
        while stack:
            current = stack.pop()
            if not mask >> current & 1:
                mask |= 1 << current
                stack.extend(j for j in range(len(preds))
                             if preds[current] >> j & 1)
        masks.append(mask)
    return masks


def reference_decision(owner, preds, values):
    """``decide_from_reports`` on the same graph, with 1-based pids."""
    n = len(preds)
    heard_from = {j + 1: tuple(p + 1 for p in range(n) if preds[j] >> p & 1)
                  for j in range(n)}
    return decide_from_reports(
        owner + 1, heard_from, {j + 1: values[j] for j in range(n)})


def loop_decision(owner, preds, values):
    """The fast path's decision on the owner's complete closure."""
    ancestors = ancestor_masks(preds)
    return values[lowest_source(ancestors[owner], ancestors)]


@st.composite
def predecessor_graphs(draw):
    """Up to 64 nodes, every one with a predecessor mask that excludes
    itself; sparse graphs have several source components, dense ones few."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        preds = [sum(1 << p for p in draw(st.sets(st.integers(0, n - 1),
                                                  max_size=3)))
                 for _ in range(n)]
    else:
        preds = draw(st.lists(st.integers(0, (1 << n) - 1),
                              min_size=n, max_size=n))
    preds = [mask & ~(1 << node) for node, mask in enumerate(preds)]
    return preds, draw(st.integers(0, n - 1))


class TestDecisionRule:
    """``lowest_source`` against the scalar protocol's rule."""

    @given(predecessor_graphs())
    def test_equals_decide_from_reports(self, graph):
        preds, owner = graph
        values = [f"v{node}" for node in range(len(preds))]  # all distinct
        assert (loop_decision(owner, preds, values)
                == reference_decision(owner, preds, values))

    @pytest.mark.parametrize("preds,owner,expected", [
        # p3 heard from nobody: its closure is itself alone
        ([0b100, 0b001, 0b000], 2, 2),
        # sources {p2, p5} and {p3, p4}; the owner p1 is in neither
        ([0b11000, 0b10000, 0b01000, 0b00100, 0b00010], 0, 1),
        # one cycle p1 -> p2 -> ... -> p5 -> p1 covers the whole closure
        ([0b10000, 0b00001, 0b00010, 0b00100, 0b01000], 3, 0),
    ], ids=["closure-is-the-owner", "lower-source-wins", "one-cycle"])
    def test_pinned_graphs(self, preds, owner, expected):
        values = [f"v{node}" for node in range(len(preds))]
        assert loop_decision(owner, preds, values) == values[expected]
        assert reference_decision(owner, preds, values) == values[expected]
