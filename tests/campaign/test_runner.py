"""Campaign execution: backend equivalence, determinism, aggregation."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.campaign import (
    CampaignResult,
    CampaignRunner,
    ScenarioGrid,
    ScenarioOutcome,
    ScenarioSpec,
    run_scenario,
    theorem8_specs,
)
from repro.exceptions import ConfigurationError

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)


class TestBackendEquivalence:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return CampaignRunner(backend="serial").run(SPECS)

    def test_process_equals_serial(self, serial_result):
        parallel = CampaignRunner(backend="process", workers=2, chunk_size=5).run(SPECS)
        assert parallel == serial_result
        assert [o.spec for o in parallel.outcomes] == [o.spec for o in serial_result.outcomes]

    def test_serial_rerun_is_identical(self, serial_result):
        assert CampaignRunner(backend="serial").run(SPECS) == serial_result

    def test_equality_ignores_timing_metadata(self, serial_result):
        rerun = CampaignRunner(backend="process", workers=2, chunk_size=2).run(SPECS)
        assert rerun == serial_result
        assert rerun.backend != serial_result.backend  # metadata still differs

    def test_grid_accepted_directly(self, serial_result):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",), n_values=(4,), f_values=(1,), k_values=(1,),
        )
        result = CampaignRunner().run(grid)
        assert len(result.outcomes) == 1
        assert result.outcomes[0].all_ok


class TestDeterministicSeeding:
    def test_derived_seed_is_stable_and_identity_based(self):
        spec = SPECS[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.derived_seed() == spec.derived_seed()
        other = ScenarioSpec(
            kind=spec.kind, n=spec.n, f=spec.f, k=spec.k,
            scheduler=spec.scheduler, seed=spec.seed + 1,
            crashes=spec.crashes, max_steps=spec.max_steps, params=spec.params,
        )
        assert other.derived_seed() != spec.derived_seed()

    def test_distinct_scenarios_get_distinct_streams(self):
        seeds = [spec.derived_seed() for spec in SPECS]
        assert len(set(seeds)) == len(seeds)

    def test_outcomes_do_not_depend_on_execution_order(self):
        forward = CampaignRunner().run(SPECS)
        backward = CampaignRunner().run(tuple(reversed(SPECS)))
        by_spec_fwd = {o.spec: o for o in forward.outcomes}
        by_spec_bwd = {o.spec: o for o in backward.outcomes}
        assert by_spec_fwd == by_spec_bwd


class TestAggregation:
    @pytest.fixture(scope="class")
    def result(self):
        return CampaignRunner().run(SPECS)

    def test_verdict_counts_add_up(self, result):
        counts = result.verdict_counts()
        assert sum(counts.values()) == len(result.outcomes)
        assert counts["error"] == 0
        # n=4 has exactly 4 impossible points, each a deliberate violation
        assert counts["violation"] == 4

    def test_property_rollup(self, result):
        rollup = result.property_rollup()
        assert rollup["agreement_failures"] == 4
        assert rollup["validity_failures"] == 0
        assert rollup["termination_failures"] == 0

    def test_by_point_covers_the_grid(self, result):
        grouped = result.by_point()
        assert set(grouped) == {(4, f, k) for f in range(1, 4) for k in range(1, 4)}
        assert sum(len(v) for v in grouped.values()) == len(result.outcomes)

    def test_failures_are_the_impossible_side(self, result):
        failures = result.failures()
        assert len(failures) == 4
        assert all(o.spec.kind == "theorem8-impossible" for o in failures)
        assert all("agreement" in o.failed_properties() for o in failures)

    def test_wall_time_stats_shape(self, result):
        stats = result.wall_time_stats()
        assert stats["count"] == float(len(result.outcomes))
        assert 0 <= stats["min"] <= stats["median"] <= stats["max"]
        assert result.scenarios_per_second > 0

    def test_summary_is_json_friendly(self, result):
        import json

        assert json.loads(json.dumps(result.summary()))["scenarios"] == len(result.outcomes)


class TestResultJsonRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        return CampaignRunner(backend="process", workers=2, chunk_size=7).run(SPECS)

    def test_round_trip_compares_equal(self, result):
        restored = CampaignResult.from_json(result.to_json())
        assert restored == result
        assert [o.spec for o in restored.outcomes] == [o.spec for o in result.outcomes]

    def test_round_trip_restores_metadata(self, result):
        restored = CampaignResult.from_json(result.to_json(indent=2))
        # Metadata is excluded from equality, so pin it separately.
        assert restored.backend == result.backend
        assert restored.workers == result.workers
        assert restored.elapsed_seconds == result.elapsed_seconds
        assert restored.scenario_seconds == result.scenario_seconds

    def test_round_trip_preserves_derived_seeds_and_rollups(self, result):
        restored = CampaignResult.from_json(result.to_json())
        assert [o.spec.derived_seed() for o in restored.outcomes] == [
            o.spec.derived_seed() for o in result.outcomes
        ]
        assert restored.verdict_counts() == result.verdict_counts()
        assert restored.property_rollup() == result.property_rollup()

    def test_unknown_format_rejected(self, result):
        import json

        payload = json.loads(result.to_json())
        payload["format"] = 999
        with pytest.raises(ConfigurationError):
            CampaignResult.from_json(json.dumps(payload))

    def test_params_with_tuples_round_trip(self):
        spec = ScenarioSpec(
            kind="theorem8-solvable", n=4, f=1, k=1,
            params=(("window", (1, 2, 3)), ("label", "x"), ("ratio", 0.5)),
        )
        result = CampaignRunner().run([spec])
        restored = CampaignResult.from_json(result.to_json())
        assert restored == result
        assert restored.outcomes[0].spec.param("window") == (1, 2, 3)


class TestRunnerHooks:
    def test_on_outcome_streams_every_outcome_in_order(self):
        seen = []
        result = CampaignRunner().run(
            SPECS, on_settle=lambda e: seen.append(e.outcome))
        assert seen == list(result.outcomes)

    def test_process_backend_delivers_on_outcome_in_parent(self):
        import os

        pids = []
        result = CampaignRunner(backend="process", workers=2, chunk_size=5).run(
            SPECS, on_settle=lambda e: pids.append(os.getpid())
        )
        assert len(pids) == len(result.outcomes)
        assert set(pids) == {os.getpid()}  # persistence happens in the caller

    def test_should_skip_drops_scenarios_on_every_backend(self):
        drop = lambda spec: spec.scheduler == "random"  # noqa: E731
        kept = [s for s in SPECS if s.scheduler != "random"]
        for runner in (
            CampaignRunner(),
            CampaignRunner(backend="process", workers=2, chunk_size=3),
        ):
            result = runner.run(SPECS, should_skip=drop)
            assert [o.spec for o in result.outcomes] == kept

    def test_progress_events_cover_the_campaign(self):
        events = []
        result = CampaignRunner(backend="process", workers=2, chunk_size=4).run(
            SPECS, on_settle=events.append
        )
        assert len(events) == len(result.outcomes)
        assert {e.verdict for e in events} == {o.verdict for o in result.outcomes}
        assert all(e.seconds >= 0 and not e.cached for e in events)

    @pytest.mark.parametrize("runner", [
        CampaignRunner(),
        CampaignRunner(backend="process", workers=2, chunk_size=1),
        CampaignRunner(backend="process", workers=2, chunk_size=4),
    ], ids=["serial", "process-1", "process"])
    def test_on_settle_runs_once_per_slot_on_the_calling_thread(self, runner):
        # The delivery contract: events ride back on task results, so
        # every on_settle call happens on the caller's thread, once per
        # slot, with that slot's outcome — per task, not per scenario.
        calls = []
        result = runner.run(
            SPECS,
            on_settle=lambda e: calls.append(
                (e.label, e.outcome, threading.get_ident())),
        )
        assert {thread for _, _, thread in calls} == {threading.get_ident()}
        assert len(calls) == len(result.outcomes)
        assert sorted(label for label, _, _ in calls) == sorted(
            s.label() for s in SPECS)
        by_label = {o.spec.label(): o for o in result.outcomes}
        assert all(outcome == by_label[label] for label, outcome, _ in calls)

    def test_workers_reports_the_pool_size_started(self):
        # One 3-spec chunk ships one task to a one-process pool, whatever
        # the configured worker count.
        result = CampaignRunner(backend="process", workers=8, chunk_size=3).run(
            SPECS[:3])
        assert result.dispatch_stats.tasks_shipped == 1
        assert result.workers == 1
        pooled = CampaignRunner(backend="process", workers=2, chunk_size=5).run(SPECS)
        assert pooled.workers == 2
        assert CampaignRunner().run(SPECS).workers == 1


class TestRobustness:
    @pytest.mark.parametrize("backend", ["threads", "chunked"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="'serial', 'process'"):
            CampaignRunner(backend=backend)

    def test_unknown_kind_fails_fast(self):
        bogus = ScenarioSpec(kind="no-such-kind", n=4, f=1, k=1)
        with pytest.raises(ConfigurationError):
            CampaignRunner().run([bogus])

    def test_infeasible_scenario_becomes_error_outcome(self):
        # (4, 1, 1) is on the solvable side: the impossible construction
        # cannot build 2 disjoint groups of size 3 out of 4 processes.
        infeasible = ScenarioSpec(kind="theorem8-impossible", n=4, f=1, k=1)
        result = CampaignRunner().run([infeasible])
        (outcome,) = result.outcomes
        assert outcome.verdict == "error"
        assert "ConfigurationError" in outcome.error
        assert not result.all_ok

    def test_run_scenario_outcomes_are_picklable(self):
        outcome = run_scenario(SPECS[0])
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_empty_campaign(self):
        result = CampaignRunner(backend="process", workers=2).run([])
        assert result.outcomes == ()
        assert result.all_ok
        assert result.verdict_counts() == {"ok": 0, "violation": 0, "error": 0}
