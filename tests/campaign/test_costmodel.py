"""Cost-model scheduling: plan purity, ordering, and the determinism hammer."""

from __future__ import annotations

import threading

import pytest

from repro.campaign import (
    CampaignRunner,
    CostModel,
    OnlineCostModel,
    ScenarioSpec,
    cost_key,
    plan_chunks,
    theorem8_specs,
)
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan, RetryPolicy


def spec_at(n, f, seed=0, kind="theorem8-solvable", k=1):
    return ScenarioSpec(kind=kind, n=n, f=f, k=k, scheduler="random",
                        seed=seed, max_steps=4_000, recording="verdict-only")


class TestCostModel:
    def test_estimate_uses_history_then_default(self):
        model = CostModel.from_samples(
            [(("theorem8-solvable", 4, 1), 0.010),
             (("theorem8-solvable", 4, 1), 0.030),
             (("theorem8-solvable", 8, 3), 0.100)])
        assert model.estimate(spec_at(4, 1)) == pytest.approx(0.020)
        assert model.estimate(spec_at(8, 3)) == pytest.approx(0.100)
        # Unknown key: the default is the mean of the known means.
        assert model.estimate(spec_at(16, 7)) == pytest.approx(0.060)

    def test_estimate_never_nonpositive(self):
        model = CostModel.from_samples([(("theorem8-solvable", 4, 1), 0.0)])
        assert model.estimate(spec_at(4, 1)) > 0

    def test_snapshot_is_canonical_and_hashable(self):
        a = CostModel(costs=((("x", 4, 1), 0.5), (("a", 2, 0), 0.1)))
        b = CostModel(costs=((("a", 2, 0), 0.1), (("x", 4, 1), 0.5)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.known_keys() == (("a", 2, 0), ("x", 4, 1))

    def test_from_result_keys_by_kind_n_f(self):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        result = CampaignRunner().run(specs)
        model = CostModel.from_result(result)
        assert model.known_keys() == tuple(sorted(
            {cost_key(spec) for spec in specs}))
        assert all(key[1] == 4 for key in model.known_keys())
        assert model.estimate(specs[0]) > 0

    def test_invalid_default_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(default_seconds=0.0)


class TestPlanChunks:
    MODEL = CostModel.from_samples(
        [(("theorem8-solvable", 4, 1), 0.01),
         (("theorem8-solvable", 8, 3), 0.08)])

    def test_pure_function_of_inputs(self):
        specs = [spec_at(4, 1, s) for s in range(9)] + \
                [spec_at(8, 3, s) for s in range(5)]
        first = plan_chunks(specs, self.MODEL, target_seconds=0.05)
        for _ in range(5):
            assert plan_chunks(specs, self.MODEL, target_seconds=0.05) == first

    def test_every_position_exactly_once(self):
        specs = [spec_at(4, 1, s) for s in range(7)] + \
                [spec_at(8, 3, s) for s in range(7)]
        plan = plan_chunks(specs, self.MODEL, target_seconds=0.05)
        flat = sorted(p for group in plan for p in group)
        assert flat == list(range(len(specs)))

    def test_chunks_sized_by_cost_not_count(self):
        # 0.01s specs fill to ~5 per chunk at a 0.05s target; 0.08s specs
        # go one per chunk.
        cheap = [spec_at(4, 1, s) for s in range(10)]
        dear = [spec_at(8, 3, s) for s in range(3)]
        plan = plan_chunks(cheap + dear, self.MODEL, target_seconds=0.05)
        sizes = {len(group) for group in plan
                 if all(p >= len(cheap) for p in group)}
        assert sizes == {1}
        cheap_sizes = [len(group) for group in plan
                       if all(p < len(cheap) for p in group)]
        assert max(cheap_sizes) == 5

    def test_longest_expected_first(self):
        cheap = [spec_at(4, 1, s) for s in range(5)]
        dear = [spec_at(8, 3, s) for s in range(2)]
        plan = plan_chunks(cheap + dear, self.MODEL, target_seconds=1.0,
                           max_chunk=2)
        costs = [sum(self.MODEL.estimate((cheap + dear)[p]) for p in group)
                 for group in plan]
        assert costs == sorted(costs, reverse=True)

    def test_max_chunk_caps_free_scenarios(self):
        model = CostModel(costs=(), default_seconds=1e-9)
        specs = [spec_at(4, 1, s) for s in range(700)]
        plan = plan_chunks(specs, model, target_seconds=10.0, max_chunk=256)
        assert max(len(group) for group in plan) <= 256
        assert len(plan) >= 3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            plan_chunks([], self.MODEL, target_seconds=0.0)
        with pytest.raises(ConfigurationError):
            plan_chunks([], self.MODEL, max_chunk=0)


class TestOnlineCostModel:
    def test_running_mean_and_snapshot(self):
        online = OnlineCostModel()
        online.observe(spec_at(4, 1), 0.010)
        online.observe(spec_at(4, 1), 0.030)
        assert online.observations() == 2
        snap = online.snapshot()
        assert snap.estimate(spec_at(4, 1)) == pytest.approx(0.020)
        # The snapshot is frozen: later observations don't move it.
        online.observe(spec_at(4, 1), 10.0)
        assert snap.estimate(spec_at(4, 1)) == pytest.approx(0.020)

    def test_thread_hammer(self):
        online = OnlineCostModel()
        spec = spec_at(4, 1)

        def feed():
            for _ in range(500):
                online.observe(spec, 0.002)

        threads = [threading.Thread(target=feed) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert online.observations() == 4_000
        assert online.snapshot().estimate(spec) == pytest.approx(0.002)


HAMMER_SPECS = theorem8_specs([4, 5], seeds=(1,), max_steps=4_000)

#: Deliberately different histories: empty, uniform, wildly skewed, and
#: one learned from a real run — the plan changes, the result must not.
def history_snapshots():
    real = CostModel.from_result(CampaignRunner().run(HAMMER_SPECS))
    skewed = CostModel.from_samples(
        [(cost_key(spec), 10.0 if spec.n == 4 else 1e-5)
         for spec in HAMMER_SPECS])
    return [None, CostModel(), skewed, real]


class TestDeterminismHammer:
    @pytest.fixture(scope="class")
    def reference(self):
        return CampaignRunner(backend="serial").run(HAMMER_SPECS)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_all_backends_agree_across_histories(self, reference, workers):
        for model in history_snapshots():
            for runner in (
                CampaignRunner(backend="serial", cost_model=model),
                CampaignRunner(backend="chunked", cost_model=model,
                               target_task_seconds=0.02),
                CampaignRunner(backend="process", workers=workers,
                               cost_model=model, target_task_seconds=0.02),
            ):
                assert runner.run(HAMMER_SPECS) == reference, (
                    f"{runner.backend} model={model!r} diverged")

    def test_chaos_with_cost_model_still_agrees(self, reference):
        model = history_snapshots()[2]
        faults = FaultPlan(seed=7, raise_rate=0.3)
        retry = RetryPolicy(max_attempts=3, backoff_seconds=0.0)
        chaotic = CampaignRunner(
            backend="chunked", cost_model=model, target_task_seconds=0.02,
            faults=faults, retry=retry).run(HAMMER_SPECS)
        assert chaotic == reference
        assert chaotic.fault_stats.task_retries > 0

    def test_explicit_chunk_size_wins_over_model(self):
        model = history_snapshots()[2]
        runner = CampaignRunner(backend="chunked", chunk_size=3,
                                cost_model=model)
        assert runner._plan(HAMMER_SPECS) is None

    def test_target_task_seconds_validated(self):
        with pytest.raises(ConfigurationError):
            CampaignRunner(target_task_seconds=0.0)
