"""Grid expansion: cartesian size, deduplication, early validation."""

from __future__ import annotations

import pytest

from repro.campaign import (
    ScenarioGrid,
    ScenarioSpec,
    normalize_crashes,
    run_scenario,
    theorem8_impossible_grid,
    theorem8_solvable_grid,
)
from repro.exceptions import ConfigurationError
from repro.store import fingerprint_spec


class TestCartesianExpansion:
    def test_full_cartesian_size(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(4, 5),
            f_values=(1, 2),
            k_values=(1, 2, 3),
            schedulers=("random",),
            seeds=(1, 2),
        )
        specs = grid.compile()
        assert len(specs) == 2 * 2 * 3 * 1 * 2

    def test_default_axes_cover_full_ranges(self):
        grid = ScenarioGrid(kinds=("theorem8-solvable",), n_values=(4,))
        specs = grid.compile()
        # f and k both default to 1..n-1
        assert len(specs) == 3 * 3
        assert {(s.f, s.k) for s in specs} == {(f, k) for f in range(1, 4) for k in range(1, 4)}

    def test_callable_axes_depend_on_n(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(4, 6),
            f_values=lambda n: [n - 1],
            k_values=lambda n: range(1, n, 2),
        )
        specs = grid.compile()
        assert {(s.n, s.f) for s in specs} == {(4, 3), (6, 5)}
        assert {(s.n, s.k) for s in specs} == {(4, 1), (4, 3), (6, 1), (6, 3), (6, 5)}

    def test_point_filter_restricts_the_grid(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(5,),
            point_filter=lambda n, f, k: f == k,
        )
        specs = grid.compile()
        assert all(s.f == s.k for s in specs)
        assert len(specs) == 4

    def test_crash_sets_expand_every_point(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(4,),
            f_values=(2,),
            k_values=(2,),
            crash_sets=lambda n, f: [frozenset(), frozenset({1, 2}), {4: 0}],
        )
        specs = grid.compile()
        assert len(specs) == 3
        assert {s.crashes for s in specs} == {(), ((1, 0), (2, 0)), ((4, 0),)}

    def test_compile_preserves_first_occurrence_order(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(5, 4),
            f_values=(1,),
            k_values=(2, 1),
        )
        points = [(s.n, s.k) for s in grid.compile()]
        assert points == [(5, 2), (5, 1), (4, 2), (4, 1)]


class TestDeduplication:
    def test_deterministic_scheduler_collapses_the_seed_axis(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(4,),
            f_values=(1,),
            k_values=(1,),
            schedulers=("round-robin", "random"),
            seeds=(1, 2, 3),
        )
        specs = grid.compile()
        # round-robin ignores seeds (1 spec), random keeps all three
        assert len(specs) == 1 + 3
        round_robin = [s for s in specs if s.scheduler == "round-robin"]
        assert len(round_robin) == 1 and round_robin[0].seed == 0

    def test_duplicate_crash_schedules_are_dropped(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",),
            n_values=(4,),
            f_values=(2,),
            k_values=(2,),
            crash_sets=lambda n, f: [frozenset({1, 2}), {1: 0, 2: 0}, [2, 1]],
        )
        assert len(grid.compile()) == 1

    def test_specs_are_hashable_and_unique(self):
        specs = theorem8_solvable_grid([4, 5], seeds=(1,)).compile()
        assert len(set(specs)) == len(specs)


class TestEarlyValidation:
    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioGrid(kinds=("x",), n_values=(0,), f_values=(0,), k_values=(1,)).compile()

    @pytest.mark.parametrize("f", [-1, 4, 7])
    def test_invalid_f_rejected(self, f):
        grid = ScenarioGrid(kinds=("x",), n_values=(4,), f_values=(f,), k_values=(1,))
        with pytest.raises(ConfigurationError):
            grid.compile()

    def test_invalid_k_rejected(self):
        grid = ScenarioGrid(kinds=("x",), n_values=(4,), f_values=(1,), k_values=(0,))
        with pytest.raises(ConfigurationError):
            grid.compile()

    def test_crash_schedule_outside_system_rejected(self):
        grid = ScenarioGrid(
            kinds=("x",), n_values=(4,), f_values=(1,), k_values=(1,),
            crash_sets=lambda n, f: [frozenset({n + 1})],
        )
        with pytest.raises(ConfigurationError):
            grid.compile()

    def test_empty_axes_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            ScenarioGrid(kinds=(), n_values=(4,))
        with pytest.raises(ConfigurationError):
            ScenarioGrid(kinds=("x",), n_values=())
        with pytest.raises(ConfigurationError):
            ScenarioGrid(kinds=("x",), n_values=(4,), schedulers=())
        with pytest.raises(ConfigurationError):
            ScenarioGrid(kinds=("x",), n_values=(4,), seeds=())

    def test_spec_level_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="x", n=4, f=4, k=1)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="x", n=4, f=1, k=0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="x", n=4, f=1, k=1, max_steps=0)

    def test_normalize_crashes_rejects_duplicates_and_bad_times(self):
        with pytest.raises(ConfigurationError):
            normalize_crashes({1: -1}, 4)
        with pytest.raises(ConfigurationError):
            normalize_crashes({5: 0}, 4)

    def test_normalize_crashes_rejects_duplicate_pids_in_iterables(self):
        # Duplicates must raise (naming the pid), never silently collapse:
        # downstream consumers build dict(spec.crashes), which would
        # quietly drop the repeated entry.
        with pytest.raises(ConfigurationError, match="p2 more than once"):
            normalize_crashes([2, 2], 4)
        with pytest.raises(ConfigurationError, match="p1.*more than once"):
            normalize_crashes(iter([1, 3, 1]), 4)
        # ... even when the duplicated entries agree on the crash time.
        with pytest.raises(ConfigurationError, match="p3 more than once"):
            normalize_crashes((3, 3), 6)

    def test_normalize_crashes_rejects_pids_colliding_after_int_coercion(self):
        # Mapping keys "1" and 1 are distinct dict keys but the same pid.
        with pytest.raises(ConfigurationError, match="p1 more than once"):
            normalize_crashes({"1": 0, 1: 5}, 4)

    def test_normalize_crashes_names_every_duplicated_pid(self):
        with pytest.raises(ConfigurationError, match="p1, p2"):
            normalize_crashes([1, 1, 2, 2, 3], 4)


class TestCanonicalOrder:
    """A spec built directly is the spec a grid compiles (pairs sorted)."""

    @pytest.mark.parametrize("field, pairs", [
        ("crashes", ((4, 0), (1, 0))),
        ("params", (("max_delay", 6), ("delivery_bias", 0.25))),
    ], ids=["crashes", "params"])
    def test_either_order_gives_one_scenario(self, field, pairs):
        point = dict(kind="theorem8-solvable", n=5, f=2, k=2,
                     scheduler="random", seed=1)
        given = ScenarioSpec(**point, **{field: pairs})
        ordered = ScenarioSpec(**point, **{field: tuple(sorted(pairs))})
        assert getattr(given, field) == tuple(sorted(pairs))
        assert given == ordered
        assert fingerprint_spec(given) == fingerprint_spec(ordered)
        assert given.derived_seed() == ordered.derived_seed()
        assert run_scenario(given) == run_scenario(ordered)


class TestTheorem8Grids:
    def test_sides_partition_the_parameter_space(self):
        solvable = theorem8_solvable_grid([4, 5], seeds=(1,)).compile()
        impossible = theorem8_impossible_grid([4, 5]).compile()
        solvable_points = {(s.n, s.f, s.k) for s in solvable}
        impossible_points = {(s.n, s.f, s.k) for s in impossible}
        assert not solvable_points & impossible_points
        full_grid = {(n, f, k) for n in (4, 5) for f in range(1, n) for k in range(1, n)}
        assert solvable_points | impossible_points == full_grid

    def test_impossible_side_has_one_scenario_per_point(self):
        impossible = theorem8_impossible_grid([4, 5]).compile()
        points = [(s.n, s.f, s.k) for s in impossible]
        assert len(points) == len(set(points))
