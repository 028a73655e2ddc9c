"""Grid expansion: cartesian size, deduplication, early validation, and
equality with the per-spec reference loop the compiler replaced."""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import event, example, given, strategies as st

import repro.campaign.grid as grid_module
from repro.campaign import (
    ScenarioGrid,
    ScenarioSpec,
    normalize_crashes,
    run_scenario,
    theorem8_impossible_grid,
    theorem8_solvable_grid,
)
from repro.campaign.spec import DETERMINISTIC_SCHEDULERS, RECORDING_POLICY_NAMES
from repro.exceptions import ConfigurationError
from repro.store import fingerprint_spec


class ReprInt(int):
    """An ``int`` with a ``repr`` of its own, as numpy 2's integers have."""

    def __repr__(self) -> str:
        return f"ReprInt({int(self)})"


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

    @pytest.mark.parametrize("value", [float, ReprInt], ids=["float", "int-subclass"])
    def test_callable_axes_compile_to_the_int_grids_specs(self, value):
        # 1.0 and ReprInt(1) equal 1 but have other reprs, and the derived
        # seed and the fingerprint hash reprs: uncoerced, such a spec
        # equals the int grid's, yet a store misses it and its random
        # schedule differs.
        point = dict(
            kinds=("theorem8-solvable",),
            n_values=(5,),
            schedulers=("random",),
            seeds=(1,),
            crash_sets=lambda n, f: [frozenset(), {1: 0}],
        )
        ints = ScenarioGrid(**point, f_values=(1, 2), k_values=(2, 3)).compile()
        coerced = ScenarioGrid(
            **point,
            f_values=lambda n: [value(1), value(2)],
            k_values=lambda n: [value(2), value(3)],
        ).compile()
        assert coerced == ints
        assert {(type(s.f), type(s.k)) for s in coerced} == {(int, int)}
        assert [fingerprint_spec(s) for s in coerced] == [fingerprint_spec(s) for s in ints]
        assert [s.derived_seed() for s in coerced] == [s.derived_seed() for s in ints]

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

    def test_unhashable_params_are_rejected_at_compile(self):
        grid = ScenarioGrid(kinds=("x",), n_values=(4,), f_values=(1,), k_values=(1,),
                            params={"delays": [1, 2]})
        with pytest.raises(TypeError):
            grid.compile()


class TestBuildCost:
    def test_each_kept_spec_is_built_once(self, monkeypatch):
        built: List[ScenarioSpec] = []
        normalised: List[int] = []
        init = ScenarioSpec.__init__

        def counting_init(spec, *args, **kwargs):
            built.append(spec)
            init(spec, *args, **kwargs)

        def counting_normalize(schedule, n):
            normalised.append(n)
            return normalize_crashes(schedule, n)

        monkeypatch.setattr(ScenarioSpec, "__init__", counting_init)
        monkeypatch.setattr(grid_module, "normalize_crashes", counting_normalize)
        grid = theorem8_solvable_grid([8], seeds=(1, 2), recording="verdict-only")
        specs = grid.compile()
        n = 8
        surviving = [f for f in range(1, n)
                     if any(grid.point_filter(n, f, k) for k in range(1, n))]
        assert len(built) == len(specs)
        assert len(normalised) == sum(len(grid.crash_sets(n, f)) for f in surviving)


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


# -- the compiler against the loop it replaced --------------------------------


def _reference_axis(axis, n):
    if axis is None:
        return tuple(range(1, n))
    if callable(axis):
        return tuple(axis(n))
    return tuple(axis)


def reference_compile(grid: ScenarioGrid):
    """The compiler before each axis was deduplicated, kept verbatim as
    the oracle: one spec per combination, the repeats dropped by a set."""
    specs: List[ScenarioSpec] = []
    seen: set = set()
    for n in grid.n_values:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got n={n}")
        for f in _reference_axis(grid.f_values, n):
            schedules = (
                tuple(grid.crash_sets(n, f)) if grid.crash_sets is not None else ((),)
            )
            for k in _reference_axis(grid.k_values, n):
                if grid.point_filter is not None and not grid.point_filter(n, f, k):
                    continue
                for kind in grid.kinds:
                    for scheduler in grid.schedulers:
                        for seed in grid.seeds:
                            if scheduler in DETERMINISTIC_SCHEDULERS:
                                seed = 0
                            for schedule in schedules:
                                spec = ScenarioSpec(
                                    kind=kind,
                                    n=n,
                                    f=f,
                                    k=k,
                                    scheduler=scheduler,
                                    seed=seed,
                                    crashes=normalize_crashes(schedule, n),
                                    max_steps=grid.max_steps,
                                    params=grid.params,
                                    recording=grid.recording,
                                )
                                if spec not in seen:
                                    seen.add(spec)
                                    specs.append(spec)
    return tuple(specs)


class Table:
    """A pure callable: the row of its last argument, else the default.
    An ``f``/``k`` axis is keyed by ``n``, a ``crash_sets`` by ``f``."""

    def __init__(self, rows, default):
        self.rows, self.default = rows, default

    def __call__(self, *args):
        return self.rows.get(args[-1], self.default)

    def __repr__(self) -> str:
        return f"Table({self.rows!r}, {self.default!r})"


class Filter:
    """A pure point filter that drops a residue class of points."""

    def __init__(self, modulus, residue):
        self.modulus, self.residue = modulus, residue

    def __call__(self, n, f, k):
        return (n + 2 * f + 3 * k) % self.modulus != self.residue

    def __repr__(self) -> str:
        return f"Filter({self.modulus}, {self.residue})"


def axes(values):
    """``None``, a sequence or a callable of ``n``, repeats included; only
    a callable's rows may be empty, so that most grids keep some specs."""
    listed = st.lists(values, min_size=1, max_size=4)
    rows = st.dictionaries(ns, st.lists(values, max_size=4), max_size=3)
    return st.one_of(st.none(), listed, st.builds(Table, rows, listed))


# Each axis mostly draws valid values, with invalid ones (n < 1, f < 0,
# f >= n, k = 0, a pid outside the system, a negative crash time, a zero
# step budget, an unknown policy) mixed in, so that valid grids with
# specs and grids the compiler must reject are both common.  Small ranges
# make repeats and equivalent schedule spellings (a frozenset, a list and
# a mapping of the same pids) common; a list may also repeat a pid.
ns = st.sampled_from([3, 4, 5, 6] * 3 + [2, 1, 0, -1])
pids = st.sampled_from([1, 2, 3] * 4 + [0, 7])
schedules = st.one_of(
    st.frozensets(pids, max_size=3),
    st.lists(pids, max_size=3),
    st.dictionaries(pids, st.sampled_from([0, 0, 0, 1, 2, -1]), max_size=3),
)

grids = st.builds(
    ScenarioGrid,
    kinds=st.lists(st.sampled_from(["theorem8-solvable", "theorem8-impossible", "x"]),
                   min_size=1, max_size=3),
    n_values=st.lists(ns, min_size=1, max_size=3),
    f_values=axes(st.sampled_from([0, 1, 1, 2, 2, 3, 5, -1])),
    k_values=axes(st.sampled_from([1, 1, 2, 2, 3, 3, 4, 0])),
    schedulers=st.lists(st.sampled_from(sorted(DETERMINISTIC_SCHEDULERS) + ["random"]),
                        min_size=1, max_size=4),
    seeds=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    crash_sets=st.none() | st.builds(
        Table,
        st.dictionaries(st.integers(-1, 5), st.lists(schedules, max_size=3), max_size=3),
        st.lists(schedules, min_size=1, max_size=3)),
    point_filter=st.none() | st.builds(Filter, st.integers(2, 4), st.integers(0, 3)),
    max_steps=st.sampled_from([500, 500, 500, 500, 1, 0]),
    params=st.sampled_from([(), {"max_delay": 3}, {"bias": 0.5, "tags": frozenset({"a"})}]),
    recording=st.sampled_from(RECORDING_POLICY_NAMES * 4 + ("bogus",)),
)


class TestCompileEquivalence:
    """The compiler builds each kept spec once; the result must be the
    reference loop's, spec for spec, fingerprint for fingerprint."""

    @given(grids)
    # Every axis repeats a value, the crash schedules spell one set three
    # ways, and a deterministic and a seeded scheduler meet repeated seeds.
    @example(ScenarioGrid(
        kinds=("x", "theorem8-solvable", "x"),
        n_values=(4, 3, 4),
        f_values=(1, 2, 1),
        k_values=Table({3: [2, 1, 2]}, [1, 1]),
        schedulers=("random", "round-robin", "random", "isolation"),
        seeds=(2, 1, 2),
        crash_sets=Table({}, [[2, 1], frozenset({1, 2}), {1: 0, 2: 0}, {3: 1}]),
    ))
    # f=2 names p9, but its only point is filtered out, so it is never
    # checked; f=5 >= n builds no spec, because it has no schedule.
    @example(ScenarioGrid(
        kinds=("x",), n_values=(4,), f_values=(1, 2, 5), k_values=(1,),
        crash_sets=Table({2: [[9]], 5: []}, [[1]]), point_filter=Filter(4, 3),
    ))
    def test_compile_equals_the_reference_loop(self, grid):
        try:
            expected = reference_compile(grid)
        except ConfigurationError:
            event("invalid grid")
            # Two faults in one grid may be found in another order, so
            # only the error class is compared.
            with pytest.raises(ConfigurationError):
                grid.compile()
            return
        event("valid grid" if expected else "valid grid, no specs")
        specs = grid.compile()
        assert specs == expected
        assert [fingerprint_spec(s) for s in specs] == [fingerprint_spec(s) for s in expected]
        assert [s.derived_seed() for s in specs] == [s.derived_seed() for s in expected]
