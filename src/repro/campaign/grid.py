"""Declarative scenario grids.

A :class:`ScenarioGrid` describes a cartesian product of campaign axes —
scenario kinds, system sizes ``n``, failure bounds ``f``, agreement
parameters ``k``, schedulers, seeds and crash schedules — and compiles it
into a flat, deduplicated tuple of
:class:`~repro.campaign.spec.ScenarioSpec`.  Compilation is where a
campaign fails fast: every ``(n, f, k)`` point is validated before a
single execution starts, so an invalid grid raises
:class:`repro.exceptions.ConfigurationError` instead of poisoning a
thousand-scenario run halfway through.

The ``f`` and ``k`` axes may depend on ``n`` (the Theorem 8 sweep uses
the full ranges ``1..n-1``): pass a callable of ``n``, or ``None`` for
the full range.  ``point_filter`` restricts the grid to a region (for
example one side of a solvability border), and ``crash_sets`` expands
every point into one scenario per planned crash schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.spec import (
    DETERMINISTIC_SCHEDULERS,
    CrashSchedule,
    ScenarioSpec,
    normalize_crashes,
    normalize_params,
)
from repro.exceptions import ConfigurationError

__all__ = ["ScenarioGrid"]

#: An integer axis: ``None`` (the full range ``1..n-1``), an explicit
#: sequence, or a callable of ``n`` returning the values for that ``n``.
Axis = Union[None, Sequence[int], Callable[[int], Iterable[int]]]


def _resolve_axis(axis: Axis, n: int) -> Tuple[int, ...]:
    """The distinct values of an ``f`` or ``k`` axis at ``n``, in
    first-occurrence order; a callable's values are coerced to ``int`` as
    a sequence axis's are, so both spell the same specs."""
    if axis is None:
        return tuple(range(1, n))
    if callable(axis):
        return tuple(dict.fromkeys(int(value) for value in axis(n)))
    return tuple(dict.fromkeys(axis))


@dataclass(frozen=True)
class ScenarioGrid:
    """A cartesian product of campaign axes.

    Every axis is read with its repeats dropped, the first occurrence
    winning, so a value listed twice yields its scenarios once.

    Attributes
    ----------
    kinds:
        Registered scenario-kind names; one scenario per kind per point.
    n_values:
        System sizes to sweep.
    f_values / k_values:
        Failure-bound / agreement-parameter axes (see :data:`Axis`);
        ``None`` means the full range ``1..n-1``.
    schedulers:
        Scheduler names.  Deterministic schedulers ignore the seed axis:
        each takes the single seed 0.
    seeds:
        Grid seeds combined with seeded schedulers.
    crash_sets:
        Optional ``(n, f) -> iterable of crash schedules``; every distinct
        schedule becomes one scenario (a mapping ``pid -> time`` or an
        iterable of initially dead ids, so ``{1, 2}``, ``[2, 1]`` and
        ``{1: 0, 2: 0}`` are one schedule).  ``None`` runs each point
        failure-free.  Called once per distinct ``(n, f)``.
    point_filter:
        Optional predicate ``(n, f, k) -> bool`` restricting the grid;
        called once per distinct ``(n, f, k)``.
    max_steps:
        Step budget of every compiled scenario.
    params:
        Extra kind-specific knobs attached to every scenario.
    recording:
        Recording-policy name applied to every compiled scenario
        (``"full"``, ``"decisions-only"`` or ``"verdict-only"``); the
        policy changes what the executed runs retain, never their
        verdicts.
    """

    kinds: Tuple[str, ...]
    n_values: Tuple[int, ...]
    f_values: Axis = None
    k_values: Axis = None
    schedulers: Tuple[str, ...] = ("round-robin",)
    seeds: Tuple[int, ...] = (0,)
    crash_sets: Optional[Callable[[int, int], Iterable[CrashSchedule]]] = None
    point_filter: Optional[Callable[[int, int, int], bool]] = None
    max_steps: int = 10_000
    params: Tuple[Tuple[str, Hashable], ...] = ()
    recording: str = "full"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kinds", tuple(self.kinds))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        if not callable(self.f_values) and self.f_values is not None:
            object.__setattr__(self, "f_values", tuple(int(f) for f in self.f_values))
        if not callable(self.k_values) and self.k_values is not None:
            object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(self, "schedulers", tuple(self.schedulers))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "params", normalize_params(self.params))
        if not self.kinds:
            raise ConfigurationError("a grid needs at least one scenario kind")
        if not self.n_values:
            raise ConfigurationError("a grid needs at least one value of n")
        if not self.schedulers:
            raise ConfigurationError("a grid needs at least one scheduler")
        if not self.seeds:
            raise ConfigurationError("a grid needs at least one seed")
        object.__setattr__(self, "_compiled", None)

    def __len__(self) -> int:
        """Number of compiled scenarios (compiles on first use)."""
        return len(self.compile())

    def compile(self) -> Tuple[ScenarioSpec, ...]:
        """Expand the grid into a flat, deduplicated tuple of specs.

        Invalid parameter points (``n < 1``, ``f`` outside ``0..n-1``,
        ``k < 1``, crash ids outside the system) raise
        :class:`repro.exceptions.ConfigurationError` — before anything
        executes.  Only points that survive ``point_filter`` are checked;
        of a grid with two faults, either may be the one reported.

        A compile costs only the specs it keeps.  Each axis is
        deduplicated once, a deterministic scheduler takes the seed 0
        once instead of once per grid seed, and each ``(n, f)``'s crash
        schedules are normalised once, when its first point survives the
        filter, and shared by all of its specs.  Distinct axis values give
        distinct specs, so every spec is built once, in first-occurrence
        order: ``n``, ``f``, ``k``, kind, scheduler, seed, schedule.

        The expansion is memoised on the (frozen) grid: the caching layer
        and the runner both compile, and a large grid should only pay the
        cartesian expansion once.  ``crash_sets``/``point_filter``
        callables are therefore expected to be pure.
        """
        if self._compiled is None:
            object.__setattr__(self, "_compiled", self._compile())
        return self._compiled

    def _compile(self) -> Tuple[ScenarioSpec, ...]:
        # Hashing the kinds, schedulers and params up front rejects a grid
        # whose specs would be unhashable.
        kinds = tuple(dict.fromkeys(self.kinds))
        runs = tuple(
            (scheduler, seed)
            for scheduler in dict.fromkeys(self.schedulers)
            for seed in (
                (0,) if scheduler in DETERMINISTIC_SCHEDULERS
                else dict.fromkeys(self.seeds)
            )
        )
        hash(self.params)
        specs: List[ScenarioSpec] = []
        for n in dict.fromkeys(self.n_values):
            if n < 1:
                raise ConfigurationError(f"n must be >= 1, got n={n}")
            for f in _resolve_axis(self.f_values, n):
                given = (
                    tuple(self.crash_sets(n, f)) if self.crash_sets is not None else ((),)
                )
                schedules: Optional[Tuple[Tuple, ...]] = None
                for k in _resolve_axis(self.k_values, n):
                    if self.point_filter is not None and not self.point_filter(n, f, k):
                        continue
                    if schedules is None:
                        # Once per (n, f), shared by all of its specs, and
                        # only once a point survives: the schedules of a
                        # filtered-out f are never checked.
                        schedules = tuple(dict.fromkeys(
                            normalize_crashes(schedule, n) for schedule in given
                        ))
                    specs.extend(
                        ScenarioSpec(
                            kind=kind,
                            n=n,
                            f=f,
                            k=k,
                            scheduler=scheduler,
                            seed=seed,
                            crashes=crashes,
                            max_steps=self.max_steps,
                            params=self.params,
                            recording=self.recording,
                        )
                        for kind in kinds
                        for scheduler, seed in runs
                        for crashes in schedules
                    )
        return tuple(specs)
