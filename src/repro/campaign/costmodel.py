"""Cost-model work scheduling: size chunks by expected cost, not count.

The even-split chunker divides a campaign into ``4 × workers`` pieces no
matter what the pieces cost, so a chunk of ``n=64`` scenarios takes an
order of magnitude longer than a chunk of ``n=8`` ones and the pool
idles behind the straggler.  A :class:`CostModel` estimates per-scenario
cost from ``(kind, n, f)`` history and :func:`plan_chunks` sizes chunks
toward a target task latency instead, submitting the longest-expected
chunks first so stragglers start early rather than last.

Two properties are load-bearing and pinned by
``tests/campaign/test_costmodel.py``:

* **Chunking is a pure function of ``(specs, model snapshot, target)``.**
  It never consults worker counts, wall clocks or anything else that
  varies between runs, so two campaigns over the same specs plan the
  same chunks — and because outcomes are per-spec deterministic and
  reassembled by input position, the :class:`CampaignResult` is
  identical *whatever* model (or none) produced the plan.
* **No history degrades to today's behaviour.**  With ``model=None``
  the runner falls back to the even split, so the cost model is a pure
  scheduling optimisation, impossible to observe in the results.

History sources: a finished :class:`~repro.campaign.runner.CampaignResult`
(:meth:`CostModel.from_result`), explicit samples
(:meth:`CostModel.from_samples`), a provenance journal joined to a store
(:meth:`CostModel.from_journal` — wall seconds from
:func:`repro.provenance.queries.aggregate_cost`), or a running
:class:`OnlineCostModel` fed scenario by scenario (the
:class:`~repro.store.caching.CachingRunner` accepts one and feeds it
every executed outcome).  The model a future shard coordinator uses to
place shards is exactly this one — see ROADMAP open item 2.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.exceptions import ConfigurationError

__all__ = ["CostKey", "CostModel", "OnlineCostModel", "cost_key", "plan_chunks"]

#: The granularity cost is modelled at — the key a shard coordinator
#: would balance on.
CostKey = Tuple[str, int, int]

#: Floor for per-scenario estimates: a zero or negative estimate would
#: let one chunk swallow the whole campaign.
_MIN_ESTIMATE = 1e-6

#: Upper bound on scenarios per planned chunk, whatever the estimates
#: say — bounds worst-case pool serialisation when history claims
#: everything is free.
DEFAULT_MAX_CHUNK = 256


def cost_key(spec: ScenarioSpec) -> CostKey:
    """The ``(kind, n, f)`` cost-model key of a spec."""
    return (spec.kind, spec.n, spec.f)


@dataclass(frozen=True)
class CostModel:
    """A frozen snapshot of per-``(kind, n, f)`` mean scenario cost.

    ``costs`` maps cost keys to mean wall seconds per scenario;
    ``default_seconds`` is the estimate for keys without history (the
    mean over all known keys when built by the constructors, an
    explicit floor otherwise).  The snapshot is immutable and hashable:
    a chunk plan computed from it is reproducible by construction.
    """

    costs: Tuple[Tuple[CostKey, float], ...] = ()
    default_seconds: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "costs", tuple(sorted(dict(self.costs).items())))
        if self.default_seconds <= 0:
            raise ConfigurationError(
                f"default_seconds must be > 0, got {self.default_seconds}"
            )
        object.__setattr__(self, "_table", dict(self.costs))

    def estimate(self, spec: ScenarioSpec) -> float:
        """Expected wall seconds for one scenario (never <= 0)."""
        seconds = self._table.get(cost_key(spec), self.default_seconds)
        return max(seconds, _MIN_ESTIMATE)

    def estimate_total(self, specs: Sequence[ScenarioSpec]) -> float:
        """Expected wall seconds for a whole spec sequence."""
        return sum(self.estimate(spec) for spec in specs)

    def known_keys(self) -> Tuple[CostKey, ...]:
        """The keys this snapshot has history for, sorted."""
        return tuple(key for key, _ in self.costs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_samples(
        cls,
        samples: Iterable[Tuple[CostKey, float]],
        *,
        default_seconds: Optional[float] = None,
    ) -> "CostModel":
        """Build from ``(cost_key, seconds)`` observations (mean per key)."""
        totals: Dict[CostKey, float] = {}
        counts: Dict[CostKey, int] = {}
        for key, seconds in samples:
            totals[key] = totals.get(key, 0.0) + max(float(seconds), 0.0)
            counts[key] = counts.get(key, 0) + 1
        means = {key: totals[key] / counts[key] for key in totals}
        if default_seconds is None:
            default_seconds = (
                sum(means.values()) / len(means) if means else 0.01
            )
        return cls(
            costs=tuple(sorted(means.items())),
            default_seconds=max(default_seconds, _MIN_ESTIMATE),
        )

    @classmethod
    def from_result(cls, result: Any) -> "CostModel":
        """Build from a finished campaign's outcomes + scenario timings.

        ``result`` is duck-typed (a
        :class:`~repro.campaign.runner.CampaignResult` or anything with
        ``outcomes`` and ``scenario_seconds``); positions without a
        timing contribute nothing.
        """
        return cls.from_samples(
            (cost_key(outcome.spec), seconds)
            for outcome, seconds in zip(result.outcomes, result.scenario_seconds)
        )

    @classmethod
    def from_journal(cls, replay: Any, store: Any) -> "CostModel":
        """Build from a journal replay joined to the store's specs.

        Uses :func:`repro.provenance.queries.aggregate_cost` grouped by
        ``("kind", "n", "f")`` — each region's journaled wall seconds
        divided by its scenario count.  Fingerprints the store cannot
        resolve are skipped (they carry no spec to key on).
        """
        from repro.provenance.queries import aggregate_cost

        groups, _unresolved = aggregate_cost(store, replay, by=("kind", "n", "f"))
        samples = [
            (aggregate.key, aggregate.usage.seconds / aggregate.scenarios)
            for aggregate in groups.values()
            if aggregate.scenarios
        ]
        return cls.from_samples(samples)


class OnlineCostModel:
    """A thread-safe running mean per cost key, snapshot on demand.

    Feed it from wherever timings appear — the
    :class:`~repro.store.caching.CachingRunner` calls
    :meth:`observe` for every executed outcome when given one — then
    take a :meth:`snapshot` to plan the *next* campaign.  The live model
    is deliberately never consulted mid-run: chunk plans are functions
    of a frozen snapshot, not of a moving average.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: Dict[CostKey, float] = {}
        self._counts: Dict[CostKey, int] = {}

    def observe(self, spec: ScenarioSpec, seconds: float) -> None:
        """Record one scenario's wall seconds."""
        key = cost_key(spec)
        with self._lock:
            self._totals[key] = self._totals.get(key, 0.0) + max(float(seconds), 0.0)
            self._counts[key] = self._counts.get(key, 0) + 1

    def observations(self) -> int:
        """How many scenarios have been observed."""
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> CostModel:
        """A frozen :class:`CostModel` of the means observed so far."""
        with self._lock:
            means = {
                key: self._totals[key] / self._counts[key]
                for key in self._counts
                if self._counts[key]
            }
        default = sum(means.values()) / len(means) if means else 0.01
        return CostModel(
            costs=tuple(sorted(means.items())),
            default_seconds=max(default, _MIN_ESTIMATE),
        )


def plan_chunks(
    specs: Sequence[ScenarioSpec],
    model: CostModel,
    *,
    target_seconds: float = 0.25,
    max_chunk: int = DEFAULT_MAX_CHUNK,
) -> List[Tuple[int, ...]]:
    """Group spec positions into cost-sized chunks, longest-expected first.

    Consecutive specs (input order) are accumulated into a chunk until
    its expected cost reaches ``target_seconds`` or it holds
    ``max_chunk`` scenarios; the finished chunks are then ordered by
    expected cost, descending (ties broken by first position, so the
    order is total and deterministic).  Every position appears exactly
    once — callers reassemble outcomes by position, which is why the
    submission order cannot influence the campaign result.

    A **pure function** of its arguments: no worker counts, no clocks.
    """
    if target_seconds <= 0:
        raise ConfigurationError(
            f"target_seconds must be > 0, got {target_seconds}"
        )
    if max_chunk < 1:
        raise ConfigurationError(f"max_chunk must be >= 1, got {max_chunk}")
    chunks: List[Tuple[float, Tuple[int, ...]]] = []
    positions: List[int] = []
    cost = 0.0
    for position, spec in enumerate(specs):
        positions.append(position)
        cost += model.estimate(spec)
        if cost >= target_seconds or len(positions) >= max_chunk:
            chunks.append((cost, tuple(positions)))
            positions, cost = [], 0.0
    if positions:
        chunks.append((cost, tuple(positions)))
    chunks.sort(key=lambda item: (-item[0], item[1][0]))
    return [group for _cost, group in chunks]
