"""Cache-aware campaign execution: skip, resume, early-stop, report.

:class:`CachingRunner` wraps a :class:`~repro.campaign.runner.CampaignRunner`
and a :class:`~repro.store.base.ResultStore`:

1. every compiled spec is fingerprinted and looked up in the store;
2. hits are served from cache, misses are executed by the wrapped runner
   (any backend) and **persisted incrementally** — each outcome is in
   the store before the next chunk completes, so killing the campaign
   loses at most in-flight work;
3. the merged outcomes are returned in spec order, which makes a
   resumed campaign's :class:`~repro.campaign.runner.CampaignResult`
   *equal* to an uninterrupted run's (equality ignores timing only).

An optional :class:`~repro.store.policy.EarlyStopPolicy` turns the run
adaptive (certified points stop sampling; skipped scenarios are counted
in :class:`CacheStats`, and the equality guarantee above deliberately no
longer applies), and an optional
:class:`~repro.store.progress.ProgressReporter` receives the live event
stream, cache hits included.

An optional campaign **journal**
(:class:`~repro.provenance.journal.CampaignJournal`, or a path one is
opened at) receives the full provenance record: campaign start/finish,
one ``ran`` or ``skipped`` record per such position with its
:class:`~repro.provenance.usage.ResourceUsage`, and the early-stop
triggers.  The positions served without running share one ``cached``
record that lists their fingerprints with their summed usage: one for
the store hits, written right after the lookup and before anything
runs, and one more after the run for duplicate positions, when there
are any.  Progress reporters and telemetry still receive one
``cached=True`` event per served position.

Each executed position reaches the wrapped runner's ``on_settle`` hook
once, as one event on the calling thread, whatever retries or worker
deaths the campaign survived: it is stored, shown to the policy,
journaled as one ``ran`` record and shown to the observers, in that
order.  A failed store write is logged and counted and the outcome kept
in memory, since the store is a cache (a
:class:`~repro.exceptions.ConfigurationError` raises).  A failed journal
write raises and ends the campaign as a kill would, leaving a valid
journal without a ``campaign-finish``; a rerun resumes from the store.
An error an observer (telemetry or progress reporter) raises on any
event, executed or served, or the reporter raises when the campaign
starts or finishes, is contained and logged once per campaign and
observer, with its traceback.  The telemetry session's ``begin`` and
``finish`` are not observers' hooks: ``finish`` writes the trace and
metrics exports the caller configured, so a failed export raises.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.campaign.grid import ScenarioGrid
from repro.campaign.runner import CampaignResult, CampaignRunner, ScenarioEvent
from repro.campaign.scenarios import get_kind
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.provenance.journal import CampaignJournal
from repro.provenance.usage import ResourceUsage
from repro.store.base import ResultStore
from repro.store.fingerprint import fingerprint_spec
from repro.store.policy import EarlyStopPolicy
from repro.store.progress import ProgressReporter
from repro.telemetry.logs import get_logger
from repro.telemetry.session import TelemetrySession

__all__ = ["CacheStats", "CachingRunner"]

_log = get_logger("store.caching")


@dataclass(frozen=True)
class CacheStats:
    """Where each scenario of a cached campaign came from.

    Counted per input position (duplicate specs in the input count once
    each), so ``cached + executed + skipped == total`` always holds.
    Note the journal's ledger counts duplicate positions of an executed
    fingerprint as ``cached`` replays (only the position that actually
    ran is ``ran``), while ``executed`` here counts every position of an
    executed fingerprint — validate journals against their own
    ``total``, not against this dict.
    """

    total: int
    cached: int
    executed: int
    skipped: int

    @property
    def hit_rate(self) -> float:
        """Fraction of the campaign served from the store (0 when empty)."""
        return self.cached / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "cached": self.cached,
            "executed": self.executed,
            "skipped": self.skipped,
            "hit_rate": round(self.hit_rate, 4),
        }


class CachingRunner:
    """A drop-in ``.run(...)`` that remembers across invocations.

    Parameters
    ----------
    store:
        The :class:`~repro.store.base.ResultStore` to read hits from and
        persist new outcomes into.
    runner:
        The wrapped :class:`~repro.campaign.runner.CampaignRunner`
        (default: serial).  Any backend works; persistence happens in
        the calling process either way.
    policy:
        Optional :class:`~repro.store.policy.EarlyStopPolicy`.
    progress:
        Optional :class:`~repro.store.progress.ProgressReporter`.
    journal:
        Optional provenance journal: a
        :class:`~repro.provenance.journal.CampaignJournal` (caller keeps
        ownership) or a path (the runner opens and owns one there).
    telemetry:
        Optional :class:`~repro.telemetry.session.TelemetrySession`.
        Each ``run`` begins a campaign on it (same correlation id as the
        journal's), feeds it the live event stream — metrics parent-side,
        spans collected from sampled workers — and finishes it, writing
        any configured trace/metrics exports; a failed export raises
        out of ``run``.  The caller keeps ownership of the session and
        can inspect or re-export it afterwards.

    After each ``run``, :attr:`last_stats` holds the run's
    :class:`CacheStats` and :attr:`last_campaign_id` the journal id of
    the campaign.  The runner is a context manager: leaving the ``with``
    block closes the store and any journal the runner opened itself.
    """

    def __init__(
        self,
        store: ResultStore,
        runner: Optional[CampaignRunner] = None,
        *,
        policy: Optional[EarlyStopPolicy] = None,
        progress: Optional[ProgressReporter] = None,
        journal: Optional[Union[str, Path, CampaignJournal]] = None,
        telemetry: Optional[TelemetrySession] = None,
    ):
        self.store = store
        self.runner = runner if runner is not None else CampaignRunner()
        self.policy = policy
        self.progress = progress
        self.telemetry = telemetry
        if journal is None or isinstance(journal, CampaignJournal):
            self.journal = journal
            self._owns_journal = False
        else:
            self.journal = CampaignJournal(journal)
            self._owns_journal = True
        self.last_stats: Optional[CacheStats] = None
        self.last_campaign_id: Optional[str] = None

    def run(
        self, scenarios: Union[ScenarioGrid, Iterable[ScenarioSpec]]
    ) -> CampaignResult:
        """Execute a campaign, serving every known scenario from the store."""
        if isinstance(scenarios, ScenarioGrid):
            specs: Tuple[ScenarioSpec, ...] = scenarios.compile()
        else:
            specs = tuple(scenarios)
        for spec in specs:
            # Fail fast on unknown kinds even when everything is cached —
            # a fully-cached campaign must reject the same inputs a cold
            # one would.
            get_kind(spec.kind)

        # Memoised on each spec: an event built from the same instance
        # reads its digest back without a second sha256.
        fingerprints = [fingerprint_spec(spec) for spec in specs]
        outcomes_by_fp: Dict[str, ScenarioOutcome] = self.store.get_many(specs)

        campaign = uuid.uuid4().hex[:12]
        self.last_campaign_id = campaign
        if self.journal is not None:
            self.journal.campaign_started(
                campaign, len(specs),
                backend=self.runner.backend,
                workers=self.runner.workers,
            )
        if self.telemetry is not None:
            # The telemetry campaign shares the journal's correlation id,
            # which is what makes traces joinable against the ledger.
            self.telemetry.begin(campaign, len(specs))

        # Telemetry (metrics + span collection) first, reporter last.
        observers = [observer for observer in (
            self.telemetry.on_event if self.telemetry is not None else None,
            self.progress) if observer is not None]
        reporter_index = len(observers) - 1  # it is last, when there is one
        failing: set = set()

        def contain(index: int, call: Callable[..., object], *args: object) -> None:
            # The one place observer errors are contained: every event,
            # executed or served, and the reporter's campaign start and
            # finish.  Watching a campaign never changes what it computes
            # or records, and never costs the caller its result.
            try:
                call(*args)
            except Exception:  # noqa: BLE001 - observers never break a campaign
                if index not in failing:
                    failing.add(index)
                    _log.warning(
                        "campaign observer %r failed; its later failures in "
                        "this campaign are not logged", call, exc_info=True)

        def notify(event: ScenarioEvent) -> None:
            for index, observer in enumerate(observers):
                contain(index, observer, event)

        def serve(served: List[Tuple[ScenarioSpec, str, ScenarioOutcome]]) -> None:
            # Positions settled without running: one ``cached`` journal
            # record for all of them, one zero-cost event each.
            if self.journal is not None:
                self.journal.cached(
                    campaign, [fingerprint for _, fingerprint, _ in served],
                    ResourceUsage.of_outcomes(
                        outcome for _, _, outcome in served))
            if observers:
                for spec, _, outcome in served:
                    notify(ScenarioEvent.of(spec, outcome, cached=True))

        if self.progress is not None:
            contain(reporter_index, self.progress.campaign_started, len(specs))
        # Cached outcomes are observed first (in spec order): a violation
        # already in the store certifies its point before anything runs,
        # and the reporter sees cache hits as zero-cost events.
        hits = [(spec, fingerprint, outcomes_by_fp[fingerprint])
                for spec, fingerprint in zip(specs, fingerprints)
                if fingerprint in outcomes_by_fp]
        if self.policy is not None:
            for _, _, outcome in hits:
                self.policy.observe(outcome)
        serve(hits)

        cached_fps = frozenset(outcomes_by_fp)
        pending: List[ScenarioSpec] = []
        pending_fps = set()
        duplicates: List[Tuple[ScenarioSpec, str]] = []
        for spec, fingerprint in zip(specs, fingerprints):
            if fingerprint in cached_fps:
                continue
            if fingerprint in pending_fps:
                # Duplicates execute once, exactly like a grid dedup; the
                # extra positions are replayed from the run's own result.
                duplicates.append((spec, fingerprint))
                continue
            pending_fps.add(fingerprint)
            pending.append(spec)

        executed_fps: set = set()
        store_write_failures = 0

        def settle(event: ScenarioEvent) -> None:
            # One executed position, once: store, policy, journal, then
            # the observers, under the error rules of the module docstring.
            nonlocal store_write_failures
            fingerprint, outcome = event.fingerprint, event.outcome
            # Quarantine is infrastructure history, not a property of the
            # scenario: it stays out of the cache so a future run (or a
            # resume) re-attempts the spec instead of replaying the
            # infrastructure failure as a hit.
            if not (outcome.verdict == "error"
                    and (outcome.error or "").startswith("QuarantineError")):
                try:
                    self.store.put(fingerprint, outcome)
                except ConfigurationError:
                    # A spec the store *cannot ever* persist is a user
                    # mistake, not flaky infrastructure — fail loudly.
                    raise
                except Exception as exc:  # noqa: BLE001 - cache, not contract
                    # The store is a cache: a failed write never costs
                    # the in-memory outcome or the campaign itself.  A
                    # rejected put costs a cache entry (the scenario
                    # re-runs next campaign); a failed batched commit
                    # keeps its rows pending for the next commit.
                    store_write_failures += 1
                    _log.warning(
                        "store write failed for %s (%s: %s); outcome kept "
                        "in memory only", str(fingerprint)[:12],
                        type(exc).__name__, exc)
            outcomes_by_fp[fingerprint] = outcome
            executed_fps.add(fingerprint)
            if self.policy is not None:
                self.policy.observe(outcome)
            if self.journal is not None:
                self.journal.scenario_event(campaign, event)
            notify(event)

        inner = self.runner.run(
            pending,
            on_settle=settle,
            should_skip=self.policy.should_skip if self.policy is not None else None,
            telemetry=(
                self.telemetry.worker_telemetry()
                if self.telemetry is not None
                else None
            ),
        )
        # A batching store may still hold buffered rows; the campaign is
        # only as durable as its last flush, so drain before reporting.
        self.store.flush()

        # Deduplicated duplicate positions completed with their first
        # occurrence; report them so totals add up to the campaign size.
        serve([(spec, fingerprint, outcomes_by_fp[fingerprint])
               for spec, fingerprint in duplicates
               if fingerprint in outcomes_by_fp])

        merged = tuple(
            outcomes_by_fp[fingerprint]
            for fingerprint in fingerprints
            if fingerprint in outcomes_by_fp
        )
        cached_positions = sum(1 for fp in fingerprints if fp in cached_fps)
        executed_positions = sum(1 for fp in fingerprints if fp in executed_fps)
        self.last_stats = CacheStats(
            total=len(specs),
            cached=cached_positions,
            executed=executed_positions,
            skipped=len(specs) - cached_positions - executed_positions,
        )
        stats_payload = self.last_stats.as_dict()
        if store_write_failures:
            stats_payload["store_write_failures"] = store_write_failures
        if inner.fault_stats.any():
            # Surface what the supervisor survived (worker deaths,
            # retries, quarantines) in the campaign's provenance record.
            stats_payload["faults"] = inner.fault_stats.as_dict()
        if self.journal is not None:
            # Positions without an outcome were dropped by the policy —
            # record them so the per-scenario ledger sums to the size.
            for spec, fingerprint in zip(specs, fingerprints):
                if fingerprint not in outcomes_by_fp:
                    self.journal.scenario(
                        campaign, fingerprint, "skipped", label=spec.label(),
                    )
            if self.policy is not None:
                for point, verdict in sorted(
                    self.policy.certified_points().items(), key=repr
                ):
                    self.journal.early_stop(campaign, point, verdict)
            self.journal.campaign_finished(campaign, stats_payload)
        if self.telemetry is not None:
            self.telemetry.record_faults(
                inner.fault_stats.as_dict(),
                store_write_failures=store_write_failures)
            self.telemetry.record_dispatch(
                inner.dispatch_stats.as_dict(),
                store_io=self.store.io_stats())
            self.telemetry.finish(stats=stats_payload)
        if self.progress is not None:
            contain(reporter_index, self.progress.campaign_finished)

        return CampaignResult(
            outcomes=merged,
            backend=inner.backend,
            workers=inner.workers,
            elapsed_seconds=inner.elapsed_seconds,
            scenario_seconds=inner.scenario_seconds,
            fault_stats=inner.fault_stats,
            dispatch_stats=inner.dispatch_stats,
        )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the store (and the journal, when this runner opened it)."""
        if self._owns_journal and self.journal is not None:
            self.journal.close()
        self.store.close()

    def __enter__(self) -> "CachingRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
