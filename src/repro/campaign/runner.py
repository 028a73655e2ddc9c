"""Campaign execution: serial, chunked and multiprocessing backends.

:class:`CampaignRunner` executes a flat list of scenario specs (or a
:class:`~repro.campaign.grid.ScenarioGrid`, which it compiles first) and
aggregates the outcomes into a :class:`CampaignResult`.  Three backends
share one code path:

* ``"serial"`` — one scenario after the other in the calling process;
  the reference backend every other backend must agree with.
* ``"chunked"`` — the same executions, batched through the exact chunk
  machinery the process backend uses; useful for testing the chunking
  logic and for coarse progress accounting without any forking.
* ``"process"`` — a ``multiprocessing`` pool of worker processes, each
  executing whole chunks of specs.  Because specs are plain data and
  every seeded scheduler derives its RNG stream from the scenario's
  identity (:meth:`ScenarioSpec.derived_seed`), the outcome of a
  scenario does not depend on which worker runs it or in which order —
  so all backends produce **identical** :class:`CampaignResult`\\ s
  (timing metadata aside, which is excluded from equality).

:meth:`CampaignRunner.run` additionally accepts three hooks that the
persistent store (:mod:`repro.store`) builds on:

* ``on_outcome`` — called in the **calling** process as soon as an
  outcome exists (per scenario for the in-process backends, per
  completed chunk for the process backend).  This is what lets a store
  persist results incrementally, so a killed campaign resumes from its
  last completed scenario instead of from scratch.
* ``progress`` — a callable receiving one :class:`ScenarioEvent` per
  finished scenario.  Under the process backend the events are produced
  *worker-side* and shipped over a queue, so a progress reporter sees
  pool-wide liveness (including which worker pid ran what), not just
  chunk completions.
* ``should_skip`` — consulted once per scenario at dispatch time; a
  ``True`` return drops the scenario from the campaign.  Adaptive
  budgets (:class:`repro.store.EarlyStopPolicy`) use this to stop
  sampling a sweep point once its outcome is certified.

The process backend keeps at most ``2 × workers`` chunks outstanding
instead of issuing one bulk ``pool.map``: results arrive as they
complete, which keeps ``on_outcome`` persistence incremental and lets
``should_skip`` see the outcomes observed so far when deciding whether a
later chunk still needs to run.  Dispatch runs under the
:class:`repro.faults.supervisor.Supervisor`: every wait is bounded,
in-flight chunks carry deadlines, dead or hung workers get their work
re-queued under the runner's :class:`~repro.faults.plan.RetryPolicy`,
persistently failing chunks are bisected down to the guilty spec (which
is quarantined into an ``"error"`` outcome), and a broken pool degrades
to in-process execution instead of aborting.  The optional
``CampaignRunner(faults=FaultPlan(...))`` injects deterministic chaos
through the same machinery — see :mod:`repro.faults`.

The executor is CPU-bound pure Python, so the process backend is the one
that scales with cores; there is deliberately no thread backend (the GIL
would serialise it anyway).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.campaign import codec
from repro.campaign.costmodel import CostModel, plan_chunks
from repro.campaign.grid import ScenarioGrid
from repro.campaign.scenarios import get_kind
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.campaign.wire import encode_chunk, ensure_specs
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan, FaultStats, RetryPolicy
from repro.faults.supervisor import DispatchStats, Supervisor
from repro.provenance.usage import ResourceUsage
from repro.telemetry.logs import get_logger
from repro.telemetry.session import WorkerTelemetry
from repro.telemetry.spans import SpanRecord, Tracer, activated

__all__ = ["CampaignRunner", "CampaignResult", "ScenarioEvent", "run_scenario"]

BACKENDS = ("serial", "chunked", "process")

#: Format tag of :meth:`CampaignResult.to_json` payloads.
RESULT_JSON_FORMAT = 1

#: Hook signatures accepted by :meth:`CampaignRunner.run`.
OutcomeHook = Callable[[ScenarioOutcome, float], None]
ProgressHook = Callable[["ScenarioEvent"], None]
SkipHook = Callable[[ScenarioSpec], bool]


@dataclass(frozen=True)
class ScenarioEvent:
    """One scenario finished somewhere in the campaign.

    Events are produced where the scenario ran (worker-side under the
    process backend) and are plain picklable data, so they can cross the
    process boundary on a queue.  ``cached`` marks events synthesised by
    :class:`repro.store.CachingRunner` for store hits, which never reach
    a worker.  ``fingerprint`` is the scenario's store digest and
    ``usage`` its :class:`~repro.provenance.usage.ResourceUsage` — both
    are what the campaign journal persists per scenario.  ``spans`` are
    the telemetry spans recorded while the scenario ran (empty unless a
    :class:`~repro.telemetry.session.WorkerTelemetry` sampled it):
    worker-side span buffers ship back on the event exactly like every
    other worker-side fact, so pool-wide traces need no extra channel.
    """

    label: str
    verdict: str
    seconds: float
    worker_pid: int
    cached: bool = False
    fingerprint: str = ""
    usage: Optional[ResourceUsage] = None
    spans: Tuple[SpanRecord, ...] = ()


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Execute one scenario, capturing failures as ``"error"`` outcomes.

    A raising scenario never aborts a campaign: the exception is folded
    into the outcome so that the other scenarios still run and the
    aggregation shows exactly which points broke.
    """
    kind = get_kind(spec.kind)
    try:
        return kind(spec)
    except Exception as exc:  # noqa: BLE001 - campaign robustness by design
        return ScenarioOutcome.from_error(spec, exc)


_log = get_logger("campaign.runner")

#: Worker-side event sink.  ``None`` in the parent; pool workers set it to
#: ``queue.put`` via :func:`_init_worker` so that ``_run_batch`` streams
#: one event per finished scenario back to the reporter.
_WORKER_EVENT_SINK: Optional[ProgressHook] = None

#: The raw worker-side event queue (kept so an injected crash can flush
#: its feeder thread before SIGKILLing the worker — a kill mid-write
#: would wedge the queue for every other worker).
_WORKER_EVENT_QUEUE = None

#: Worker-side telemetry slice (campaign id + sampling stride).  ``None``
#: unless the campaign runs with telemetry; installed alongside the event
#: sink, because spans travel back on the same events.
_WORKER_TELEMETRY: Optional[WorkerTelemetry] = None

#: Worker-side fault plan.  ``None`` in the parent and on fault-free
#: campaigns; pool workers receive the campaign's plan at fork time.
_WORKER_FAULTS: Optional[FaultPlan] = None

#: ``True`` only inside pool worker processes.  Gates the worker-level
#: fault kinds (crash/hang): injecting them into the calling process
#: would take the campaign down instead of exercising the supervisor.
_IN_POOL_WORKER = False


def _init_worker(event_queue, telemetry: Optional[WorkerTelemetry] = None,
                 faults: Optional[FaultPlan] = None) -> None:
    """Pool initializer: install this worker's sinks, slice and chaos."""
    global _WORKER_EVENT_SINK, _WORKER_EVENT_QUEUE, _WORKER_TELEMETRY
    global _WORKER_FAULTS, _IN_POOL_WORKER
    _WORKER_EVENT_QUEUE = event_queue
    _WORKER_EVENT_SINK = event_queue.put if event_queue is not None else None
    _WORKER_TELEMETRY = telemetry
    _WORKER_FAULTS = faults
    _IN_POOL_WORKER = True


def _flush_worker_queue() -> None:
    """Drain this worker's event-queue feeder (pre-crash hygiene).

    An injected crash SIGKILLs the worker; if its queue feeder thread
    were mid-write, the kill could leave the shared pipe's write lock
    held and stall every other worker's events.  Closing and joining the
    feeder first makes the injected death clean from the queue's point
    of view while staying a real SIGKILL for the pool and supervisor.
    """
    queue = _WORKER_EVENT_QUEUE
    if queue is None:
        return
    try:
        queue.close()
        queue.join_thread()
    except Exception:  # noqa: BLE001 - about to die anyway
        pass


def _emit_event(sink: Optional[ProgressHook], spec: ScenarioSpec,
                outcome: ScenarioOutcome, seconds: float,
                spans: Tuple[SpanRecord, ...] = ()) -> None:
    if sink is None:
        return
    # Function-level import: repro.store's caching layer imports this
    # module, so the fingerprint helper cannot be imported at the top.
    from repro.store.fingerprint import fingerprint_spec

    try:
        sink(ScenarioEvent(
            label=spec.label(),
            verdict=outcome.verdict,
            seconds=seconds,
            worker_pid=os.getpid(),
            fingerprint=fingerprint_spec(spec),
            usage=ResourceUsage.of_outcome(outcome, seconds=seconds),
            spans=spans,
        ))
    except Exception:  # noqa: BLE001 - progress must never break a campaign
        pass


def _run_batch(
    specs: Sequence[ScenarioSpec],
    event_sink: Optional[ProgressHook] = None,
    telemetry: Optional[WorkerTelemetry] = None,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
) -> Tuple[List[ScenarioOutcome], List[float]]:
    """Worker entry point: run a chunk of specs, timing each scenario.

    ``event_sink`` and ``telemetry`` are passed explicitly by the
    in-process backends; pool workers leave them ``None`` and fall back
    to the queue sink / telemetry slice installed by
    :func:`_init_worker`.  ``attempt`` is the supervisor's retry count
    for this submission and ``faults`` the injected chaos plan (pool
    workers inherit it from the initializer): planned faults fire
    *before* a scenario executes, so a crashed or raising task never
    produced a partial outcome for the scenario that triggered it.

    For each *sampled* scenario a fresh :class:`Tracer` is activated
    around the execution — the scenario root span nests the executor's
    ``execute`` span and any ``decision`` spans the scenario kind opens —
    and the drained records ride back on the scenario's event.
    Unsampled scenarios run with no ambient tracer at all, the same
    zero-overhead path as telemetry-off campaigns.

    ``specs`` may arrive as a compact :class:`repro.campaign.wire.WireChunk`
    (the pool path ships descriptors, not spec tuples);
    :func:`~repro.campaign.wire.ensure_specs` expands it — memoised, so a
    retried descriptor costs nothing — and passes real sequences through.
    """
    specs = ensure_specs(specs)
    sink = event_sink if event_sink is not None else _WORKER_EVENT_SINK
    telem = telemetry if telemetry is not None else _WORKER_TELEMETRY
    plan = faults if faults is not None else _WORKER_FAULTS
    outcomes: List[ScenarioOutcome] = []
    timings: List[float] = []
    for spec in specs:
        if plan is not None:
            plan.perform(spec, attempt, in_worker=_IN_POOL_WORKER,
                         before_crash=_flush_worker_queue)
        spans: Tuple[SpanRecord, ...] = ()
        started = time.perf_counter()
        if telem is not None and telem.samples(spec):
            tracer = Tracer(
                trace_id=telem.campaign, capture_phases=telem.capture_phases)
            with activated(tracer):
                with tracer.span(
                    "scenario", label=spec.label(), kind=spec.kind,
                    n=spec.n, f=spec.f, k=spec.k, seed=spec.seed,
                ):
                    outcome = run_scenario(spec)
            spans = tracer.drain()
        else:
            outcome = run_scenario(spec)
        seconds = time.perf_counter() - started
        outcomes.append(outcome)
        timings.append(seconds)
        _emit_event(sink, spec, outcome, seconds, spans)
    return outcomes, timings


def _chunk(specs: Sequence[ScenarioSpec], size: int) -> List[Tuple[ScenarioSpec, ...]]:
    return [tuple(specs[i:i + size]) for i in range(0, len(specs), size)]


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcomes of one campaign.

    Equality compares only the outcomes — backend, worker count and all
    timing metadata are excluded, which is what lets regression tests
    assert ``serial_result == parallel_result`` directly.
    """

    outcomes: Tuple[ScenarioOutcome, ...]
    backend: str = field(default="serial", compare=False)
    workers: int = field(default=1, compare=False)
    elapsed_seconds: float = field(default=0.0, compare=False)
    scenario_seconds: Tuple[float, ...] = field(default=(), compare=False)
    #: What the supervisor survived (worker deaths, retries, quarantines).
    #: Infrastructure history, not a result property — excluded from
    #: equality so a chaos run can compare equal to a fault-free one.
    fault_stats: FaultStats = field(default_factory=FaultStats, compare=False)
    #: What shipping the work cost (tasks, wire bytes, queue wait).  Pool
    #: dispatch accounting only — zero for the in-process backends — and
    #: excluded from equality for the same reason as ``fault_stats``.
    dispatch_stats: DispatchStats = field(
        default_factory=DispatchStats, compare=False)

    # -- rollups -----------------------------------------------------------

    @property
    def all_ok(self) -> bool:
        """``True`` when every scenario satisfied every property."""
        return all(outcome.all_ok for outcome in self.outcomes)

    def verdict_counts(self) -> Dict[str, int]:
        """How many scenarios ended ``ok`` / ``violation`` / ``error``."""
        counts = {"ok": 0, "violation": 0, "error": 0}
        for outcome in self.outcomes:
            counts[outcome.verdict] = counts.get(outcome.verdict, 0) + 1
        return counts

    def property_rollup(self) -> Dict[str, int]:
        """Per-property failure counts across all scenarios."""
        return {
            "agreement_failures": sum(1 for o in self.outcomes if not o.agreement_ok),
            "validity_failures": sum(1 for o in self.outcomes if not o.validity_ok),
            "termination_failures": sum(1 for o in self.outcomes if not o.termination_ok),
            "truncated_runs": sum(1 for o in self.outcomes if o.truncated),
        }

    def failures(self) -> Tuple[ScenarioOutcome, ...]:
        """Every outcome that is not ``ok``, in campaign order."""
        return tuple(outcome for outcome in self.outcomes if not outcome.all_ok)

    def by_point(self) -> Dict[Tuple[int, int, int], Tuple[ScenarioOutcome, ...]]:
        """Group outcomes by their ``(n, f, k)`` parameter point."""
        grouped: Dict[Tuple[int, int, int], List[ScenarioOutcome]] = {}
        for outcome in self.outcomes:
            key = (outcome.spec.n, outcome.spec.f, outcome.spec.k)
            grouped.setdefault(key, []).append(outcome)
        return {key: tuple(value) for key, value in grouped.items()}

    def wall_time_stats(self) -> Dict[str, float]:
        """Total and per-scenario wall-time statistics (seconds)."""
        data = sorted(self.scenario_seconds)
        count = len(data)
        if not count:
            return {"total": self.elapsed_seconds, "count": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0, "median": 0.0}
        middle = count // 2
        median = data[middle] if count % 2 else (data[middle - 1] + data[middle]) / 2.0
        return {
            "total": self.elapsed_seconds,
            "count": float(count),
            "mean": sum(data) / count,
            "min": data[0],
            "max": data[-1],
            "median": median,
        }

    @property
    def scenarios_per_second(self) -> float:
        """Campaign throughput (0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed_seconds

    def summary(self) -> Dict[str, object]:
        """Headline numbers for benchmark ``extra_info`` and reports."""
        return {
            "scenarios": len(self.outcomes),
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "scenarios_per_second": round(self.scenarios_per_second, 3),
            **self.verdict_counts(),
            **self.property_rollup(),
        }

    # -- serialisation -----------------------------------------------------

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise the full result — outcomes and metadata — to JSON.

        The round trip is lossless: ``CampaignResult.from_json(r.to_json())``
        compares equal to ``r`` (and also restores the non-compared
        backend/timing metadata), which is what lets campaign results be
        archived, diffed and re-aggregated without re-running anything.
        """
        payload = {
            "format": RESULT_JSON_FORMAT,
            "backend": self.backend,
            "workers": self.workers,
            "elapsed_seconds": self.elapsed_seconds,
            "scenario_seconds": list(self.scenario_seconds),
            "fault_stats": self.fault_stats.as_dict(),
            "dispatch_stats": self.dispatch_stats.as_dict(),
            "outcomes": [codec.outcome_to_dict(o) for o in self.outcomes],
        }
        return json.dumps(payload, sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignResult":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if payload.get("format") != RESULT_JSON_FORMAT:
            raise ConfigurationError(
                f"unsupported campaign-result format {payload.get('format')!r}; "
                f"this build reads format {RESULT_JSON_FORMAT}"
            )
        return cls(
            outcomes=tuple(codec.outcome_from_dict(o) for o in payload["outcomes"]),
            backend=payload["backend"],
            workers=int(payload["workers"]),
            elapsed_seconds=float(payload["elapsed_seconds"]),
            scenario_seconds=tuple(float(s) for s in payload["scenario_seconds"]),
            # Absent in payloads written before the faults subsystem.
            fault_stats=FaultStats.from_dict(payload.get("fault_stats") or {}),
            # Absent in payloads written before compact dispatch.
            dispatch_stats=DispatchStats.from_dict(
                payload.get("dispatch_stats") or {}),
        )


@dataclass(frozen=True)
class CampaignRunner:
    """Executes campaigns over one of the :data:`BACKENDS`.

    Attributes
    ----------
    backend:
        ``"serial"`` (default), ``"chunked"`` or ``"process"``.
    workers:
        Worker-process count for the process backend (default: the CPU
        count, capped at 8).  Ignored by the in-process backends.
    chunk_size:
        Scenarios per chunk for the chunked/process backends (default:
        an even split into roughly ``4 * workers`` chunks).
    faults:
        An optional :class:`~repro.faults.plan.FaultPlan` injecting
        deterministic chaos (worker crashes, hangs, task exceptions,
        delays) at planned points.  Worker-level faults (crash/hang)
        only fire under the process backend; the others fire everywhere,
        so a quarantine-free plan yields the *same* ``CampaignResult``
        on every backend — the fault-tolerance equality invariant.
    retry:
        The :class:`~repro.faults.plan.RetryPolicy` governing the
        supervised dispatch loop (attempts, backoff, per-task deadlines,
        worker-death grace).  Defaults to ``RetryPolicy()``.  The
        process backend is *always* supervised — real worker deaths are
        survived whether or not chaos is injected; the in-process
        backends route through the supervisor only when ``faults`` is
        set, keeping the fault-free fast path untouched.
    cost_model:
        An optional frozen :class:`~repro.campaign.costmodel.CostModel`.
        When set, the chunked/process backends size their chunks by
        *expected cost* toward ``target_task_seconds`` (via
        :func:`~repro.campaign.costmodel.plan_chunks`) and submit the
        longest-expected tasks first, instead of the even count split.
        Pure scheduling: outcomes are reassembled by spec position, so
        the :class:`CampaignResult` is identical with any model or none.
        An explicit ``chunk_size`` wins over the model.
    target_task_seconds:
        The per-task latency the cost-model planner sizes chunks toward
        (default ``0.25``).  Ignored without a ``cost_model``.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    cost_model: Optional[CostModel] = None
    target_task_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown campaign backend {self.backend!r}; choose one of {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.target_task_seconds <= 0:
            raise ConfigurationError(
                f"target_task_seconds must be > 0, got {self.target_task_seconds}")

    # -- public API --------------------------------------------------------

    def run(
        self,
        scenarios: Union[ScenarioGrid, Iterable[ScenarioSpec]],
        *,
        on_outcome: Optional[OutcomeHook] = None,
        progress: Optional[ProgressHook] = None,
        should_skip: Optional[SkipHook] = None,
        telemetry: Optional[WorkerTelemetry] = None,
    ) -> CampaignResult:
        """Compile (if needed) and execute a campaign.

        ``on_outcome(outcome, seconds)`` fires in the calling process as
        each outcome becomes available; ``progress`` receives one
        :class:`ScenarioEvent` per finished scenario (worker-side under
        the process backend); ``should_skip(spec)`` is consulted once per
        scenario at dispatch time and drops the scenario when ``True``.
        Without hooks the behaviour is exactly the hook-free campaign.

        ``telemetry`` (a :class:`~repro.telemetry.session.WorkerTelemetry`)
        turns on span tracing for sampled scenarios.  Spans ride back on
        :class:`ScenarioEvent`\\ s, so tracing requires a ``progress``
        sink — with ``progress=None`` the spans would have nowhere to go
        and ``telemetry`` is ignored.
        """
        if isinstance(scenarios, ScenarioGrid):
            specs: Tuple[ScenarioSpec, ...] = scenarios.compile()
        else:
            specs = tuple(scenarios)
        for spec in specs:
            get_kind(spec.kind)  # fail fast on unknown kinds, before executing
        if progress is None:
            telemetry = None
        if telemetry is not None and specs:
            # A stride filter over few specs can sample nothing at all;
            # force at least one traced scenario so the campaign's trace
            # (and the report CLI reading it) is never silently empty.
            telemetry = telemetry.ensure_samples(specs)

        stats = FaultStats()
        dispatch = DispatchStats()
        started = time.perf_counter()
        if self.backend == "serial":
            if self.faults is None:
                outcomes, timings = self._run_inprocess(
                    [specs], on_outcome, progress, should_skip, telemetry,
                    per_scenario=True)
            else:
                outcomes, timings = self._run_supervised_inline(
                    self._spec_tasks(specs, should_skip),
                    on_outcome, progress, telemetry, stats)
            workers = 1
        elif self.backend == "chunked":
            plan = self._plan(specs)
            if plan is not None:
                # Planned chunks complete longest-first, so outcomes must
                # be reassembled by position — the supervised inline path
                # already does exactly that.
                outcomes, timings = self._run_supervised_inline(
                    self._planned_tasks(specs, plan, should_skip),
                    on_outcome, progress, telemetry, stats)
            elif self.faults is None:
                chunks = _chunk(specs, self._effective_chunk_size(len(specs), 1))
                outcomes, timings = self._run_inprocess(
                    chunks, on_outcome, progress, should_skip, telemetry,
                    per_scenario=False)
            else:
                outcomes, timings = self._run_supervised_inline(
                    self._chunk_tasks(
                        specs, self._effective_chunk_size(len(specs), 1),
                        should_skip),
                    on_outcome, progress, telemetry, stats)
            workers = 1
        else:
            outcomes, timings, workers = self._run_process(
                specs, on_outcome, progress, should_skip, telemetry, stats,
                dispatch)
        elapsed = time.perf_counter() - started

        return CampaignResult(
            outcomes=tuple(outcomes),
            backend=self.backend,
            workers=workers,
            elapsed_seconds=elapsed,
            scenario_seconds=tuple(timings),
            fault_stats=stats,
            dispatch_stats=dispatch,
        )

    # -- internals ---------------------------------------------------------

    def _effective_workers(self) -> int:
        if self.workers is not None:
            return self.workers
        return max(1, min(os.cpu_count() or 1, 8))

    def _effective_chunk_size(self, total: int, workers: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        if total == 0:
            return 1
        return max(1, -(-total // max(1, workers * 4)))

    @staticmethod
    def _filter_chunk(
        chunk: Sequence[ScenarioSpec], should_skip: Optional[SkipHook]
    ) -> Tuple[ScenarioSpec, ...]:
        if should_skip is None:
            return tuple(chunk)
        return tuple(spec for spec in chunk if not should_skip(spec))

    def _retry_policy(self) -> RetryPolicy:
        return self.retry if self.retry is not None else RetryPolicy()

    @staticmethod
    def _spec_tasks(specs: Sequence[ScenarioSpec],
                    should_skip: Optional[SkipHook]):
        """Lazy per-scenario tasks (serial-backend granularity)."""
        for position, spec in enumerate(specs):
            if should_skip is not None and should_skip(spec):
                continue
            yield (_run_batch, (spec,), (position,))

    @staticmethod
    def _chunk_tasks(specs: Sequence[ScenarioSpec], size: int,
                     should_skip: Optional[SkipHook]):
        """Lazy chunk tasks; ``should_skip`` is consulted at submission
        time, after earlier completions were delivered — the semantics
        adaptive budgets rely on."""
        for start in range(0, len(specs), size):
            live_specs: List[ScenarioSpec] = []
            live_positions: List[int] = []
            for offset, spec in enumerate(specs[start:start + size]):
                if should_skip is not None and should_skip(spec):
                    continue
                live_specs.append(spec)
                live_positions.append(start + offset)
            if live_specs:
                yield (_run_batch, tuple(live_specs), tuple(live_positions))

    def _plan(self, specs: Sequence[ScenarioSpec]) -> Optional[List[Tuple[int, ...]]]:
        """Cost-planned position groups, or ``None`` for the even split.

        ``None`` (no model, an explicit ``chunk_size`` override, or an
        empty campaign) keeps the historical chunking byte-for-byte.
        """
        if self.cost_model is None or self.chunk_size is not None or not specs:
            return None
        return plan_chunks(specs, self.cost_model,
                           target_seconds=self.target_task_seconds)

    @staticmethod
    def _planned_tasks(specs: Sequence[ScenarioSpec],
                       plan: Sequence[Tuple[int, ...]],
                       should_skip: Optional[SkipHook]):
        """Lazy tasks over cost-planned position groups (longest first).

        Same submission-time ``should_skip`` semantics as
        :meth:`_chunk_tasks`; outcomes land by position, so the planned
        order cannot influence the campaign result.
        """
        for group in plan:
            live_specs: List[ScenarioSpec] = []
            live_positions: List[int] = []
            for position in group:
                spec = specs[position]
                if should_skip is not None and should_skip(spec):
                    continue
                live_specs.append(spec)
                live_positions.append(position)
            if live_specs:
                yield (_run_batch, tuple(live_specs), tuple(live_positions))

    def _collect_recorder(self, results: Dict[int, Tuple[ScenarioOutcome, float]],
                          on_outcome: Optional[OutcomeHook]):
        """A supervisor ``record`` hook writing slots + delivering hooks."""
        def record(indices: Sequence[int],
                   outcomes: Sequence[ScenarioOutcome],
                   timings: Sequence[float]) -> None:
            for index, outcome, seconds in zip(indices, outcomes, timings):
                results[index] = (outcome, seconds)
            self._deliver(outcomes, timings, on_outcome)
        return record

    def _make_supervisor(self, record, progress: Optional[ProgressHook],
                         telemetry: Optional[WorkerTelemetry],
                         stats: FaultStats,
                         max_outstanding: int = 1,
                         dispatch: Optional[DispatchStats] = None,
                         pack=None) -> Supervisor:
        return Supervisor(
            retry=self._retry_policy(), faults=self.faults, stats=stats,
            record=record, progress=progress, telemetry=telemetry,
            max_outstanding=max_outstanding, pack=pack, dispatch=dispatch)

    def _run_supervised_inline(
        self,
        tasks,
        on_outcome: Optional[OutcomeHook],
        progress: Optional[ProgressHook],
        telemetry: Optional[WorkerTelemetry],
        stats: FaultStats,
    ) -> Tuple[List[ScenarioOutcome], List[float]]:
        """In-process supervised execution (faulty serial/chunked runs)."""
        results: Dict[int, Tuple[ScenarioOutcome, float]] = {}
        supervisor = self._make_supervisor(
            self._collect_recorder(results, on_outcome), progress, telemetry,
            stats)
        supervisor.run_inline(tasks)
        ordered = sorted(results)
        return ([results[i][0] for i in ordered],
                [results[i][1] for i in ordered])

    def _run_inprocess(
        self,
        chunks: Sequence[Sequence[ScenarioSpec]],
        on_outcome: Optional[OutcomeHook],
        progress: Optional[ProgressHook],
        should_skip: Optional[SkipHook],
        telemetry: Optional[WorkerTelemetry] = None,
        *,
        per_scenario: bool,
    ) -> Tuple[List[ScenarioOutcome], List[float]]:
        """Serial/chunked execution with hooks.

        ``per_scenario=True`` (serial backend) delivers ``on_outcome``
        after every scenario and consults ``should_skip`` before each
        one; the chunked backend mirrors the process backend instead —
        skip decisions and ``on_outcome`` happen at chunk granularity.
        """
        outcomes: List[ScenarioOutcome] = []
        timings: List[float] = []
        for chunk in chunks:
            if per_scenario:
                for spec in chunk:
                    if should_skip is not None and should_skip(spec):
                        continue
                    batch_outcomes, batch_timings = _run_batch(
                        (spec,), progress, telemetry)
                    self._deliver(batch_outcomes, batch_timings, on_outcome)
                    outcomes.extend(batch_outcomes)
                    timings.extend(batch_timings)
            else:
                live = self._filter_chunk(chunk, should_skip)
                if not live:
                    continue
                batch_outcomes, batch_timings = _run_batch(
                    live, progress, telemetry)
                self._deliver(batch_outcomes, batch_timings, on_outcome)
                outcomes.extend(batch_outcomes)
                timings.extend(batch_timings)
        return outcomes, timings

    @staticmethod
    def _deliver(
        outcomes: Sequence[ScenarioOutcome],
        timings: Sequence[float],
        on_outcome: Optional[OutcomeHook],
    ) -> None:
        if on_outcome is None:
            return
        for outcome, seconds in zip(outcomes, timings):
            on_outcome(outcome, seconds)

    def _run_process(
        self,
        specs: Sequence[ScenarioSpec],
        on_outcome: Optional[OutcomeHook],
        progress: Optional[ProgressHook],
        should_skip: Optional[SkipHook],
        telemetry: Optional[WorkerTelemetry],
        stats: FaultStats,
        dispatch: DispatchStats,
    ) -> Tuple[List[ScenarioOutcome], List[float], int]:
        workers = self._effective_workers()
        if not specs or workers == 1:
            if self.faults is None:
                outcomes, timings = self._run_inprocess(
                    [specs], on_outcome, progress, should_skip, telemetry,
                    per_scenario=True)
            else:
                outcomes, timings = self._run_supervised_inline(
                    self._spec_tasks(specs, should_skip),
                    on_outcome, progress, telemetry, stats)
            return outcomes, timings, 1
        plan = self._plan(specs)
        if plan is not None:
            tasks = self._planned_tasks(specs, plan, should_skip)
            task_count = len(plan)
        else:
            chunk_size = self._effective_chunk_size(len(specs), workers)
            tasks = self._chunk_tasks(specs, chunk_size, should_skip)
            task_count = -(-len(specs) // chunk_size)
        results: Dict[int, Tuple[ScenarioOutcome, float]] = {}
        workers = self._run_on_pool(
            tasks, min(workers, task_count), progress, telemetry,
            self._collect_recorder(results, on_outcome), stats, dispatch)
        ordered = sorted(results)
        return ([results[i][0] for i in ordered],
                [results[i][1] for i in ordered], workers)

    def _run_on_pool(
        self,
        tasks,
        pool_processes: int,
        progress: Optional[ProgressHook],
        telemetry: Optional[WorkerTelemetry],
        record,
        stats: FaultStats,
        dispatch: Optional[DispatchStats] = None,
    ) -> int:
        """Pool plumbing for the process backend.

        ``tasks`` (an iterable of ``(fn, specs, slot indices)``) is
        consumed lazily by the supervisor at submission time.  The
        supervisor owns the dispatch loop — bounded waits, per-task
        deadlines, retry/bisection/quarantine, worker-death re-queueing,
        in-process degradation when the pool breaks — while this method
        owns the pool's lifecycle: fork context, worker initializer
        (event queue + telemetry slice + fault plan), the drain thread,
        and uniform, deadlock-free teardown.  Tasks cross the pipe as
        compact wire descriptors (``pack=encode_chunk``); the worker
        entry points expand them via :func:`ensure_specs`.
        """
        workers = self._effective_workers()
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()

        supervisor = self._make_supervisor(
            record, progress, telemetry, stats,
            max_outstanding=max(2, workers * 2),
            dispatch=dispatch, pack=encode_chunk)
        event_queue = context.Queue() if progress is not None else None
        drain: Optional[threading.Thread] = None
        try:
            pool = context.Pool(
                processes=max(1, pool_processes),
                initializer=_init_worker,
                initargs=(event_queue, telemetry, self.faults),
            )
        except (OSError, PermissionError):  # pragma: no cover - locked-down hosts
            # Environments that forbid forking still get a correct (if
            # serial) campaign rather than a crash.
            if event_queue is not None:
                event_queue.close()
                event_queue.join_thread()
            supervisor.run_inline(tasks)
            return 1

        if event_queue is not None:
            drain = threading.Thread(
                target=_drain_events, args=(event_queue, progress), daemon=True)
            drain.start()

        try:
            supervisor.run_pool(pool, tasks)
        finally:
            self._teardown_pool(pool, event_queue, drain)
        return workers

    def _teardown_pool(self, pool, event_queue,
                       drain: Optional[threading.Thread]) -> None:
        """Uniform pool/queue teardown, safe on every exit path.

        Order matters: the sentinel goes onto the event queue *before*
        ``terminate()`` (killing a worker mid-write used to be able to
        wedge or truncate the drain), the drain gets a bounded join with
        a logged warning instead of silent event loss, and the queue is
        always ``close()``d *and* ``join_thread()``ed — unless the drain
        timed out, where ``cancel_join_thread()`` avoids blocking on a
        pipe nobody will ever read.

        Even ``terminate()`` gets a bounded wait: a worker SIGKILLed
        while blocked in the shared task queue's ``get()`` dies *holding*
        the queue's reader lock, and ``Pool._terminate_pool`` then
        deadlocks trying to acquire it.  The terminate runs on a daemon
        thread; if it wedges, the remaining workers are SIGKILLed
        directly and the wedged thread is abandoned (every handler
        thread it could be waiting on is a daemon too).
        """
        grace = self._retry_policy().teardown_grace_seconds
        pool.close()
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(timeout=grace)
        if joiner.is_alive():
            _log.warning(
                "pool workers still running %.1fs after close (hung or "
                "saturated); terminating them", grace)
        drained = True
        if event_queue is not None:
            try:
                event_queue.put(None)
            except Exception:  # noqa: BLE001 - queue already broken
                drained = False
            if drain is not None:
                # The pool is closed and joined (or being given up on),
                # so a healthy drain only has buffered events left and
                # finishes almost instantly; a worker killed holding the
                # queue's write lock silences it forever, so don't wait
                # long — lost "ran" events are reconciled by the caller.
                drain_grace = max(2 * grace, 2.0)
                drain.join(timeout=drain_grace)
                if drain.is_alive():
                    drained = False
                    _log.warning(
                        "event drain did not finish within %.1fs; some "
                        "progress events were lost", drain_grace)
        terminator = threading.Thread(target=pool.terminate, daemon=True)
        terminator.start()
        terminator.join(timeout=max(grace, 1.0))
        if terminator.is_alive():  # pragma: no cover - needs a wedged queue lock
            _log.error(
                "pool terminate wedged — a killed worker can die holding "
                "the shared task-queue lock; force-killing remaining "
                "workers")
            for proc in list(getattr(pool, "_pool", None) or []):
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError, TypeError):
                    pass
            terminator.join(timeout=max(grace, 1.0))
        if event_queue is not None:
            event_queue.close()
            if drained:
                event_queue.join_thread()
            else:  # pragma: no cover - only on drain timeout
                event_queue.cancel_join_thread()


def _drain_events(event_queue, progress: ProgressHook) -> None:
    """Parent-side drain loop: forward worker events to the reporter."""
    while True:
        try:
            event = event_queue.get()
        except (EOFError, OSError):  # pragma: no cover - queue torn down
            return
        except Exception:  # noqa: BLE001 - a dying worker can tear an event
            continue
        if event is None:
            return
        try:
            progress(event)
        except Exception:  # noqa: BLE001 - progress must never break a campaign
            pass
