"""Campaign execution: a serial and a multiprocessing backend.

:class:`CampaignRunner` executes a flat list of scenario specs (or a
:class:`~repro.campaign.grid.ScenarioGrid`, which it compiles first) and
aggregates the outcomes into a :class:`CampaignResult`.  Every backend
runs through one pipeline: the runner cuts the specs into tasks and
hands them to a :class:`repro.faults.supervisor.Supervisor`, which runs
them in the calling process or on a worker pool and settles every slot
exactly once.

* ``"serial"`` — one single-spec task after the other in the calling
  process; the reference backend the pool must agree with.
* ``"process"`` — chunk tasks run on a ``multiprocessing`` pool (one
  spec per task when the pool has a single worker).  Because specs are
  plain data and every seeded scheduler derives its RNG stream from the
  scenario's identity (:meth:`ScenarioSpec.derived_seed`), the outcome
  of a scenario does not depend on which worker runs it or in which
  order — so both backends produce **identical**
  :class:`CampaignResult`\\ s (timing metadata aside, which is
  excluded from equality).

:meth:`CampaignRunner.run` additionally accepts two hooks that the
persistent store (:mod:`repro.store`) builds on:

* ``on_settle`` — receives one :class:`ScenarioEvent` per scenario, on
  the **calling** thread, as the scenario's slot settles.  The runner
  builds each event from its own spec and the worker pid and spans
  that came back on the task's result; a slot settles once, so a
  retried or late duplicate task cannot report a scenario twice.  Its
  exceptions propagate and end the campaign.  This is what lets a
  store persist results incrementally, so a killed campaign resumes
  from its last settled scenario instead of from scratch.  The price
  is granularity: events arrive per task, so a pooled campaign settles
  in bursts of at most one chunk.
* ``should_skip`` — consulted once per scenario when its task is
  built; a ``True`` return drops the scenario from the campaign.
  Adaptive budgets (:class:`repro.store.EarlyStopPolicy`) use this to
  stop sampling a sweep point once its outcome is certified.

The runner decides the backend, the worker count and the chunking; the
supervisor owns the workers from fork to teardown.  Each worker holds
at most two chunks, the one it runs and one queued behind it, and
results arrive as they complete, which keeps ``on_settle`` persistence
incremental and lets ``should_skip`` see the outcomes observed so far
when deciding whether a later chunk still needs to run.  The
supervisor knows which chunks each worker holds: it retries the chunk
of a worker that died, kills a worker whose chunk overruns its
deadline, retries under the runner's
:class:`~repro.faults.plan.RetryPolicy`, bisects persistently failing
chunks down to the guilty spec (which is quarantined into an
``"error"`` outcome), and finishes the campaign in-process instead of
aborting when no replacement worker can be forked.  A task is a pure
function of its arguments: the telemetry slice, the fault plan and
whether it runs in a pool worker all arrive with each call, and
workers hold no state of their own.  The optional
``CampaignRunner(faults=FaultPlan(...))`` injects deterministic chaos
through the same machinery — see :mod:`repro.faults`.

The executor is CPU-bound pure Python, so the process backend is the one
that scales with cores; there is deliberately no thread backend (the GIL
would serialise it anyway).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.campaign import codec
from repro.campaign.grid import ScenarioGrid
from repro.campaign.scenarios import SharedExecutionKind, get_kind
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.faults.plan import FaultPlan, FaultStats, RetryPolicy
from repro.faults.supervisor import DispatchStats, Supervisor
from repro.provenance.usage import ResourceUsage
from repro.telemetry.session import WorkerTelemetry
from repro.telemetry.spans import SpanRecord, Tracer, activated

__all__ = ["CampaignRunner", "CampaignResult", "ScenarioEvent", "run_scenario"]

BACKENDS = ("serial", "process")

#: Format tag of :meth:`CampaignResult.to_json` payloads.
RESULT_JSON_FORMAT = 1

#: Hook signatures accepted by :meth:`CampaignRunner.run`.
SettleHook = Callable[["ScenarioEvent"], None]
SkipHook = Callable[[ScenarioSpec], bool]


@dataclass(frozen=True, init=False)
class ScenarioEvent:
    """One scenario settled somewhere in the campaign.

    Events are built once, in the calling process, by :meth:`of`: the
    runner builds one as each slot settles, and
    :class:`repro.store.CachingRunner` builds the ``cached`` ones for
    store hits and duplicate positions, which never reach a worker.
    An event holds the caller's ``spec`` and the ``outcome`` it settled
    to; ``label``, ``verdict``, ``fingerprint`` (the store digest,
    memoised on the spec) and ``usage`` (the
    :class:`~repro.provenance.usage.ResourceUsage` the campaign journal
    persists) are derived from them when read, so a consumer that never
    reads them never pays for them.  ``worker_pid`` is the process that
    ran the scenario.  ``spans`` are the telemetry spans recorded while
    the scenario ran (empty unless a
    :class:`~repro.telemetry.session.WorkerTelemetry` sampled it); they
    come back on the task's result with the worker's pid, so pool-wide
    traces need no extra channel.

    A warm campaign builds one event per store hit, so the constructor
    fills the instance dict directly; the dataclass is otherwise as
    generated.
    """

    spec: ScenarioSpec
    outcome: ScenarioOutcome
    seconds: float
    worker_pid: int
    cached: bool = False
    spans: Tuple[SpanRecord, ...] = ()

    def __init__(
        self,
        spec: ScenarioSpec,
        outcome: ScenarioOutcome,
        seconds: float,
        worker_pid: int,
        cached: bool = False,
        spans: Tuple[SpanRecord, ...] = (),
    ) -> None:
        attrs = self.__dict__
        attrs["spec"] = spec
        attrs["outcome"] = outcome
        attrs["seconds"] = seconds
        attrs["worker_pid"] = worker_pid
        attrs["cached"] = cached
        attrs["spans"] = spans

    @property
    def label(self) -> str:
        return self.spec.label()

    @property
    def verdict(self) -> str:
        return self.outcome.verdict

    @property
    def fingerprint(self) -> str:
        # Function-level import: repro.store's caching layer imports this
        # module, so the fingerprint helper cannot be imported at the top.
        from repro.store.fingerprint import fingerprint_spec

        return fingerprint_spec(self.spec)

    @property
    def usage(self) -> ResourceUsage:
        return ResourceUsage.of_outcome(self.outcome, seconds=self.seconds)

    @classmethod
    def of(cls, spec: ScenarioSpec, outcome: ScenarioOutcome,
           seconds: float = 0.0, *, worker_pid: Optional[int] = None,
           spans: Tuple[SpanRecord, ...] = (),
           cached: bool = False) -> "ScenarioEvent":
        """The event of ``spec`` having settled to ``outcome``.

        ``worker_pid`` defaults to this process.
        """
        return cls(spec, outcome, seconds,
                   os.getpid() if worker_pid is None else worker_pid,
                   cached, spans)


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


#: One task's memo of shared executions, by kind name and execution key.
RunMemo = Dict[Tuple[str, Hashable], Any]


def _run_sharing(spec: ScenarioSpec, runs: Optional[RunMemo]) -> ScenarioOutcome:
    """:func:`run_scenario`, sharing executions through ``runs``.

    ``runs`` memoises the executions of
    :class:`~repro.campaign.scenarios.SharedExecutionKind`\\ s.  A spec
    with an execution key is judged against the memoised run, executing
    it first on a miss; an execution that raises is not memoised, so
    every spec sharing it fails as :func:`run_scenario` fails it.  A
    spec without a key, or with no memo (``runs=None``), runs
    :func:`run_scenario`.
    """
    kind = get_kind(spec.kind)
    key = (kind.execution_key(spec)
           if runs is not None and isinstance(kind, SharedExecutionKind)
           else None)
    if key is None:
        return run_scenario(spec)
    key = (spec.kind, key)
    try:
        if key not in runs:
            runs[key] = kind.execute(spec)
        return kind.judge(spec, runs[key])
    except Exception as exc:  # noqa: BLE001 - as in run_scenario
        return ScenarioOutcome.from_error(spec, exc)


#: What a task ships back per scenario: the pid of the process that ran
#: it and the spans it recorded (empty unless sampled).
Shipped = Tuple[int, Tuple[SpanRecord, ...]]


def _run_batch(
    specs: Sequence[ScenarioSpec],
    telemetry: Optional[WorkerTelemetry] = None,
    attempt: int = 1,
    faults: Optional[FaultPlan] = None,
    in_worker: bool = False,
) -> Tuple[List[ScenarioOutcome], List[float], List[Shipped]]:
    """Task entry point: run a chunk of specs, timing each scenario.

    Returns ``(outcomes, timings, shipped)``, one entry per spec, where
    each ``shipped`` entry is ``(pid, spans)``.  A task of several specs
    executes each shared execution once (:func:`_run_sharing`) and
    judges every spec against it: its memo lives for this call only, so
    a retried or bisected task starts empty, and a one-spec task runs
    :func:`run_scenario`.  A timing is the time of the spec's own pass
    through the loop, so the first spec of a shared execution carries
    the execution and the others only their judgement.  No event is
    built here:
    the parent builds each :class:`ScenarioEvent` from its own spec when
    the slot settles, so only plain data crosses the pool pipe in
    either direction.  The supervisor passes every setting as an
    argument, inline and on the pool alike: ``telemetry`` and
    ``faults`` are the campaign's, ``attempt`` is its retry count for
    this submission, and ``in_worker`` is ``True`` only in a pool
    worker, the one place a worker-level fault (crash, hang) may fire
    without taking the campaign down.  Planned faults fire *before* a
    scenario executes, so a crashed or raising task never produced a
    partial outcome for the scenario that triggered it.

    For each *sampled* scenario a fresh :class:`Tracer` is activated
    around the execution — the scenario root span nests the executor's
    ``execute`` span and any ``decision`` spans the scenario kind opens —
    and the drained records ride back in the scenario's ``shipped``
    entry.  Unsampled scenarios run with no ambient tracer at all, the
    same zero-overhead path as telemetry-off campaigns.
    """
    pid = os.getpid()
    outcomes: List[ScenarioOutcome] = []
    timings: List[float] = []
    shipped: List[Shipped] = []
    # A one-spec task has nothing to share: it runs the reference path.
    runs: Optional[RunMemo] = {} if len(specs) > 1 else None
    for spec in specs:
        if faults is not None:
            faults.perform(spec, attempt, in_worker=in_worker)
        spans: Tuple[SpanRecord, ...] = ()
        started = time.perf_counter()
        if telemetry is not None and telemetry.samples(spec):
            tracer = Tracer(trace_id=telemetry.campaign)
            with activated(tracer):
                with tracer.span(
                    "scenario", label=spec.label(), kind=spec.kind,
                    n=spec.n, f=spec.f, k=spec.k, seed=spec.seed,
                ):
                    outcome = _run_sharing(spec, runs)
            spans = tracer.drain()
        else:
            outcome = _run_sharing(spec, runs)
        timings.append(time.perf_counter() - started)
        outcomes.append(outcome)
        shipped.append((pid, spans))
    return outcomes, timings, shipped


def _tasks(specs: Sequence[ScenarioSpec], size: int,
           should_skip: Optional[SkipHook]) -> Iterator[Tuple]:
    """Lazy ``(fn, specs, positions)`` tasks of at most ``size`` specs.

    ``should_skip`` is consulted when the supervisor pulls a task, after
    every result that arrived before was delivered — the semantics
    adaptive budgets rely on.
    """
    for start in range(0, len(specs), size):
        live = [(position, spec)
                for position, spec in enumerate(specs[start:start + size], start)
                if should_skip is None or not should_skip(spec)]
        if live:
            positions, chunk = zip(*live)
            yield (_run_batch, chunk, positions)


def _recorder(specs: Sequence[ScenarioSpec],
              outcomes_at: List[Optional[ScenarioOutcome]],
              seconds_at: List[float],
              on_settle: Optional[SettleHook]):
    """The supervisor's ``record`` hook.

    The supervisor calls it only with newly settled slots, so each slot
    is filled and handed to ``on_settle`` exactly once, on the calling
    thread; the hook's exceptions propagate.  Events are built here,
    only when ``on_settle`` is set, from ``specs[index]``: the caller's
    own instance, whose memoised fingerprint a pickled copy would not
    carry.  A quarantined slot settles with no payload (no task ever
    returned for it), so its event carries this process's pid and no
    spans.
    """
    def record(indices: Sequence[int], outcomes: Sequence[ScenarioOutcome],
               timings: Sequence[float],
               payloads: Sequence[Optional[Shipped]]) -> None:
        for index, outcome, seconds, payload in zip(
                indices, outcomes, timings, payloads):
            outcomes_at[index] = outcome
            seconds_at[index] = seconds
            if on_settle is not None:
                pid, spans = payload if payload is not None else (None, ())
                on_settle(ScenarioEvent.of(specs[index], outcome, seconds,
                                           worker_pid=pid, spans=spans))
    return record


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated outcomes of one campaign.

    Equality compares only the outcomes — backend, worker count and all
    timing metadata are excluded, which is what lets regression tests
    assert ``serial_result == parallel_result`` directly.  ``workers``
    is the pool size the campaign actually started (1 when it ran in
    the calling process), not the configured worker count.
    """

    outcomes: Tuple[ScenarioOutcome, ...]
    backend: str = field(default="serial", compare=False)
    workers: int = field(default=1, compare=False)
    elapsed_seconds: float = field(default=0.0, compare=False)
    #: Each settled position's own time in its task, in campaign order.
    #: A task that shares one execution between positions (a pool chunk
    #: holding round-robin Theorem 8 specs that differ only in ``k``)
    #: books the execution on the first of them; the others carry only
    #: their judgement.
    scenario_seconds: Tuple[float, ...] = field(default=(), compare=False)
    #: What the supervisor survived (worker deaths, retries, quarantines).
    #: Infrastructure history, not a result property — excluded from
    #: equality so a chaos run can compare equal to a fault-free one.
    fault_stats: FaultStats = field(default_factory=FaultStats, compare=False)
    #: What shipping the work cost (tasks, wire bytes, queue wait).  Pool
    #: dispatch accounting only — zero for in-process campaigns — and
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
            # Absent in payloads written before dispatch accounting.
            dispatch_stats=DispatchStats.from_dict(
                payload.get("dispatch_stats") or {}),
        )


@dataclass(frozen=True)
class CampaignRunner:
    """Executes campaigns over one of the :data:`BACKENDS`.

    Attributes
    ----------
    backend:
        ``"serial"`` (default) or ``"process"``.
    workers:
        Worker-process count for the process backend (default: the CPU
        count, capped at 8).  Ignored by the serial backend.
    chunk_size:
        Scenarios per task for a process backend with more than one
        worker (default: an even split into roughly ``4 * workers``
        chunks).  Serial and single-worker runs take one spec per task.
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
        teardown grace).  Defaults to ``RetryPolicy()``.  Every
        backend is supervised: real worker deaths are survived whether
        or not chaos is injected.
    """

    backend: str = "serial"
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    faults: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown campaign backend {self.backend!r}; choose one of {BACKENDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")

    # -- public API --------------------------------------------------------

    def run(
        self,
        scenarios: Union[ScenarioGrid, Iterable[ScenarioSpec]],
        *,
        on_settle: Optional[SettleHook] = None,
        should_skip: Optional[SkipHook] = None,
        telemetry: Optional[WorkerTelemetry] = None,
    ) -> CampaignResult:
        """Compile (if needed) and execute a campaign.

        ``on_settle(event)`` receives each scenario's
        :class:`ScenarioEvent`, built in the calling thread as its slot
        settles; an exception it raises ends the campaign.
        ``should_skip(spec)`` is consulted once per scenario when its
        task is built and drops the scenario when ``True``.  Without
        hooks the behaviour is exactly the hook-free campaign.

        ``telemetry`` (a :class:`~repro.telemetry.session.WorkerTelemetry`)
        turns on span tracing for sampled scenarios.  Spans reach the
        caller on :class:`ScenarioEvent`\\ s, so tracing requires an
        ``on_settle`` sink — with ``on_settle=None`` no event is built,
        the spans would have nowhere to go and ``telemetry`` is ignored.
        """
        if isinstance(scenarios, ScenarioGrid):
            specs: Tuple[ScenarioSpec, ...] = scenarios.compile()
        else:
            specs = tuple(scenarios)
        for spec in specs:
            get_kind(spec.kind)  # fail fast on unknown kinds, before executing
        if on_settle is None:
            telemetry = None
        if telemetry is not None and specs:
            # A stride filter over few specs can sample nothing at all;
            # force at least one traced scenario so the campaign's trace
            # (and the report CLI reading it) is never silently empty.
            telemetry = telemetry.ensure_samples(specs)

        workers = self._effective_workers() if self.backend == "process" else 1
        if workers > 1:
            size = self._effective_chunk_size(len(specs), workers)
        else:  # serial and single-worker runs: one spec per task
            size = 1
        # Slots are filled by position as they settle; two flat lists
        # keep the bookkeeping of a large campaign small.
        outcomes_at: List[Optional[ScenarioOutcome]] = [None] * len(specs)
        seconds_at = [0.0] * len(specs)
        supervisor = Supervisor(
            retry=self.retry, faults=self.faults,
            record=_recorder(specs, outcomes_at, seconds_at, on_settle),
            telemetry=telemetry)
        tasks = _tasks(specs, size, should_skip)
        started = time.perf_counter()
        if workers > 1 and specs:
            workers = supervisor.run_pool(
                tasks, min(workers, -(-len(specs) // size)))
        else:
            supervisor.run_inline(tasks)
        elapsed = time.perf_counter() - started

        settled = [i for i, outcome in enumerate(outcomes_at) if outcome is not None]
        return CampaignResult(
            outcomes=tuple(outcomes_at[i] for i in settled),
            backend=self.backend,
            workers=workers,
            elapsed_seconds=elapsed,
            scenario_seconds=tuple(seconds_at[i] for i in settled),
            fault_stats=supervisor.stats,
            dispatch_stats=supervisor.dispatch,
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
