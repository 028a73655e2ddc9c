"""The supervised dispatch loop shared by the campaign backends.

:class:`Supervisor` owns the part of campaign execution that has to stay
correct when infrastructure misbehaves.  It runs tasks (``(fn, specs,
slot indices)`` triples) inline or on a worker pool that it owns from
fork to teardown, and guarantees that **every slot settles exactly
once**, no matter how many times its task crashes, hangs, raises or is
re-queued:

* every wait on the completion queue is bounded by
  :attr:`~repro.faults.plan.RetryPolicy.wake_seconds`, so a SIGKILLed
  worker (whose ``apply_async`` callbacks never fire) can never park the
  campaign in an indefinite ``get()``;
* every in-flight task carries a deadline; a task with no result by its
  deadline is presumed lost and re-queued, while the original stays
  known as a *zombie* so a late result is still accepted — first
  completion wins, the settled-slot set makes the loser a no-op;
* worker deaths are detected by polling the pool's worker pids; a death
  tightens all in-flight deadlines to a short grace, so lost chunks are
  re-queued promptly instead of after a full timeout;
* failures are retried under the :class:`~repro.faults.plan.RetryPolicy`
  with exponential backoff; a task that exhausts its attempts is
  **bisected**, and a single spec that still fails is **quarantined**
  into an ``"error"`` outcome instead of aborting the campaign;
* if the pool itself breaks (``apply_async`` starts raising), the
  supervisor degrades to in-process execution and finishes the campaign;
* the pool's workers are forked with no initializer and no state of
  their own, and torn down with bounded waits on every exit path.

A task function is called as ``fn(specs, telemetry, attempt=...,
faults=..., in_worker=...)`` with the supervisor's telemetry slice and
fault plan, on the pool and inline alike; ``in_worker`` is ``True`` only
in a pool worker, where worker-level faults (crash, hang) may fire.  It
returns ``(outcomes, timings, payloads)``, one entry per spec.  A
slot's payload is opaque here — the campaign runner ships each
scenario's worker pid and spans in it and builds the settled event
from it — and settles with its outcome: the first result wins, so the
payload of a retried or late duplicate task is dropped with its
outcome.  A quarantined slot settles with no payload (``None``), since
no task ever returned for it.

The module deliberately imports nothing from :mod:`repro.campaign` at
the top level — the campaign runner imports *it* — so the one campaign
type it builds (the quarantine outcome) is imported inside the function
that builds it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.faults.plan import FaultPlan, FaultStats, RetryPolicy
from repro.telemetry.logs import get_logger

__all__ = ["DispatchStats", "QuarantineError", "SupervisedTask", "Supervisor"]

#: A unit of supervised work: ``fn(specs, ...)`` filling ``indices``.
TaskSpec = Tuple[Callable, Tuple, Tuple[int, ...]]

#: ``record(indices, outcomes, timings, payloads)`` — the runner's slot
#: writer, called with newly settled slots only.
RecordHook = Callable[[Sequence[int], Sequence, Sequence[float], Sequence], None]


@dataclass
class DispatchStats:
    """What shipping the campaign's tasks cost (pool dispatch only).

    Orchestration accounting, not a result property — attached to
    :class:`~repro.campaign.runner.CampaignResult` with ``compare=False``
    exactly like :class:`~repro.faults.plan.FaultStats`.  A campaign run
    in the calling process ships nothing, so its stats stay zero.

    ``queue_seconds`` is the summed per-task dispatch latency: time from
    submission to result callback minus the in-worker scenario seconds —
    queue wait, (un)pickling and callback delivery together.
    ``wire_bytes`` is the pickled size of each shipped spec tuple, and
    ``encode_seconds`` the time of that one ``pickle.dumps`` — the same
    encoding the pool's task-handler thread does in the parent before a
    task crosses the pipe.
    """

    tasks_shipped: int = 0
    scenarios_shipped: int = 0
    wire_bytes: int = 0
    encode_seconds: float = 0.0
    queue_seconds: float = 0.0

    def any(self) -> bool:
        return self.tasks_shipped > 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "tasks_shipped": self.tasks_shipped,
            "scenarios_shipped": self.scenarios_shipped,
            "wire_bytes": self.wire_bytes,
            "encode_seconds": round(self.encode_seconds, 6),
            "queue_seconds": round(self.queue_seconds, 6),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DispatchStats":
        return cls(
            tasks_shipped=int(data.get("tasks_shipped", 0)),
            scenarios_shipped=int(data.get("scenarios_shipped", 0)),
            wire_bytes=int(data.get("wire_bytes", 0)),
            encode_seconds=float(data.get("encode_seconds", 0.0)),
            queue_seconds=float(data.get("queue_seconds", 0.0)),
        )


class QuarantineError(RuntimeError):
    """A spec failed persistently and was quarantined by the supervisor."""


class _PoolBroken(RuntimeError):
    """Internal: the pool rejected a submission; degrade to in-process."""


class SupervisedTask:
    """One submission-unit tracked by the supervisor."""

    __slots__ = ("task_id", "fn", "specs", "indices", "attempt",
                 "eligible_at", "deadline", "submitted_at")

    def __init__(self, task_id: int, fn: Callable, specs: Tuple,
                 indices: Tuple[int, ...], attempt: int = 1,
                 eligible_at: float = 0.0) -> None:
        self.task_id = task_id
        self.fn = fn
        self.specs = specs
        self.indices = indices
        self.attempt = attempt
        self.eligible_at = eligible_at
        self.deadline = float("inf")
        self.submitted_at = 0.0


class Supervisor:
    """Fault-tolerant executor of ``(fn, specs, indices)`` tasks.

    One instance supervises one campaign run: it accumulates the run's
    :class:`~repro.faults.plan.FaultStats` (:attr:`stats`) and
    :class:`DispatchStats` (:attr:`dispatch`) and remembers which slots
    already settled (so retries, zombies and the in-process fallback can
    never double-deliver an outcome or its payload).

    ``telemetry`` and ``faults`` are passed to every task call, inline
    and on the pool alike.
    """

    def __init__(
        self,
        *,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        record: RecordHook,
        telemetry=None,
    ) -> None:
        self.retry = retry if retry is not None else RetryPolicy()
        self.faults = faults
        self.stats = FaultStats()
        self.dispatch = DispatchStats()
        self._record = record
        self._telemetry = telemetry
        self._log = get_logger("faults.supervisor")
        self._settled: Set[int] = set()
        self._next_id = 0

    # -- bookkeeping -------------------------------------------------------

    def _new_task(self, fn: Callable, specs: Tuple,
                  indices: Tuple[int, ...], attempt: int = 1) -> SupervisedTask:
        self._next_id += 1
        return SupervisedTask(self._next_id, fn, specs, indices, attempt)

    def _settle(self, indices: Sequence[int], outcomes: Sequence,
                timings: Sequence[float],
                payloads: Optional[Sequence] = None) -> None:
        """Record slots not yet settled with their outcomes and payloads
        (first result wins; ``payloads=None`` settles without any)."""
        if payloads is None:
            payloads = [None] * len(indices)
        fresh = [
            slot for slot in zip(indices, outcomes, timings, payloads)
            if slot[0] not in self._settled
        ]
        if not fresh:
            return
        self._settled.update(slot[0] for slot in fresh)
        self._record(*zip(*fresh))

    def _quarantine(self, task: SupervisedTask, exc: BaseException) -> None:
        from repro.campaign.spec import ScenarioOutcome

        spec = task.specs[0]
        self.stats.quarantined += 1
        self._log.warning(
            "quarantining %s after %d attempt(s): %s: %s",
            spec.label(), task.attempt, type(exc).__name__, exc)
        outcome = ScenarioOutcome.from_error(spec, QuarantineError(
            f"quarantined after {task.attempt} attempt(s); "
            f"last failure: {type(exc).__name__}: {exc}"
        ))
        self._settle(task.indices, [outcome], [0.0])

    def _after_failure(self, task: SupervisedTask,
                       exc: BaseException) -> List[SupervisedTask]:
        """Retry, bisect or quarantine a failed task.

        Returns the replacement tasks to queue (empty on quarantine).
        Bisected halves restart at attempt 1: the failure is re-attributed
        at the finer granularity, which is what drills a poisoned chunk
        down to the single guilty spec.
        """
        if task.attempt < self.retry.max_attempts:
            self.stats.task_retries += 1
            task.attempt += 1
            task.eligible_at = time.monotonic() + self.retry.backoff_for(task.attempt - 1)
            return [task]
        if len(task.specs) > 1:
            self.stats.bisections += 1
            middle = len(task.specs) // 2
            self._log.warning(
                "bisecting task of %d specs after %d failed attempts (%s)",
                len(task.specs), task.attempt, type(exc).__name__)
            return [
                self._new_task(task.fn, task.specs[:middle], task.indices[:middle]),
                self._new_task(task.fn, task.specs[middle:], task.indices[middle:]),
            ]
        self._quarantine(task, exc)
        return []

    # -- in-process execution ----------------------------------------------

    def run_inline(self, tasks: Iterable[TaskSpec]) -> None:
        """Execute tasks in the calling process, one at a time.

        ``tasks`` is consumed lazily, so a generator that consults
        ``should_skip`` sees all previously delivered outcomes before
        producing the next task — the same submission-time semantics as
        the pool path.
        """
        for fn, specs, indices in tasks:
            if not specs:
                continue
            self._run_inline_one(self._new_task(fn, tuple(specs), tuple(indices)))

    def _run_inline_one(self, task: SupervisedTask) -> None:
        stack = [task]
        while stack:
            current = stack.pop(0)
            try:
                outcomes, timings, payloads = current.fn(
                    current.specs, self._telemetry, attempt=current.attempt,
                    faults=self.faults, in_worker=False)
            except Exception as exc:  # noqa: BLE001 - that's the job
                # No backoff sleeps inline: injected faults are
                # deterministic per attempt, waiting buys nothing.
                stack[:0] = self._after_failure(current, exc)
            else:
                self._settle(current.indices, outcomes, timings, payloads)

    # -- pool execution ----------------------------------------------------

    def run_pool(self, tasks: Iterable[TaskSpec], processes: int) -> int:
        """Run ``tasks`` on a pool of ``processes`` forked workers.

        Returns the pool size started: ``processes``, or 1 when the host
        cannot fork and every task ran in the calling process instead.
        The pool lives for this call only; it is torn down on every exit
        path, the campaign's errors included.
        """
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        try:
            pool = context.Pool(processes=processes)
        except OSError:
            # Environments that forbid forking still get a correct (if
            # serial) campaign rather than a crash.
            self.run_inline(tasks)
            return 1
        abandoned = False
        try:
            abandoned = self._feed(pool, tasks, 2 * processes)
        finally:
            self._teardown_pool(pool, abandoned)
        return processes

    def _feed(self, pool, tasks: Iterable[TaskSpec], outstanding: int) -> bool:
        """Supervised dispatch of ``tasks`` onto ``pool``, keeping at most
        ``outstanding`` of them in flight.

        Never blocks unboundedly: the completion wait is capped at
        ``wake_seconds``, after which worker liveness and task deadlines
        are re-checked.  On pool breakage the remaining work is finished
        in-process (:attr:`FaultStats.pool_failures` counts it).

        Returns, once every slot has settled, whether it gave up on a
        task whose result never came: a zombie (lost with a dead worker,
        or hung) or an in-flight task of a broken pool.  The pool may
        still hold such a task.
        """
        done: "queue_module.SimpleQueue" = queue_module.SimpleQueue()
        inflight: Dict[int, SupervisedTask] = {}
        zombies: Dict[int, Tuple[int, ...]] = {}
        waiting: List[SupervisedTask] = []
        pending: Iterator[TaskSpec] = iter(tasks)
        exhausted = False
        known_pids = self._pool_pids(pool) or set()
        # Wedge detection: a worker killed while *idle* in the shared
        # task queue's ``get()`` dies holding the queue's reader lock,
        # starving every other worker forever — no callback will ever
        # arrive again.  Track when the pool last showed signs of life
        # (a completed callback, or a submission to a pool that owed
        # nothing) and degrade to inline execution once the silence
        # outlasts any legitimate task.  Re-submitting lost work while
        # results are still owed is no sign of life: the deadline →
        # re-queue cycle of a wedged pool would otherwise keep the
        # silence short forever.
        last_callback = time.monotonic()

        def submit(task: SupervisedTask) -> None:
            nonlocal last_callback
            task.deadline = time.monotonic() + self.retry.task_timeout_seconds
            task_id = task.task_id
            try:
                pool.apply_async(
                    task.fn, (task.specs, self._telemetry),
                    {"attempt": task.attempt, "faults": self.faults,
                     "in_worker": True},
                    callback=lambda result, t=task_id: done.put((t, result, None)),
                    error_callback=lambda exc, t=task_id: done.put((t, None, exc)),
                )
            except Exception as exc:  # pool closed/broken
                waiting.append(task)
                raise _PoolBroken from exc
            self.dispatch.tasks_shipped += 1
            self.dispatch.scenarios_shipped += len(task.specs)
            encode_started = time.perf_counter()
            self.dispatch.wire_bytes += len(
                pickle.dumps(task.specs, pickle.HIGHEST_PROTOCOL))
            self.dispatch.encode_seconds += time.perf_counter() - encode_started
            task.submitted_at = time.monotonic()
            if not inflight and not zombies:
                last_callback = task.submitted_at
            inflight[task_id] = task

        def next_ready() -> Optional[SupervisedTask]:
            nonlocal exhausted
            now = time.monotonic()
            for position, candidate in enumerate(waiting):
                if candidate.eligible_at <= now:
                    return waiting.pop(position)
            if not exhausted:
                for fn, specs, indices in pending:
                    if not specs:
                        continue
                    return self._new_task(fn, tuple(specs), tuple(indices))
                exhausted = True
            return None

        try:
            while True:
                while len(inflight) < outstanding:
                    task = next_ready()
                    if task is None:
                        break
                    submit(task)
                if not inflight:
                    if waiting:
                        # Everything is backing off; sleep toward the
                        # earliest eligibility, never past one tick.
                        delay = min(t.eligible_at for t in waiting) - time.monotonic()
                        if delay > 0:
                            time.sleep(min(delay, self.retry.wake_seconds))
                        continue
                    return bool(zombies)  # all slots settled, nothing pending
                try:
                    task_id, result, exc = done.get(timeout=self.retry.wake_seconds)
                except queue_module.Empty:
                    self._check_liveness(pool, inflight, zombies, waiting, known_pids)
                    wedge_after = (self.retry.task_timeout_seconds
                                   + self.retry.death_grace_seconds)
                    if (self.stats.worker_deaths and inflight
                            and time.monotonic() - last_callback > wedge_after):
                        self._log.error(
                            "pool silent for %.1fs after a worker death — "
                            "likely wedged on the task-queue lock the dead "
                            "worker held; degrading to in-process execution",
                            wedge_after)
                        raise _PoolBroken
                    continue
                last_callback = time.monotonic()
                task = inflight.pop(task_id, None)
                if task is not None:
                    if exc is None:
                        outcomes, timings, payloads = result
                        self.dispatch.queue_seconds += max(
                            0.0,
                            last_callback - task.submitted_at - sum(timings))
                        self._settle(task.indices, outcomes, timings, payloads)
                    else:
                        waiting.extend(self._after_failure(task, exc))
                    continue
                zombie_indices = zombies.pop(task_id, None)
                if zombie_indices is not None and exc is None:
                    # A presumed-lost task completed after all: accept
                    # the late result; already-settled slots (and their
                    # payloads) are no-ops.
                    self._settle(zombie_indices, *result)
                # A zombie *failure* needs nothing: its replacement was
                # queued when the deadline expired.
        except _PoolBroken:
            self.stats.pool_failures += 1
            self._log.error(
                "worker pool broke mid-campaign; finishing %d in-flight and "
                "%d queued task(s) in-process",
                len(inflight), len(waiting))
            leftovers: List[SupervisedTask] = list(inflight.values()) + waiting
            inflight.clear()
            if not exhausted:
                for fn, specs, indices in pending:
                    if specs:
                        leftovers.append(
                            self._new_task(fn, tuple(specs), tuple(indices)))
            for task in leftovers:
                self._run_inline_one(task)
            return True

    def _check_liveness(self, pool, inflight: Dict[int, SupervisedTask],
                        zombies: Dict[int, Tuple[int, ...]],
                        waiting: List[SupervisedTask],
                        known_pids: Set[int]) -> None:
        """Detect dead workers and expired deadlines; re-queue their work."""
        now = time.monotonic()
        pids = self._pool_pids(pool)
        if pids is not None:
            dead = known_pids - pids
            if dead:
                self.stats.worker_deaths += len(dead)
                self._log.warning(
                    "%d worker(s) died (pids %s); re-queueing their work "
                    "within %.1fs", len(dead), sorted(dead),
                    self.retry.death_grace_seconds)
                # The pool cannot say which task the dead worker held, so
                # tighten every in-flight deadline: live tasks re-settle
                # harmlessly, the lost one is re-queued after the grace.
                cutoff = now + self.retry.death_grace_seconds
                for task in inflight.values():
                    task.deadline = min(task.deadline, cutoff)
            known_pids.clear()
            known_pids.update(pids)
        expired = [task_id for task_id, task in inflight.items()
                   if task.deadline <= now]
        for task_id in expired:
            task = inflight.pop(task_id)
            zombies[task_id] = task.indices
            self.stats.task_timeouts += 1
            self._log.warning(
                "task %d (%d spec(s), attempt %d) produced no result before "
                "its deadline; re-queueing", task_id, len(task.specs),
                task.attempt)
            clone = self._new_task(task.fn, task.specs, task.indices,
                                   attempt=task.attempt)
            waiting.extend(self._after_failure(
                clone, TimeoutError("no result before task deadline")))

    def _teardown_pool(self, pool, abandoned: bool = False) -> None:
        """Uniform pool teardown, safe on every exit path.

        Workers get a bounded join after ``close()``, with a logged
        warning when they are still running.  A pool that still holds an
        ``abandoned`` task (see :meth:`_feed`) skips the join: its worker
        handler stops the workers only once every task has reported, which
        a dead worker's task never does, so the join could only wait out
        the grace.  Every slot has settled by then, so nothing is lost by
        going straight to ``terminate()``.  Even ``terminate()`` gets a
        bounded wait: a worker SIGKILLed while blocked in the shared task
        queue's ``get()`` dies *holding* the queue's reader lock, and
        ``Pool._terminate_pool`` then deadlocks trying to acquire it.
        The terminate runs on a daemon thread; if it wedges, the
        remaining workers are SIGKILLed directly and the wedged thread is
        abandoned (every handler thread it could be waiting on is a
        daemon too).
        """
        grace = self.retry.teardown_grace_seconds
        pool.close()
        if not abandoned:
            joiner = threading.Thread(target=pool.join, daemon=True)
            joiner.start()
            joiner.join(timeout=grace)
            if joiner.is_alive():
                self._log.warning(
                    "pool workers still running %.1fs after close (hung or "
                    "saturated); terminating them", grace)
        terminator = threading.Thread(target=pool.terminate, daemon=True)
        terminator.start()
        terminator.join(timeout=max(grace, 1.0))
        if terminator.is_alive():  # pragma: no cover - needs a wedged queue lock
            self._log.error(
                "pool terminate wedged — a killed worker can die holding "
                "the shared task-queue lock; force-killing remaining "
                "workers")
            for pid in self._pool_pids(pool) or ():
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError, TypeError):
                    pass  # already gone, or not started (no pid yet)
            terminator.join(timeout=max(grace, 1.0))

    @staticmethod
    def _pool_pids(pool) -> Optional[Set[int]]:
        """Current worker pids, or ``None`` when the pool hides them."""
        try:
            return {proc.pid for proc in pool._pool}
        except Exception:  # pragma: no cover - non-CPython pool internals
            return None
