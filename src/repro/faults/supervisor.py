"""The supervised dispatch loop shared by the campaign backends.

:class:`Supervisor` owns the part of campaign execution that has to stay
correct when infrastructure misbehaves.  It runs tasks (``(fn, specs,
slot indices)`` triples) inline or on worker processes that it forks,
feeds and stops itself, and guarantees that **every slot settles
exactly once**, no matter how many times its task crashes, hangs,
raises or is re-queued:

* every worker has a pipe of its own and holds at most two tasks: the
  one it runs and one queued behind it.  The supervisor waits on the
  pipes of busy workers and the sentinels of all workers, so a death
  names the worker that died, and the worker names the tasks it held;
* a worker death retries the task that worker was running and queues
  the one behind it again, unchanged.  A task still running
  ``task_timeout_seconds`` after it reached the head of its worker's
  queue has its worker killed, and is retried the same way.  A
  replacement worker is forked in both cases;
* failures are retried under the :class:`~repro.faults.plan.RetryPolicy`
  with exponential backoff; a task that exhausts its attempts is
  **bisected**, and a single spec that still fails is **quarantined**
  into an ``"error"`` outcome instead of aborting the campaign;
* if a replacement worker cannot be forked, the supervisor finishes the
  campaign in-process;
* on every exit path each worker is stopped and reaped and each pipe
  closed: an idle worker is asked to exit, a busy one is killed.

A task function is called as ``fn(specs, telemetry, attempt=...,
faults=..., in_worker=...)`` with the supervisor's telemetry slice and
fault plan, on the pool and inline alike; ``in_worker`` is ``True`` only
in a pool worker, where worker-level faults (crash, hang) may fire.  It
returns ``(outcomes, timings, payloads)``, one entry per spec.  A
slot's payload is opaque here — the campaign runner ships each
scenario's worker pid and spans in it and builds the settled event
from it — and settles with its outcome, once: a result for a slot that
already settled is dropped with its payload.  A quarantined slot
settles with no payload (``None``), since no task ever returned for
it.

The module deliberately imports nothing from :mod:`repro.campaign` at
the top level — the campaign runner imports *it* — so the one campaign
type it builds (the quarantine outcome) is imported inside the function
that builds it.
"""

from __future__ import annotations

import multiprocessing
import pickle
import queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
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
    sending a task to reading its reply minus the in-worker scenario
    seconds — time queued behind the worker's running task, (un)pickling
    and the wait for the parent to read the reply together.
    ``wire_bytes`` is the pickled size of each shipped spec tuple, and
    ``encode_seconds`` the time of that one ``pickle.dumps``: those
    bytes are what crosses the worker's pipe.
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


class SupervisedTask:
    """One submission-unit tracked by the supervisor."""

    __slots__ = ("fn", "specs", "indices", "attempt",
                 "eligible_at", "deadline", "submitted_at")

    def __init__(self, fn: Callable, specs: Tuple,
                 indices: Tuple[int, ...], attempt: int = 1,
                 eligible_at: float = 0.0) -> None:
        self.fn = fn
        self.specs = specs
        self.indices = indices
        self.attempt = attempt
        self.eligible_at = eligible_at
        self.deadline = float("inf")
        self.submitted_at = 0.0


@dataclass
class _Worker:
    """A forked worker, the parent's end of its pipe, and the tasks sent
    to it whose replies have not been read: ``held[0]`` is running and
    ``held[1]``, if any, is queued behind it."""

    process: Any
    conn: Any
    held: List[SupervisedTask] = field(default_factory=list)


def _serve(conn, inherited, telemetry, faults) -> None:
    """A worker's loop: run each ``(fn, pickled specs, attempt)`` task it
    receives and send back ``(True, result)`` or ``(False, exception)``.

    It first closes the parent's pipe ends that the fork copied, its own
    included; otherwise its pipe would never read as closed when the
    parent dies.  A reader thread keeps taking tasks off the pipe while
    one runs, so the parent never blocks sending a queued task to a
    worker that is itself blocked sending a reply the parent has not
    read yet.  A reply that cannot be pickled is sent back as an
    exception instead.  The loop ends on a stop message (``None``) or
    when the parent's end closes.
    """
    for end in inherited:
        end.close()
    inbox: "queue.SimpleQueue" = queue.SimpleQueue()
    threading.Thread(target=_receive, args=(conn, inbox), daemon=True).start()
    for fn, blob, attempt in iter(inbox.get, None):
        try:
            reply = (True, fn(pickle.loads(blob), telemetry, attempt=attempt,
                              faults=faults, in_worker=True))
        except Exception as exc:  # noqa: BLE001 - the parent retries it
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # noqa: BLE001 - fails the task, not the worker
            conn.send((False, RuntimeError(
                f"task reply cannot be pickled: {type(exc).__name__}: {exc}")))


def _receive(conn, inbox: "queue.SimpleQueue") -> None:
    """Move messages from ``conn`` to ``inbox`` up to a stop message,
    standing in for one when the parent's end closes."""
    message: Any = ()
    while message is not None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            message = None
        inbox.put(message)


class Supervisor:
    """Fault-tolerant executor of ``(fn, specs, indices)`` tasks.

    One instance supervises one campaign run: it accumulates the run's
    :class:`~repro.faults.plan.FaultStats` (:attr:`stats`) and
    :class:`DispatchStats` (:attr:`dispatch`) and remembers which slots
    already settled (so retries, re-queues and the in-process fallback
    can never double-deliver an outcome or its payload).

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

    # -- bookkeeping -------------------------------------------------------

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
                SupervisedTask(task.fn, task.specs[:middle], task.indices[:middle]),
                SupervisedTask(task.fn, task.specs[middle:], task.indices[middle:]),
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
            self._run_inline_one(SupervisedTask(fn, tuple(specs), tuple(indices)))

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
        """Run ``tasks`` on ``processes`` forked workers.

        Returns the number of workers started: ``processes``, or 1 when
        the host cannot fork and every task ran in the calling process
        instead.  The workers live for this call only; they are stopped
        on every exit path, the campaign's errors included.
        """
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        workers: List[_Worker] = []
        try:
            try:
                for _ in range(processes):
                    workers.append(self._fork(context, workers))
            except OSError:
                # Environments that forbid forking still get a correct (if
                # serial) campaign rather than a crash.
                self._stop(workers)
                self.run_inline(tasks)
                return 1
            self._feed(context, workers, tasks)
        finally:
            self._stop(workers)
        return processes

    def _fork(self, context, others: List[_Worker]) -> _Worker:
        """Start one worker on a pipe of its own.

        ``others`` are the running workers: the new worker closes its
        copies of their pipe ends, as it does of its own parent end.
        """
        conn, child_end = context.Pipe()
        try:
            process = context.Process(
                target=_serve, daemon=True,
                args=(child_end, [worker.conn for worker in others] + [conn],
                      self._telemetry, self.faults))
            process.start()
        except BaseException:
            conn.close()
            raise
        finally:
            child_end.close()
        return _Worker(process, conn)

    def _feed(self, context, workers: List[_Worker],
              tasks: Iterable[TaskSpec]) -> None:
        """Supervised dispatch of ``tasks`` onto ``workers`` until every
        slot has settled.

        Every worker gets one task before any worker gets a second, and
        none holds more than two.  Each wait ends at the first reply or
        death, or at the earliest head-of-queue deadline or backoff
        expiry.  A worker that died or overran its deadline is retired
        (:meth:`_retire`) and replaced; when no replacement can be
        forked, the remaining work finishes in-process
        (:attr:`FaultStats.pool_failures` counts it).
        """
        waiting: List[SupervisedTask] = []
        pending: Iterator[TaskSpec] = iter(tasks)

        def next_ready() -> Optional[SupervisedTask]:
            now = time.monotonic()
            for position, candidate in enumerate(waiting):
                if candidate.eligible_at <= now:
                    return waiting.pop(position)
            for fn, specs, indices in pending:
                if specs:
                    return SupervisedTask(fn, tuple(specs), tuple(indices))
            return None

        while True:
            for depth in (0, 1):
                for worker in workers:
                    if len(worker.held) == depth:
                        task = next_ready()
                        if task is not None:
                            self._send(worker, task)
            wake = [worker.held[0].deadline for worker in workers if worker.held]
            if waiting and any(len(worker.held) < 2 for worker in workers):
                wake.append(min(task.eligible_at for task in waiting))
            if not wake:
                return  # every slot has settled
            ready = wait(
                [worker.conn for worker in workers if worker.held]
                + [worker.process.sentinel for worker in workers],
                max(0.0, min(wake) - time.monotonic()))
            for worker in list(workers):
                died = (not self._drain(worker, waiting)
                        or worker.process.sentinel in ready)
                overran = (not died and bool(worker.held)
                           and worker.held[0].deadline <= time.monotonic())
                if not (died or overran):
                    continue
                workers.remove(worker)
                self._retire(worker, waiting, overran)
                try:
                    workers.append(self._fork(context, workers))
                except OSError:
                    self._degrade(workers, waiting, pending)
                    return

    def _send(self, worker: _Worker, task: SupervisedTask) -> None:
        """Ship ``task`` to ``worker``, its specs pickled once."""
        encode_started = time.perf_counter()
        blob = pickle.dumps(task.specs, pickle.HIGHEST_PROTOCOL)
        self.dispatch.encode_seconds += time.perf_counter() - encode_started
        self.dispatch.tasks_shipped += 1
        self.dispatch.scenarios_shipped += len(task.specs)
        self.dispatch.wire_bytes += len(blob)
        task.submitted_at = time.monotonic()
        if not worker.held:
            task.deadline = task.submitted_at + self.retry.task_timeout_seconds
        # Held before it is sent: a worker that died idle refuses the
        # task, and retiring that worker re-queues it.
        worker.held.append(task)
        try:
            worker.conn.send((task.fn, blob, task.attempt))
        except BrokenPipeError:
            pass  # its sentinel reports the death

    def _drain(self, worker: _Worker, waiting: List[SupervisedTask]) -> bool:
        """Settle the replies ``worker`` has sent, in the order its tasks
        ran; ``False`` when its pipe closed with a task still held."""
        while worker.held and worker.conn.poll():
            try:
                ok, value = worker.conn.recv()
            except (EOFError, OSError):
                return False
            task = worker.held.pop(0)
            received = time.monotonic()
            if worker.held:  # the queued task runs now
                worker.held[0].deadline = received + self.retry.task_timeout_seconds
            if ok:
                outcomes, timings, payloads = value
                self.dispatch.queue_seconds += max(
                    0.0, received - task.submitted_at - sum(timings))
                self._settle(task.indices, outcomes, timings, payloads)
            else:
                waiting.extend(self._after_failure(task, value))
        return True

    def _retire(self, worker: _Worker, waiting: List[SupervisedTask],
                overran: bool) -> None:
        """Kill and reap a worker that died or overran its deadline and
        close its pipe; retry the task it was running and queue the one
        behind it again, unchanged."""
        worker.process.kill()  # a worker that already died ignores it
        worker.process.join()
        pid, exitcode = worker.process.pid, worker.process.exitcode
        worker.process.close()
        worker.conn.close()
        if overran:
            self.stats.task_timeouts += 1
            failure: Exception = TimeoutError(
                f"worker {pid} killed: no result before the task deadline")
        else:
            self.stats.worker_deaths += 1
            failure = RuntimeError(f"worker {pid} died with exit code {exitcode}")
        self._log.warning("%s holding %d task(s); replacing it",
                          failure, len(worker.held))
        if worker.held:
            running, *queued = worker.held
            waiting.extend(self._after_failure(running, failure))
            waiting.extend(queued)

    def _degrade(self, workers: List[_Worker], waiting: List[SupervisedTask],
                 pending: Iterator[TaskSpec]) -> None:
        """Finish the campaign in-process: no replacement worker could be
        forked."""
        self.stats.pool_failures += 1
        leftovers = [task for worker in workers for task in worker.held] + waiting
        self._log.error(
            "cannot fork a replacement worker; finishing %d held or queued "
            "task(s) and the rest of the campaign in-process", len(leftovers))
        self._stop(workers)
        for task in leftovers:
            self._run_inline_one(task)
        self.run_inline(pending)

    def _stop(self, workers: List[_Worker]) -> None:
        """Stop and reap every worker and close its pipe.

        An idle worker is sent a stop message and given
        ``teardown_grace_seconds`` to exit; a busy worker, or one that
        overstays, is killed.
        """
        for worker in workers:
            if worker.held:
                worker.process.kill()
            else:
                try:
                    worker.conn.send(None)
                except BrokenPipeError:
                    pass  # it died idle
        deadline = time.monotonic() + self.retry.teardown_grace_seconds
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
            if worker.process.exitcode is None:
                self._log.warning(
                    "worker %d still running %.1fs after its stop message; "
                    "killing it", worker.process.pid,
                    self.retry.teardown_grace_seconds)
                worker.process.kill()
                worker.process.join()
            worker.process.close()
            worker.conn.close()
        workers.clear()
