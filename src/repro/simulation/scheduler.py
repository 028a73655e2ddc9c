"""Adversaries and basic schedulers.

In the paper the environment — which process takes the next step, which
messages it receives, who crashes when — is chosen by an adversary subject
to the model's admissibility conditions.  The simulator mirrors this: an
:class:`Adversary` is asked, before every step, to pick the next stepping
process and the subset of its buffered messages to deliver, based on a
read-only view of the execution so far.

Two view implementations share one duck-typed API (``time``,
``processes``, ``states``, ``pending``, ``alive``, ``correct``,
``decided``, ``undecided_alive()``, ``pending_for()``):

* :class:`AdversaryView` — an eager, frozen snapshot.  Convenient for
  unit-testing adversaries in isolation, and kept for backwards
  compatibility.
* :class:`LazyAdversaryView` — the zero-copy view the executor hands out
  on its hot path.  It reads the *live* execution state (the state dict,
  the message buffer) instead of copying it, and **expires** as soon as
  the step it was issued for executes: any later access raises
  :class:`repro.exceptions.StaleViewError`, so a misbehaving adversary
  that retains views fails loudly instead of silently observing future
  state.  Custom adversaries must therefore treat views as valid only
  for the duration of the ``next_step`` call that received them, and
  must not mutate anything the view exposes.

Two general-purpose schedulers live here:

* :class:`RoundRobinScheduler` — fair, deterministic: cycles through the
  alive, undecided processes in identifier order and delivers every
  pending message to the stepping process.  This is the "benign" schedule
  the possibility results are exercised under.
* :class:`RandomScheduler` — a seeded random schedule with a built-in
  fairness bound (no message stays pending longer than ``max_delay`` steps
  once its receiver is scheduled), used for randomised testing of the
  possibility results.

The proof-specific adversaries (partitioning, isolation, selective
silence) are in :mod:`repro.simulation.adversary`.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional, Tuple

from repro.algorithms.base import ProcessState
from repro.exceptions import StaleViewError
from repro.simulation.message import Message, MessageBuffer
from repro.types import ProcessId, Time

__all__ = [
    "AdversaryView",
    "LazyAdversaryView",
    "StepDirective",
    "Adversary",
    "RoundRobinScheduler",
    "RandomScheduler",
]


@dataclass(frozen=True)
class AdversaryView:
    """Read-only snapshot of the execution before one step.

    The executor itself hands out the zero-copy
    :class:`LazyAdversaryView`; this eager snapshot exists for tests and
    tools that want to probe an adversary without running an execution.

    Attributes
    ----------
    time:
        The time the next step would have (1-based global step index).
    processes:
        All processes of the executed system.
    states:
        Current local state of every process.
    pending:
        Buffered (sent, not yet received) messages per receiver.
    alive:
        Processes that have not crashed yet (according to the planned
        failure pattern).
    correct:
        Processes that never crash in the planned failure pattern.
    decided:
        Processes whose write-once output is already set.
    """

    time: Time
    processes: Tuple[ProcessId, ...]
    states: Mapping[ProcessId, ProcessState]
    pending: Mapping[ProcessId, Tuple[Message, ...]]
    alive: FrozenSet[ProcessId]
    correct: FrozenSet[ProcessId]
    decided: FrozenSet[ProcessId]

    def undecided_alive(self) -> Tuple[ProcessId, ...]:
        """Alive processes that have not decided yet, in identifier order.

        Cached per view — schedulers call this on every step, and the
        sorted tuple cannot change for a frozen snapshot.
        """
        cached = self.__dict__.get("_undecided_alive")
        if cached is None:
            cached = tuple(sorted(self.alive - self.decided))
            object.__setattr__(self, "_undecided_alive", cached)
        return cached

    def pending_for(self, pid: ProcessId) -> Tuple[Message, ...]:
        """Messages currently buffered for ``pid``."""
        return self.pending.get(pid, ())


class _LiveStates(Mapping):
    """Expiry-checked, read-only mapping over the executor's live states."""

    __slots__ = ("_view", "_states")

    def __init__(self, view: "LazyAdversaryView", states: Mapping[ProcessId, ProcessState]):
        self._view = view
        self._states = states

    def __getitem__(self, pid: ProcessId) -> ProcessState:
        self._view._check()
        return self._states[pid]

    def __iter__(self):
        self._view._check()
        return iter(self._states)

    def __len__(self) -> int:
        self._view._check()
        return len(self._states)


class _LivePending(Mapping):
    """Expiry-checked mapping ``receiver -> pending messages`` over the buffer."""

    __slots__ = ("_view", "_buffer")

    def __init__(self, view: "LazyAdversaryView", buffer: MessageBuffer):
        self._view = view
        self._buffer = buffer

    def __getitem__(self, pid: ProcessId) -> Tuple[Message, ...]:
        self._view._check()
        if not self._buffer.knows_receiver(pid):
            raise KeyError(pid)
        return self._buffer.pending_for(pid)

    def __iter__(self):
        self._view._check()
        return iter(self._buffer.receivers())

    def __len__(self) -> int:
        self._view._check()
        return len(self._buffer.receivers())


class LazyAdversaryView:
    """Zero-copy adversary view backed by the live execution state.

    Exposes the same API as :class:`AdversaryView` but without copying
    anything: ``states`` and ``pending`` read through to the executor's
    live state dict and :class:`~repro.simulation.message.MessageBuffer`,
    ``undecided_alive()`` returns a tuple the executor maintains
    incrementally, and the remaining attributes are shared immutable
    snapshots.  The executor calls :meth:`invalidate` as soon as the
    adversary's ``next_step`` returns; every access after that raises
    :class:`repro.exceptions.StaleViewError`.
    """

    __slots__ = (
        "_time",
        "_processes",
        "_states",
        "_buffer",
        "_alive",
        "_correct",
        "_decided",
        "_undecided_alive",
        "_expired",
    )

    def __init__(
        self,
        time: Time,
        processes: Tuple[ProcessId, ...],
        states: Mapping[ProcessId, ProcessState],
        buffer: MessageBuffer,
        alive: FrozenSet[ProcessId],
        correct: FrozenSet[ProcessId],
        decided: FrozenSet[ProcessId],
        undecided_alive: Tuple[ProcessId, ...],
    ):
        self._time = time
        self._processes = processes
        self._states = states
        self._buffer = buffer
        self._alive = alive
        self._correct = correct
        self._decided = decided
        self._undecided_alive = undecided_alive
        self._expired = False

    def _check(self) -> None:
        if self._expired:
            raise StaleViewError(
                f"adversary view for step t={self._time} was used after its "
                "step; lazy views expire once the step executes — query the "
                "view passed to the current next_step call instead"
            )

    def invalidate(self) -> None:
        """Expire the view (called by the executor after the step)."""
        self._expired = True

    # -- the AdversaryView API --------------------------------------------

    @property
    def time(self) -> Time:
        self._check()
        return self._time

    @property
    def processes(self) -> Tuple[ProcessId, ...]:
        self._check()
        return self._processes

    @property
    def states(self) -> Mapping[ProcessId, ProcessState]:
        self._check()
        return _LiveStates(self, self._states)

    @property
    def pending(self) -> Mapping[ProcessId, Tuple[Message, ...]]:
        self._check()
        return _LivePending(self, self._buffer)

    @property
    def alive(self) -> FrozenSet[ProcessId]:
        self._check()
        return self._alive

    @property
    def correct(self) -> FrozenSet[ProcessId]:
        self._check()
        return self._correct

    @property
    def decided(self) -> FrozenSet[ProcessId]:
        self._check()
        return self._decided

    def undecided_alive(self) -> Tuple[ProcessId, ...]:
        """Alive processes that have not decided yet, in identifier order."""
        self._check()
        return self._undecided_alive

    def pending_for(self, pid: ProcessId) -> Tuple[Message, ...]:
        """Messages currently buffered for ``pid``."""
        self._check()
        return self._buffer.pending_for(pid)


@dataclass(frozen=True, init=False)
class StepDirective:
    """The adversary's choice for the next step.

    ``deliver`` lists the identifiers of messages (currently pending for
    ``pid``) that the step consumes; an empty tuple is a legitimate step
    with no message receptions.

    Built once per step; its constructor fills the instance dict
    directly instead of calling ``object.__setattr__`` per field, and
    the dataclass is otherwise as generated.
    """

    pid: ProcessId
    deliver: Tuple[int, ...] = ()

    def __init__(self, pid: ProcessId, deliver: Tuple[int, ...] = ()) -> None:
        attrs = self.__dict__
        attrs["pid"] = pid
        attrs["deliver"] = deliver


class Adversary(abc.ABC):
    """Chooses the schedule of a run, one step at a time."""

    @abc.abstractmethod
    def next_step(self, view: AdversaryView) -> Optional[StepDirective]:
        """Return the next step to take, or ``None`` to end the run.

        Returning ``None`` tells the executor that the adversary has no
        further steps to schedule (for example because every alive process
        already decided); the executor then stops and evaluates its stop
        condition.

        ``view`` may be a :class:`LazyAdversaryView`: it is only valid for
        the duration of this call and raises
        :class:`repro.exceptions.StaleViewError` afterwards, so do not
        retain it (or anything it returns lazily) across steps.
        """

    def describe(self) -> str:
        """Human-readable description used in traces."""
        return type(self).__name__


class RoundRobinScheduler(Adversary):
    """Deterministic fair schedule.

    Cycles through the alive, undecided processes in ascending identifier
    order; the stepping process receives *all* of its pending messages.
    Once every alive process has decided, the scheduler returns ``None``.
    """

    def __init__(self) -> None:
        self._last: Optional[ProcessId] = None

    def next_step(self, view: AdversaryView) -> Optional[StepDirective]:
        candidates = view.undecided_alive()
        if not candidates:
            return None
        pid = self._pick_next(candidates)
        self._last = pid
        deliver = tuple(m.msg_id for m in view.pending_for(pid))
        return StepDirective(pid, deliver)

    def _pick_next(self, candidates: Tuple[ProcessId, ...]) -> ProcessId:
        if self._last is None:
            return candidates[0]
        for pid in candidates:
            if pid > self._last:
                return pid
        return candidates[0]


class RandomScheduler(Adversary):
    """Seeded random schedule with a fairness bound.

    Every step, a uniformly random alive undecided process is chosen.  Each
    of its pending messages is delivered with probability ``delivery_bias``
    — except that messages older than ``max_delay`` steps are always
    delivered, which keeps the schedule admissible (no message to a correct
    process is delayed forever as long as its receiver keeps being
    scheduled, which random choice over a finite set guarantees with
    probability one and the executor's step budget bounds in practice).
    """

    def __init__(self, seed: int = 0, *, delivery_bias: float = 0.5, max_delay: int = 20):
        if not 0.0 <= delivery_bias <= 1.0:
            raise ValueError("delivery_bias must be within [0, 1]")
        if max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        self._rng = random.Random(seed)
        self.delivery_bias = delivery_bias
        self.max_delay = max_delay

    def next_step(self, view: AdversaryView) -> Optional[StepDirective]:
        candidates = view.undecided_alive()
        if not candidates:
            return None
        # Index the (already sorted, cached) tuple directly — copying it
        # into a list every step was pure allocation.  random.choice
        # consumes the identical RNG stream either way.
        pid = self._rng.choice(candidates)
        deliver = []
        time = view.time
        for message in view.pending_for(pid):
            overdue = (time - message.sent_at) >= self.max_delay
            if overdue or self._rng.random() < self.delivery_bias:
                deliver.append(message.msg_id)
        return StepDirective(pid, tuple(deliver))

    def describe(self) -> str:
        return f"RandomScheduler(bias={self.delivery_bias}, max_delay={self.max_delay})"
