"""The algorithm interface: deterministic state machines over messages.

Section II of the paper models every process as a deterministic state
machine whose local state contains a proposal ``x_p`` and a write-once
output ``y_p`` (initially the sentinel ``bottom``).  A *step* atomically
consumes the current state, a (possibly empty) set of messages from the
process's buffer and — when available — a failure-detector value, and
yields a new state; a deterministic *message sending function* determines
the messages to be sent, each of which is placed into the receiver's
buffer.

:class:`Algorithm` captures exactly that interface.  Implementations are
pure: :meth:`Algorithm.step` must not mutate the input state, must return
a fresh state for the same process, and must respect the write-once nature
of the decision.  The executor enforces these contracts at runtime.

:class:`RestrictedAlgorithm` implements Definition 1: the restriction
``A|D`` drops all messages addressed to processes outside ``D`` from the
message sending function but leaves the code — including its use of
``|Pi|`` for the system size — untouched.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

from repro.exceptions import AlgorithmError, ConfigurationError
from repro.types import UNDECIDED, ProcessId, Value

__all__ = [
    "ProcessState",
    "Outgoing",
    "StepOutput",
    "send",
    "broadcast",
    "Algorithm",
    "RestrictedAlgorithm",
]


@dataclass(frozen=True)
class ProcessState:
    """Base class of per-process algorithm states.

    Concrete algorithms subclass this dataclass with their own fields.
    The three fields below mirror the paper's model: the process identity,
    its proposal ``x_p`` and its write-once output ``y_p`` (``UNDECIDED``
    until the decision).
    """

    pid: ProcessId
    proposal: Value
    decision: Value = UNDECIDED

    @property
    def has_decided(self) -> bool:
        """``True`` once the write-once output has been set."""
        return self.decision is not UNDECIDED

    def decide(self, value: Value) -> "ProcessState":
        """Return a copy of the state with the decision set to ``value``.

        Deciding twice with a different value raises
        :class:`repro.exceptions.AlgorithmError`; deciding the same value
        again is a no-op (the output is write-once).
        """
        if self.has_decided:
            if self.decision != value:
                raise AlgorithmError(
                    f"p{self.pid} attempted to change its decision from "
                    f"{self.decision!r} to {value!r}"
                )
            return self
        return dataclasses.replace(self, decision=value)


@dataclass(frozen=True, init=False)
class Outgoing:
    """One message produced by the message sending function.

    Built once per message sent, so, like
    :class:`~repro.simulation.message.Message`, its constructor fills
    the instance dict directly instead of calling ``object.__setattr__``
    per field; the dataclass is otherwise as generated.
    """

    receiver: ProcessId
    payload: object

    def __init__(self, receiver: ProcessId, payload: object) -> None:
        attrs = self.__dict__
        attrs["receiver"] = receiver
        attrs["payload"] = payload


@dataclass(frozen=True, init=False)
class StepOutput:
    """Result of one atomic step: the new state plus outgoing messages.

    Built once per step; its constructor fills the instance dict
    directly, as :class:`Outgoing`'s does.
    """

    state: ProcessState
    messages: Tuple[Outgoing, ...] = ()

    def __init__(self, state: ProcessState, messages: Tuple[Outgoing, ...] = ()) -> None:
        attrs = self.__dict__
        attrs["state"] = state
        attrs["messages"] = messages


def send(receiver: ProcessId, payload: object) -> Outgoing:
    """Convenience constructor for a point-to-point message."""
    return Outgoing(receiver=receiver, payload=payload)


def broadcast(
    processes: Iterable[ProcessId], payload: object, *, exclude: Iterable[ProcessId] = ()
) -> Tuple[Outgoing, ...]:
    """Messages to every process in ``processes`` except those in ``exclude``.

    The paper's favourable transmission parameter lets a process broadcast
    in a single atomic step; in the simulator a broadcast is simply the
    tuple of point-to-point messages produced within one step.
    """
    excluded = set(exclude)
    return tuple([Outgoing(p, payload) for p in processes if p not in excluded])


class Algorithm(abc.ABC):
    """A distributed algorithm in the Section II sense.

    Subclasses provide :meth:`initial_state` (the initial local state for a
    proposal) and :meth:`step` (the combined transition relation and
    message sending function).  The class attribute
    :attr:`requires_failure_detector` declares whether the algorithm
    queries a failure detector at the beginning of each step; the executor
    refuses to run detector-dependent algorithms in models without one.
    """

    #: Human-readable algorithm name (subclasses override).
    name: str = "algorithm"
    #: Whether :meth:`step` expects a failure-detector output.
    requires_failure_detector: bool = False

    @abc.abstractmethod
    def initial_state(
        self, pid: ProcessId, processes: Sequence[ProcessId], proposal: Value
    ) -> ProcessState:
        """Return the initial state of process ``pid``.

        ``processes`` is the full process set ``Pi`` of the system the
        algorithm was designed for — a restricted execution still passes
        the original ``Pi`` (Definition 1 keeps the code, and in particular
        its use of ``|Pi|``, unchanged).
        """

    @abc.abstractmethod
    def step(
        self,
        state: ProcessState,
        delivered: Tuple[object, ...],
        fd_output: Optional[object] = None,
    ) -> StepOutput:
        """Perform one atomic step.

        Parameters
        ----------
        state:
            The current local state (never mutated).
        delivered:
            The messages removed from the process's buffer for this step —
            a tuple of :class:`repro.simulation.message.Message` objects
            (algorithms usually only look at ``.payload`` and ``.sender``).
        fd_output:
            The failure-detector value for this step, or ``None`` when the
            model has no detector.
        """

    # -- conveniences ----------------------------------------------------

    def describe(self) -> str:
        """One-line description used by traces and reports."""
        detector = " (queries a failure detector)" if self.requires_failure_detector else ""
        return f"{self.name}{detector}"

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class RestrictedAlgorithm(Algorithm):
    """The restriction ``A|D`` of Definition 1.

    Wraps an algorithm designed for a system ``Pi`` so it can run in the
    restricted system ``<D>``: the wrapped code is executed unchanged
    (including its knowledge of the original ``Pi``), but every message
    addressed to a process outside ``D`` is dropped from the output of the
    message sending function.
    """

    def __init__(
        self,
        inner: Algorithm,
        full_processes: Sequence[ProcessId],
        subset: Iterable[ProcessId],
    ):
        members = frozenset(subset)
        if not members:
            raise ConfigurationError("the restriction subset D must be nonempty")
        if not members.issubset(set(full_processes)):
            raise ConfigurationError(
                "the restriction subset D must be a subset of the original process set"
            )
        self.inner = inner
        self.full_processes: Tuple[ProcessId, ...] = tuple(full_processes)
        self.subset: frozenset[ProcessId] = members
        self.name = f"{inner.name}|D"
        self.requires_failure_detector = inner.requires_failure_detector

    def initial_state(
        self, pid: ProcessId, processes: Sequence[ProcessId], proposal: Value
    ) -> ProcessState:
        """Delegate to the inner algorithm, always passing the original ``Pi``."""
        if pid not in self.subset:
            raise ConfigurationError(
                f"p{pid} is not part of the restricted system D={sorted(self.subset)}"
            )
        return self.inner.initial_state(pid, self.full_processes, proposal)

    def step(
        self,
        state: ProcessState,
        delivered: Tuple[object, ...],
        fd_output: Optional[object] = None,
    ) -> StepOutput:
        """Run the inner step and drop messages leaving ``D``."""
        output = self.inner.step(state, delivered, fd_output)
        kept = tuple(m for m in output.messages if m.receiver in self.subset)
        return StepOutput(state=output.state, messages=kept)
