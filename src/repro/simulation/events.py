"""Step events: the recorded atoms of a run.

A run is an infinite sequence of configurations in the paper; the
simulator records the finite prefix it constructs as a sequence of
:class:`StepEvent` objects, one per atomic step.  Each event captures
everything needed to reconstruct the configuration sequence, check
indistinguishability (Definition 2) and evaluate the k-set agreement
properties: the stepping process, the delivered messages, the
failure-detector value (if any), the messages sent, and the state after
the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.algorithms.base import ProcessState
from repro.simulation.message import Message
from repro.types import ProcessId, Time

__all__ = ["StepEvent"]


@dataclass(frozen=True, init=False)
class StepEvent:
    """One atomic step of one process.

    Attributes
    ----------
    time:
        Global step index (the paper's notion of time).
    pid:
        The process that took the step.
    delivered:
        Messages removed from the process's buffer in this step.
    fd_output:
        The failure-detector value queried at the beginning of the step
        (``None`` in detector-free models).
    sent:
        Messages placed into other processes' buffers by this step.
    state_after:
        The process's local state after the step.
    newly_decided:
        ``True`` when the write-once output was set in this very step.

    The scalar executor builds one event per step, so the constructor fills
    the instance dict directly instead of calling ``object.__setattr__``
    per field; the dataclass is otherwise as generated.
    """

    time: Time
    pid: ProcessId
    delivered: Tuple[Message, ...]
    fd_output: Optional[object]
    sent: Tuple[Message, ...]
    state_after: ProcessState
    newly_decided: bool = False

    def __init__(
        self,
        time: Time,
        pid: ProcessId,
        delivered: Tuple[Message, ...],
        fd_output: Optional[object],
        sent: Tuple[Message, ...],
        state_after: ProcessState,
        newly_decided: bool = False,
    ) -> None:
        attrs = self.__dict__
        attrs["time"] = time
        attrs["pid"] = pid
        attrs["delivered"] = delivered
        attrs["fd_output"] = fd_output
        attrs["sent"] = sent
        attrs["state_after"] = state_after
        attrs["newly_decided"] = newly_decided

    @property
    def senders_heard(self) -> Tuple[ProcessId, ...]:
        """Identifiers of the processes whose messages were delivered here."""
        return tuple(m.sender for m in self.delivered)

    def describe(self) -> str:
        """One-line human-readable rendering used by trace printers."""
        recv = ",".join(f"p{m.sender}#{m.msg_id}" for m in self.delivered) or "-"
        sent = ",".join(f"p{m.receiver}#{m.msg_id}" for m in self.sent) or "-"
        decided = f" DECIDED {self.state_after.decision!r}" if self.newly_decided else ""
        fd = f" fd={self.fd_output!r}" if self.fd_output is not None else ""
        return f"t={self.time:<5} p{self.pid}: recv[{recv}] send[{sent}]{fd}{decided}"
