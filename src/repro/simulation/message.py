"""Messages and per-process message buffers.

The communication subsystem of the paper's model is "one buffer per
process, which contains messages that have been sent to that process but
not yet received".  :class:`MessageBuffer` is exactly that: a mapping from
receivers to their pending messages, with no ordering guarantees beyond
what an adversary chooses to deliver (the unfavourable message-order
parameter); ordered-delivery models are obtained by using schedulers that
always deliver the oldest pending messages first.

The per-receiver queues are :class:`collections.deque`\\ s and
:meth:`MessageBuffer.take` removes the selected messages in a single
rotation pass — the buffer sits on the executor's hot path, where the old
select-then-rebuild implementation scanned every queue twice per step.
Queues are always ordered by message id (ids are assigned in send order),
which is what lets a rejected ``take`` restore the queue exactly.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import SimulationError
from repro.types import ProcessId, Time

__all__ = ["Message", "MessageBuffer"]


@dataclass(frozen=True, init=False)
class Message:
    """A single message in flight or delivered.

    Attributes
    ----------
    msg_id:
        Unique identifier within one execution (assigned by the buffer).
    sender / receiver:
        Process identifiers.
    payload:
        Arbitrary algorithm-defined content.
    sent_at:
        The time (global step index) of the sending step.

    One message is built per message sent, so the constructor is written
    by hand: it fills the instance dict directly, where the generated
    frozen ``__init__`` calls ``object.__setattr__`` once per field.  The
    dataclass is otherwise as generated (eq, hash, ``replace``,
    pickling, ``FrozenInstanceError`` on assignment).
    """

    msg_id: int
    sender: ProcessId
    receiver: ProcessId
    payload: object
    sent_at: Time

    def __init__(
        self, msg_id: int, sender: ProcessId, receiver: ProcessId,
        payload: object, sent_at: Time,
    ) -> None:
        attrs = self.__dict__
        attrs["msg_id"] = msg_id
        attrs["sender"] = sender
        attrs["receiver"] = receiver
        attrs["payload"] = payload
        attrs["sent_at"] = sent_at

    def __repr__(self) -> str:
        return (
            f"Message(#{self.msg_id} p{self.sender}->p{self.receiver} "
            f"@{self.sent_at} {self.payload!r})"
        )


class MessageBuffer:
    """The per-process buffers of the communication subsystem.

    The buffer assigns message identifiers, tracks pending (sent but not
    yet received) messages per receiver and remembers how many messages
    were ever sent/delivered — counters the benchmarks report.
    """

    def __init__(self, processes: Iterable[ProcessId]):
        self._pending: Dict[ProcessId, Deque[Message]] = {p: deque() for p in processes}
        self._ids = itertools.count(1)
        self.sent_count = 0
        self.delivered_count = 0

    # -- sending ----------------------------------------------------------

    def put(self, sender: ProcessId, receiver: ProcessId, payload: object, sent_at: Time) -> Message:
        """Place a new message into the receiver's buffer and return it."""
        queue = self._pending.get(receiver)
        if queue is None:
            raise SimulationError(f"message addressed to unknown process p{receiver}")
        # Positional arguments: cheaper than keywords, once per message sent.
        message = Message(next(self._ids), sender, receiver, payload, sent_at)
        queue.append(message)
        self.sent_count += 1
        return message

    # -- receiving ---------------------------------------------------------

    def pending_for(self, receiver: ProcessId) -> Tuple[Message, ...]:
        """All messages currently buffered for ``receiver`` (oldest first)."""
        queue = self._pending.get(receiver)
        return tuple(queue) if queue else ()

    def take(self, receiver: ProcessId, msg_ids: Iterable[int]) -> Tuple[Message, ...]:
        """Remove and return the messages with the given ids for ``receiver``.

        Requesting an id that is not pending for the receiver raises
        :class:`repro.exceptions.SimulationError` — adversaries must only
        deliver messages that exist.  A rejected ``take`` leaves the
        buffer unchanged.
        """
        wanted = set(msg_ids)
        if not wanted:
            return ()
        queue = self._pending.get(receiver)
        selected: List[Message] = []
        if queue:
            # Single rotation pass: every message is popped exactly once;
            # the ones not selected re-enter the queue in arrival order.
            for _ in range(len(queue)):
                message = queue.popleft()
                if message.msg_id in wanted:
                    selected.append(message)
                else:
                    queue.append(message)
        if len(selected) != len(wanted):
            if selected and queue is not None:
                # Queues are ordered by id, so merging by id restores the
                # exact pre-call queue before we report the failure.
                restored = sorted((*queue, *selected), key=lambda m: m.msg_id)
                queue.clear()
                queue.extend(restored)
            missing = wanted - {m.msg_id for m in selected}
            raise SimulationError(
                f"cannot deliver unknown/foreign message ids {sorted(missing)} to p{receiver}"
            )
        self.delivered_count += len(selected)
        return tuple(selected)

    # -- inspection ----------------------------------------------------------

    def in_flight(self) -> int:
        """Total number of pending messages."""
        return sum(len(queue) for queue in self._pending.values())

    def all_pending(self) -> Tuple[Message, ...]:
        """Every pending message, grouped by receiver."""
        return tuple(m for queue in self._pending.values() for m in queue)

    def receivers(self) -> Tuple[ProcessId, ...]:
        """The processes this buffer knows about."""
        return tuple(self._pending)

    def knows_receiver(self, receiver: ProcessId) -> bool:
        """``True`` when ``receiver`` is a process of this buffer."""
        return receiver in self._pending

    def oldest_pending(self, receiver: ProcessId) -> Optional[Message]:
        """The oldest pending message for ``receiver`` (or ``None``)."""
        queue = self._pending.get(receiver)
        return queue[0] if queue else None
