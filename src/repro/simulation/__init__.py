"""The executable message-passing substrate.

This subpackage turns the paper's abstract computation model (Section II)
into runnable code: processes are deterministic state machines
(:mod:`repro.algorithms.base`), the communication subsystem is one buffer
per process (:mod:`repro.simulation.message`), a *run* is the recorded
sequence of steps together with the failure pattern and failure-detector
history (:mod:`repro.simulation.run`), and the choice of which process
steps next, which messages it receives and who crashes when is made by an
*adversary* (:mod:`repro.simulation.scheduler`,
:mod:`repro.simulation.adversary`).  The executor
(:mod:`repro.simulation.executor`) drives the loop, enforces the step
contract and produces :class:`~repro.simulation.run.Run` objects that the
core theorem machinery and the benchmarks analyse.
"""

from repro.simulation.message import Message, MessageBuffer
from repro.simulation.events import StepEvent
from repro.simulation.run import Run
from repro.simulation.scheduler import (
    Adversary,
    AdversaryView,
    LazyAdversaryView,
    StepDirective,
    RoundRobinScheduler,
    RandomScheduler,
)
from repro.simulation.adversary import (
    PartitioningAdversary,
    IsolationAdversary,
    SilenceAdversary,
)
from repro.simulation.executor import ExecutionSettings, execute

__all__ = [
    "Message",
    "MessageBuffer",
    "StepEvent",
    "Run",
    "Adversary",
    "AdversaryView",
    "LazyAdversaryView",
    "StepDirective",
    "RoundRobinScheduler",
    "RandomScheduler",
    "PartitioningAdversary",
    "IsolationAdversary",
    "SilenceAdversary",
    "ExecutionSettings",
    "execute",
]
