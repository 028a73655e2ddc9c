"""The two-stage knowledge-graph protocol (FLP Section 4, generalised).

This module implements the protocol the paper describes in Section VI in a
parametric form.  The protocol is designed for asynchronous systems in
which up to ``f`` processes may be *initially dead*; its only parameter is
the waiting threshold ``L``:

* **Stage 1** — every process broadcasts its identifier and waits until it
  has received ``L - 1`` stage-1 messages from other processes.
* **Stage 2** — every process broadcasts its proposal together with the
  list of processes it heard from in stage 1, and waits until it has
  received such reports from every process in the transitive closure of
  "heard from" starting at itself.
* **Decision** — consider the directed graph ``G`` with an edge ``u -> w``
  whenever ``w`` received ``u``'s stage-1 message.  Every vertex of ``G``
  has in-degree at least ``L - 1``, so by Lemma 6 the graph has at most
  ``floor(n / L)`` source components; once a process knows the part of
  ``G`` it transitively depends on, it decides on the proposal of the
  smallest-identifier member of a source component that reaches it.

With ``L = ceil((n + 1) / 2)`` (a correct majority) there is exactly one
source component and the protocol is the FLP consensus algorithm for
initially dead processes; with ``L = n - f`` it is the paper's k-set
agreement protocol, correct whenever ``k >= floor(n / (n - f))``, i.e.
exactly on the solvable side of Theorem 8.

:meth:`TwoStageKnowledgeProtocol.step` is the scalar executor's hot path
on every Section VI run, so it builds one state per step and skips the
decision attempts that cannot succeed (see its docstring for why).  A
decision attempt walks the owner's knowledge closure once; the
source-component pass then runs once per distinct complete closure per
execution, because the protocol instance caches each closure's decision
under the closure's reports (see ``_try_decide``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.algorithms.base import Algorithm, Outgoing, ProcessState, StepOutput
from repro.exceptions import ConfigurationError
from repro.graphs.knowledge_graph import closure_decision, complete_closure
from repro.types import UNDECIDED, ProcessId, Value

__all__ = ["TwoStageState", "TwoStageKnowledgeProtocol"]

#: A stage-2 report: (process, the processes it heard from in stage 1, its proposal).
Report = Tuple[ProcessId, Tuple[ProcessId, ...], Value]


@dataclass(frozen=True, init=False)
class TwoStageState(ProcessState):
    """Local state of the two-stage protocol.

    Fields
    ------
    stage:
        1 while collecting stage-1 messages, 2 afterwards.
    sent_stage1 / sent_stage2:
        Whether the respective broadcast has been performed.
    heard_stage1:
        Senders of the stage-1 messages received so far.
    predecessors:
        The "heard from" list frozen when entering stage 2 (this process's
        in-neighbourhood in the knowledge graph ``G``).
    reports:
        Stage-2 reports received so far (including the process's own).

    Every step builds one state, so the constructor fills the instance
    dict directly instead of calling ``object.__setattr__`` per field;
    the dataclass is otherwise as generated, and :meth:`decide` still
    goes through ``dataclasses.replace``.
    """

    stage: int = 1
    sent_stage1: bool = False
    sent_stage2: bool = False
    heard_stage1: FrozenSet[ProcessId] = frozenset()
    predecessors: Tuple[ProcessId, ...] = ()
    reports: FrozenSet[Report] = frozenset()

    def __init__(
        self,
        pid: ProcessId,
        proposal: Value,
        decision: Value = UNDECIDED,
        stage: int = 1,
        sent_stage1: bool = False,
        sent_stage2: bool = False,
        heard_stage1: FrozenSet[ProcessId] = frozenset(),
        predecessors: Tuple[ProcessId, ...] = (),
        reports: FrozenSet[Report] = frozenset(),
    ) -> None:
        attrs = self.__dict__
        attrs["pid"] = pid
        attrs["proposal"] = proposal
        attrs["decision"] = decision
        attrs["stage"] = stage
        attrs["sent_stage1"] = sent_stage1
        attrs["sent_stage2"] = sent_stage2
        attrs["heard_stage1"] = heard_stage1
        attrs["predecessors"] = predecessors
        attrs["reports"] = reports


class TwoStageKnowledgeProtocol(Algorithm):
    """The parametric two-stage protocol with waiting threshold ``L``.

    Parameters
    ----------
    n:
        System size the protocol is configured for (``|Pi|``).
    threshold:
        The value ``L``; the protocol waits for ``L - 1`` stage-1 messages
        from other processes.  Must satisfy ``1 <= L <= n``.

    An instance keeps one cache: the decisions of the complete knowledge
    closures it has met (see :meth:`_try_decide`).  It never changes a
    step's result, and :meth:`initial_state` empties it.
    """

    requires_failure_detector = False

    def __init__(self, n: int, threshold: int, *, name: Optional[str] = None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if not 1 <= threshold <= n:
            raise ConfigurationError(
                f"the waiting threshold L must satisfy 1 <= L <= n, got L={threshold}, n={n}"
            )
        self.n = n
        self.threshold = threshold
        self.name = name or f"two-stage(L={threshold})"
        self._decisions: Dict[FrozenSet[Report], Optional[Value]] = {}

    # -- protocol ------------------------------------------------------------

    def initial_state(
        self, pid: ProcessId, processes: Sequence[ProcessId], proposal: Value
    ) -> TwoStageState:
        """Initial state; the process set must match the configured ``n``.

        Also empties the decision cache, so that it does not grow from
        one execution to the next.
        """
        if len(processes) != self.n:
            raise ConfigurationError(
                f"{self.name} was configured for n={self.n} but the system has "
                f"{len(processes)} processes"
            )
        self._decisions.clear()
        return TwoStageState(pid=pid, proposal=proposal)

    def step(
        self,
        state: TwoStageState,
        delivered: Tuple[object, ...],
        fd_output: Optional[object] = None,
    ) -> StepOutput:
        """One atomic step: absorb messages, advance stages, decide.

        One state per step: the new state is built by one constructor
        call.  ``heard_stage1`` is rebuilt only when a stage-1 message
        arrives (each one names a new sender), and ``reports`` only when
        a new report does; otherwise the step reuses them.

        A decision is attempted only when the step brought a new report
        *and* the process holds at least ``L`` reports.  The decision
        depends only on the report set, so a step without a new report
        cannot newly complete the knowledge closure.  And the owner's
        closure holds the owner and its at least ``L - 1`` predecessors,
        each of which must have reported; one report covers one process,
        so with fewer than ``L`` reports :meth:`_try_decide` always
        returns ``None``.
        """
        if state.has_decided:
            return StepOutput(state)

        pid = state.pid
        heard = state.heard_stage1
        reports = state.reports
        senders = []
        received = []
        for message in delivered:
            payload = message.payload
            kind = payload[0]
            if kind == "S1":
                senders.append(payload[1])
            elif kind == "S2":
                _kind, sender, predecessors, value = payload
                received.append((sender, tuple(predecessors), value))
        if senders:
            heard = heard.union(senders)
        new_reports = False
        if received:
            grown = reports.union(received)
            if len(grown) != len(reports):
                reports = grown
                new_reports = True

        messages: Tuple[Outgoing, ...] = ()
        if not state.sent_stage1:
            messages = self._broadcast(pid, ("S1", pid))

        stage = state.stage
        sent_stage2 = state.sent_stage2
        predecessors = state.predecessors
        if stage == 1 and len(heard) - (pid in heard) >= self.threshold - 1:
            predecessors = tuple(sorted(heard - {pid}))
            reports = reports.union(((pid, predecessors, state.proposal),))
            messages += self._broadcast(
                pid, ("S2", pid, predecessors, state.proposal)
            )
            stage = 2
            sent_stage2 = True
            new_reports = True

        decision = state.decision
        if new_reports and stage == 2 and len(reports) >= self.threshold:
            value = self._try_decide(pid, reports)
            if value is not None:
                decision = value

        return StepOutput(
            TwoStageState(
                pid, state.proposal, decision, stage, True, sent_stage2,
                heard, predecessors, reports,
            ),
            messages,
        )

    def _broadcast(self, pid: ProcessId, payload: object) -> Tuple[Outgoing, ...]:
        """``payload`` to every other process of ``1..n``, in id order."""
        return tuple([Outgoing(p, payload) for p in range(1, self.n + 1) if p != pid])

    # -- decision ------------------------------------------------------------

    def _try_decide(self, owner: ProcessId, reports: FrozenSet[Report]) -> Optional[Value]:
        """Return the decision value once the knowledge closure is complete.

        Walks the owner's closure over the raw report tuples once
        (:func:`~repro.graphs.knowledge_graph.complete_closure`) and
        returns ``None`` while a required report is missing.  The
        decision of a complete closure depends on the closure's
        ``(pid, predecessors, value)`` reports alone
        (:func:`~repro.graphs.knowledge_graph.closure_decision`), so it
        is cached under the frozenset of those reports, and the
        source-component pass runs only on a miss: the processes of a run
        that complete the same closure pay for one pass between them.
        The key is exact, so an entry is right for every owner and every
        execution that meets the same reports (a bivalence exploration
        steps states of many executions on one instance); emptying the
        cache in :meth:`initial_state` only bounds its size.  Reports are
        write-once per process, so when the closure has as many members
        as there are reports, the key is ``reports`` itself.
        """
        heard_from = {process: predecessors for process, predecessors, _value in reports}
        closure = complete_closure(owner, heard_from)
        if closure is None:
            return None
        key = (reports if len(closure) == len(reports)
               else frozenset([report for report in reports if report[0] in closure]))
        value = self._decisions.get(key)
        if value is None:
            values = {process: proposal for process, _predecessors, proposal in reports}
            value = self._decisions[key] = closure_decision(closure, heard_from, values)
        return value

    # -- documentation helpers -------------------------------------------------

    def max_distinct_decisions(self) -> int:
        """Upper bound on distinct decisions: ``floor(n / L)`` (Lemma 6)."""
        return self.n // self.threshold

    def describe(self) -> str:
        return (
            f"{self.name}: waits for L-1={self.threshold - 1} stage-1 messages, "
            f"decides via source components; at most {self.max_distinct_decisions()} "
            f"distinct decision value(s)"
        )
