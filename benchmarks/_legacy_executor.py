"""The seed's executor + decision hot path, frozen as a regression reference.

The zero-copy executor PR rebuilt two hot paths:

* the executor's per-step loop (eager ``AdversaryView`` snapshots,
  per-step ``frozenset`` rebuilds, unconditional ``StepEvent`` and
  fd-history recording), and
* the Section VI decision attempt (a :class:`KnowledgeGraph` rebuilt per
  stage-2 step, with a ``DiGraph``-materialise/induce/condense pipeline
  per deciding process).

This module keeps both *pre-refactor* implementations verbatim — the same
idiom ``tests/analysis/test_border_sweep.py`` uses for the pre-campaign
sweep — so the scalability benchmark can assert the measured speedup of
the current engine against the code it replaced, inside one checkout, on
the same machine and interpreter.  ``legacy_execute`` + ``LegacyKSet``
produce bit-identical runs to the current engine (the benchmark asserts
that too); only their cost differs.  Not part of the library: benchmarks
only.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.two_stage import TwoStageState
from repro.exceptions import AdmissibilityError, AlgorithmError, ConfigurationError
from repro.failure_detectors.base import FailurePattern, RecordedHistory
from repro.graphs.knowledge_graph import KnowledgeGraph
from repro.graphs.source_components import reachable_source_components
from repro.simulation.events import StepEvent
from repro.simulation.executor import (
    ExecutionSettings,
    _validate_initial_states,
    _validate_pattern,
    _validate_proposals,
    _validate_transition,
    all_correct_decided,
)
from repro.simulation.message import MessageBuffer
from repro.simulation.run import Run
from repro.simulation.scheduler import AdversaryView, RoundRobinScheduler

__all__ = ["legacy_execute", "LegacyKSet"]


def legacy_execute(algorithm, model, proposals, *, adversary=None,
                   failure_pattern=None, settings=None) -> Run:
    """The seed `execute`: eager snapshot views, full recording, O(n)/step."""
    settings = settings or ExecutionSettings()
    adversary = adversary or RoundRobinScheduler()
    stop_condition = settings.stop_condition or all_correct_decided

    processes = model.processes
    _validate_proposals(proposals, processes)
    pattern = failure_pattern or FailurePattern.all_correct(processes)
    _validate_pattern(pattern, model)

    detector = model.failure_detector
    if algorithm.requires_failure_detector and detector is None:
        raise ConfigurationError(
            f"algorithm {algorithm.name} queries a failure detector but model "
            f"{model.name} provides none"
        )

    states: Dict = {
        pid: algorithm.initial_state(pid, processes, proposals[pid]) for pid in processes
    }
    _validate_initial_states(states)

    buffer = MessageBuffer(processes)
    history = RecordedHistory()
    events = []
    decided = {pid for pid, s in states.items() if s.has_decided}
    correct = pattern.correct & frozenset(processes)

    completed = stop_condition(states, frozenset(decided), correct)
    time = 0
    while not completed and time < settings.max_steps:
        time += 1
        view = AdversaryView(
            time=time,
            processes=processes,
            states=dict(states),
            pending={pid: buffer.pending_for(pid) for pid in processes},
            alive=pattern.alive_at(time),
            correct=correct,
            decided=frozenset(decided),
        )
        directive = adversary.next_step(view)
        if directive is None:
            time -= 1
            break
        pid = directive.pid
        if pid not in states:
            raise AdmissibilityError(f"adversary scheduled unknown process p{pid}")
        if pattern.is_crashed(pid, time):
            raise AdmissibilityError(
                f"adversary scheduled p{pid} at time {time}, but it crashes at "
                f"time {pattern.crash_times.get(pid)}"
            )

        fd_output = None
        if detector is not None:
            fd_output = detector.output(pid, time, pattern)
            history.record(pid, time, fd_output)

        delivered = buffer.take(pid, directive.deliver)

        old_state = states[pid]
        output = algorithm.step(old_state, delivered, fd_output)
        new_state = output.state
        _validate_transition(pid, old_state, new_state)

        sent = []
        for outgoing in output.messages:
            if outgoing.receiver not in states:
                raise AlgorithmError(
                    f"p{pid} sent a message to p{outgoing.receiver}, which is not "
                    f"part of the executed system"
                )
            sent.append(buffer.put(pid, outgoing.receiver, outgoing.payload, time))

        states[pid] = new_state
        newly_decided = new_state.has_decided and not old_state.has_decided
        if newly_decided:
            decided.add(pid)
        events.append(
            StepEvent(
                time=time,
                pid=pid,
                delivered=delivered,
                fd_output=fd_output,
                sent=tuple(sent),
                state_after=new_state,
                newly_decided=newly_decided,
            )
        )
        completed = stop_condition(states, frozenset(decided), correct)

    truncated = not completed and time >= settings.max_steps
    return Run(
        algorithm_name=algorithm.name,
        model_name=model.name,
        processes=processes,
        proposals=dict(proposals),
        events=tuple(events),
        failure_pattern=pattern,
        fd_history=history,
        completed=completed,
        truncated=truncated,
        undelivered=buffer.all_pending(),
    )


class LegacyKSet(KSetInitialCrash):
    """Section VI protocol with the seed's per-step decision attempt.

    The seed ``step`` attempted a decision on *every* stage-2 step (no
    progress guard), rebuilding a :class:`KnowledgeGraph` from the report
    set each time and deciding through the DiGraph materialise/induce
    pipeline.  The decision rule is unchanged, so runs are identical to
    :class:`KSetInitialCrash`; only the cost model is the old one.
    """

    def step(self, state: TwoStageState, delivered, fd_output=None):
        from dataclasses import replace

        from repro.algorithms.base import StepOutput, broadcast

        if state.has_decided:
            return StepOutput(state=state)

        processes = tuple(range(1, self.n + 1))
        outgoing = []
        heard = set(state.heard_stage1)
        reports = set(state.reports)

        for message in delivered:
            payload = message.payload
            kind = payload[0]
            if kind == "S1":
                heard.add(payload[1])
            elif kind == "S2":
                _kind, sender, predecessors, value = payload
                reports.add((sender, tuple(predecessors), value))

        new_state = replace(
            state, heard_stage1=frozenset(heard), reports=frozenset(reports)
        )

        if not new_state.sent_stage1:
            outgoing.extend(
                broadcast(processes, ("S1", state.pid), exclude=(state.pid,))
            )
            new_state = replace(new_state, sent_stage1=True)

        if new_state.stage == 1 and new_state.sent_stage1:
            if len(new_state.heard_stage1 - {state.pid}) >= self.threshold - 1:
                predecessors = tuple(sorted(new_state.heard_stage1 - {state.pid}))
                own_report = (state.pid, predecessors, state.proposal)
                reports = set(new_state.reports)
                reports.add(own_report)
                outgoing.extend(
                    broadcast(
                        processes,
                        ("S2", state.pid, predecessors, state.proposal),
                        exclude=(state.pid,),
                    )
                )
                new_state = replace(
                    new_state,
                    stage=2,
                    sent_stage2=True,
                    predecessors=predecessors,
                    reports=frozenset(reports),
                )

        if new_state.stage == 2:
            decision = self._try_decide(new_state)
            if decision is not None:
                new_state = new_state.decide(decision)

        return StepOutput(state=new_state, messages=tuple(outgoing))

    def _try_decide(self, state: TwoStageState):
        knowledge = KnowledgeGraph(owner=state.pid)
        for process, predecessors, value in state.reports:
            knowledge.record(process, predecessors, value)
        if state.pid not in knowledge.heard_from:
            return None
        if not knowledge.is_complete():
            return None
        required = knowledge.required_processes()
        graph = knowledge.to_digraph().subgraph(required)
        candidates = reachable_source_components(graph, state.pid)
        if not candidates:
            return None
        chosen = min(candidates, key=lambda comp: min(comp))
        representative = min(chosen)
        return knowledge.values.get(representative)
