"""The stage-1 knowledge graph ``G`` of the Section VI algorithm.

In the two-stage protocol of Fischer, Lynch and Paterson — and in the
paper's generalisation to k-set agreement — every process broadcasts its
identifier in the first stage and then waits for ``L - 1`` such messages.
The resulting "who heard from whom" relation is a directed graph ``G``
with an edge ``u -> w`` whenever ``w`` received the stage-1 message of
``u``.  In the second stage every process broadcasts its proposal together
with the list of the ``L - 1`` processes it heard from, so processes learn
(parts of) ``G`` transitively.

:class:`KnowledgeGraph` is the per-process view of ``G``: it accumulates
"``w`` heard from ``{u_1, ...}``" facts, tracks which processes' in-edge
lists are still missing, and — once the transitive closure of required
information is complete — exposes the source component that reaches the
owning process, from which the decision value is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.graphs.digraph import DiGraph
from repro.types import ProcessId, Value

__all__ = ["KnowledgeGraph", "closure_decision", "complete_closure", "decide_from_reports"]


def _required_closure(
    owner: ProcessId, heard_from: Mapping[ProcessId, Iterable[ProcessId]]
) -> Set[ProcessId]:
    """The in-edge-transitive closure of ``owner`` over ``heard_from``."""
    required: Set[ProcessId] = {owner}
    frontier = [owner]
    while frontier:
        current = frontier.pop()
        for pred in heard_from.get(current, ()):
            if pred not in required:
                required.add(pred)
                frontier.append(pred)
    return required


def _source_components(
    required: Set[ProcessId],
    heard_from: Mapping[ProcessId, Iterable[ProcessId]],
) -> list:
    """Source SCCs of the graph induced on ``required`` by the in-edge lists.

    ``heard_from[w]`` lists the tails of ``w``'s in-edges (``u -> w``).
    Tarjan's algorithm is direction-invariant for the *sets* of strongly
    connected components, so the traversal follows the in-edge lists
    directly; the source test afterwards uses the true edge direction: a
    component is a source iff no member has an in-edge from outside it.
    Runs iteratively (no recursion-depth limit) and allocates nothing
    proportional to the edge count.
    """
    index: Dict[ProcessId, int] = {}
    low: Dict[ProcessId, int] = {}
    on_stack: Set[ProcessId] = set()
    stack: list = []
    components: list = []
    counter = 0
    for root in required:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(heard_from.get(root, ())))]
        while work:
            node, neighbours = work[-1]
            advanced = False
            for succ in neighbours:
                if succ not in required:
                    continue  # pragma: no cover - required is pred-closed
                if succ not in index:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(heard_from.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack and index[succ] < low[node]:
                    low[node] = index[succ]
            if not advanced:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    component: Set[ProcessId] = set()
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    sources = []
    for component in components:
        is_source = True
        for node in component:
            for pred in heard_from.get(node, ()):
                if pred in required and pred not in component:
                    is_source = False
                    break
            if not is_source:
                break
        if is_source:
            sources.append(frozenset(component))
    return sources


def complete_closure(
    owner: ProcessId, heard_from: Mapping[ProcessId, Iterable[ProcessId]]
) -> Optional[Set[ProcessId]]:
    """The owner's in-edge-transitive closure, or ``None`` while incomplete.

    The closure is the set of processes whose reports the owner's
    decision needs.  The walk stops at the first required process with
    no in-edge list in ``heard_from`` (its report has not arrived).
    """
    if owner not in heard_from:
        return None
    required: Set[ProcessId] = {owner}
    frontier = [owner]
    while frontier:
        for pred in heard_from[frontier.pop()]:
            if pred not in required:
                if pred not in heard_from:
                    return None
                required.add(pred)
                frontier.append(pred)
    return required


def _decision_component(
    required: Set[ProcessId],
    heard_from: Mapping[ProcessId, Iterable[ProcessId]],
) -> Optional[FrozenSet[ProcessId]]:
    """The source component of a complete closure with the smallest member."""
    candidates = _source_components(required, heard_from)
    if not candidates:  # pragma: no cover - owner always reaches itself
        return None
    return min(candidates, key=min)


def closure_decision(
    required: Set[ProcessId],
    heard_from: Mapping[ProcessId, Iterable[ProcessId]],
    values: Mapping[ProcessId, Value],
) -> Optional[Value]:
    """The Section VI decision value of a complete closure.

    ``required`` is what :func:`complete_closure` returned.  The value
    is the proposal of the smallest process in any source component of
    the closure, so it depends on the reports of the closure's members
    and on nothing else: not on the owner, and not on reports from
    outside the closure.
    """
    component = _decision_component(required, heard_from)
    if component is None:  # pragma: no cover - owner always reaches itself
        return None
    representative = min(component)
    if representative not in values:  # pragma: no cover - defensive
        return None
    return values[representative]


def decide_from_reports(
    owner: ProcessId,
    heard_from: Mapping[ProcessId, Iterable[ProcessId]],
    values: Mapping[ProcessId, Value],
) -> Optional[Value]:
    """The Section VI decision value straight from raw in-edge lists.

    Equivalent to loading the reports into a :class:`KnowledgeGraph` and
    calling :meth:`KnowledgeGraph.decision_value`, but without allocating
    the graph or coercing the predecessor lists into frozensets.  Returns
    ``None`` while the owner's transitive closure is incomplete.

    This is the one definition of the decision rule, in two halves:
    :func:`complete_closure` walks the closure once, and
    :func:`closure_decision` runs the source-component pass on it.  The
    two-stage protocol calls the halves itself, so that it can look the
    closure's reports up before paying for the pass
    (:meth:`~repro.algorithms.two_stage.TwoStageKnowledgeProtocol._try_decide`).
    """
    required = complete_closure(owner, heard_from)
    if required is None:
        return None
    return closure_decision(required, heard_from, values)


@dataclass
class KnowledgeGraph:
    """A process-local, incrementally learned view of the stage-1 graph.

    Parameters
    ----------
    owner:
        The process building the view (decision rules are relative to it).
    """

    owner: ProcessId
    #: in-edge lists learned so far: ``w -> set of u with edge u -> w``.
    heard_from: Dict[ProcessId, FrozenSet[ProcessId]] = field(default_factory=dict)
    #: proposal values learned so far (stage-2 messages carry them).
    values: Dict[ProcessId, Value] = field(default_factory=dict)

    def record(self, process: ProcessId, predecessors: Iterable[ProcessId], value: Value) -> None:
        """Record that ``process`` heard from ``predecessors`` and proposed ``value``.

        Recording the same process twice with different information raises
        :class:`ValueError` — in the initial-crash model the stage-1 receive
        set of a process is fixed once it enters stage 2, so conflicting
        reports indicate a protocol bug.
        """
        preds = frozenset(predecessors)
        if any(type(p) is not int for p in preds):
            preds = frozenset(int(p) for p in preds)
        if process in self.heard_from and self.heard_from[process] != preds:
            raise ValueError(
                f"conflicting predecessor report for p{process}: "
                f"{sorted(self.heard_from[process])} vs {sorted(preds)}"
            )
        self.heard_from[process] = preds
        self.values[process] = value

    @property
    def known_processes(self) -> FrozenSet[ProcessId]:
        """Processes whose in-edge list (and value) has been learned."""
        return frozenset(self.heard_from)

    def required_processes(self) -> FrozenSet[ProcessId]:
        """The transitive closure of processes whose reports are required.

        Starting from the owner, a process needs the reports of everyone it
        heard from, of everyone those processes heard from, and so on.
        Unknown processes (mentioned in some list but not yet reported) are
        included in the result; completeness is checked separately.
        """
        return frozenset(_required_closure(self.owner, self.heard_from))

    def missing_processes(self) -> FrozenSet[ProcessId]:
        """Required processes whose report has not arrived yet."""
        return frozenset(p for p in self.required_processes() if p not in self.heard_from)

    def is_complete(self) -> bool:
        """``True`` when every transitively required report has arrived."""
        return not self.missing_processes()

    def to_digraph(self) -> DiGraph:
        """Materialise the currently known part of ``G`` as a digraph.

        Only processes with a known in-edge list become nodes; edges from
        not-yet-reported predecessors are included (their endpoint node is
        created implicitly), mirroring the partial knowledge a process has.
        """
        graph = DiGraph()
        for process, predecessors in self.heard_from.items():
            graph.add_node(process)
            for pred in predecessors:
                graph.add_edge(pred, process)
        return graph

    def decision_component(self) -> Optional[FrozenSet[ProcessId]]:
        """Return the source component that determines the owner's decision.

        Requires :meth:`is_complete`; returns ``None`` otherwise.  When the
        view is complete, the induced graph on the required processes
        contains every in-edge of every required process, so its source
        components are genuine source components of the global graph ``G``.
        Among the source components that reach the owner, the one whose
        minimum process identifier is smallest is returned, which makes the
        decision rule deterministic and identical at every process that
        computes it on the same graph.

        The components are computed directly on the in-edge lists: the
        required set is the in-edge-transitive closure of the owner, so
        *every* node of the induced graph reaches the owner and the old
        ``DiGraph``-materialise/induce/condense pipeline (three O(n^2)
        allocations per deciding process — the dominant cost of a
        Section VI run) reduces to one strongly-connected-components pass.
        """
        required = complete_closure(self.owner, self.heard_from)
        if required is None:
            return None  # incomplete: some required report is still missing
        return _decision_component(required, self.heard_from)

    def decision_value(self) -> Optional[Value]:
        """The Section VI decision value, or ``None`` while incomplete.

        The deterministic rule from the paper: take the value proposed by
        the process with the minimal identifier in the decision source
        component.
        """
        component = self.decision_component()
        if component is None:
            return None
        representative = min(component)
        if representative not in self.values:  # pragma: no cover - defensive
            return None
        return self.values[representative]

    def summary(self) -> Mapping[str, object]:
        """A small diagnostic mapping used by traces and examples."""
        return {
            "owner": self.owner,
            "known": tuple(sorted(self.heard_from)),
            "missing": tuple(sorted(self.missing_processes())),
            "complete": self.is_complete(),
        }
