"""The bitmask fast path: one verdict-only two-stage run per call.

The zero-copy scalar executor (:func:`repro.simulation.executor.execute`)
pays full Python interpreter overhead per step — a :class:`LazyAdversaryView`,
a :class:`StepDirective`, a frozen dataclass state replace and a handful of
frozenset copies per scheduled process.  For ``VERDICT_ONLY`` campaign
sweeps nothing of that per-step structure survives into the result: the
outcome consumes only the final decision map, the completed/truncated
flags and the volume counters.  :func:`execute_bitmask` replays one
execution of the two-stage protocol over plain locals instead:

* **Messages as bits.**  Every message of a run is a broadcast and each
  process sends at most two, so every message is one bit of a 2n-bit
  mask: bit ``j`` is the stage-1 message of process ``j + 1``, bit
  ``n + j`` its stage-2 report.  Each process keeps one mask of the
  messages it has absorbed or sent; its stage-1 "heard" set and the
  reports it knows are the two halves of that int.
* **One broadcast log.**  A send is one entry ``(sent_at << 2n) | bit``
  appended to the run's log, so entries are increasing ints in send
  order (the order of the id-ordered deques of
  :class:`~repro.simulation.message.MessageBuffer`).  Each receiver keeps
  a cursor into the log, moved past its own sends at the end of each of
  its steps, plus the entries it has read but not been delivered.  Round
  robin delivers everything, so it needs no log: a step absorbs
  ``sent & ~seen`` whole.  The random scheduler delivers the overdue
  prefix of the pending entries without a draw (one int comparison
  each) and draws one ``random()`` per remaining entry, in send order.
* **Candidates in place.**  The sorted list of alive, undecided processes
  is edited when a process crashes or decides.  Round robin finds its
  successor with :func:`bisect.bisect_right`; the random pick inlines the
  ``getrandbits`` rejection loop that ``Random.choice`` runs (CPython
  3.10–3.12), so it consumes the same stream.
* **Memoised closures.**  Stage-2 predecessor sets are write-once, so a
  process's report closure is fixed once all its members have entered
  stage 2.  Each owner's closure walk stops at the first member not yet
  in stage 2 and resumes from there once that member has entered it; a
  finished closure is memoised, and later walks take memoised closures
  whole.  A decision attempt is then one mask test, closure ⊆ known
  reports.
* **A bitmask decision.**  With the members' closures as ancestor masks,
  :func:`lowest_source` finds the lowest process in any source component
  of a complete closure — the representative whose value
  :func:`repro.graphs.knowledge_graph.decide_from_reports` returns.  It is
  computed once per distinct closure.

**The scalar executor is the oracle.**  The loop re-implements the
executor loop, the two schedulers and the two-stage protocol *exactly*:

* it consumes the built scheduler's own RNG stream in the same order as
  :class:`~repro.simulation.scheduler.RandomScheduler` (one ``choice`` per
  step, then one ``random()`` per pending message that is not overdue —
  short-circuited exactly like the scalar code), and reads
  ``delivery_bias``/``max_delay`` off that scheduler, so its parameter
  checks are the scheduler constructor's, not a copy;
* validation runs the executor's own helpers in the executor's order, so
  an inadmissible input raises the identical exception;
* the decision rule is a different function from the scalar protocol's
  :func:`~repro.graphs.knowledge_graph.decide_from_reports`, pinned to
  it by a property test over random predecessor graphs
  (``tests/campaign/test_fast_path_oracle.py``), next to the
  outcome-for-outcome and RNG-state comparisons with the scalar executor;
* the finished execution is returned as a genuine verdict-only
  :class:`~repro.simulation.run.Run`, which callers evaluate with the same
  :class:`~repro.core.ksetagreement.KSetAgreementProblem` machinery.

The ``theorem8-solvable`` scenario kind (:mod:`repro.campaign.scenarios`)
takes this path by itself for every ``VERDICT_ONLY`` spec; everything
else runs the scalar executor.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Mapping, Sequence

from repro.algorithms.two_stage import TwoStageKnowledgeProtocol
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern, RecordedHistory
from repro.models.model import SystemModel
from repro.simulation.executor import (
    ExecutionSettings,
    _validate_pattern,
    _validate_proposals,
    all_correct_decided,
)
from repro.simulation.recording import RecordingPolicy
from repro.simulation.run import Run
from repro.simulation.scheduler import Adversary, RandomScheduler, RoundRobinScheduler
from repro.telemetry.spans import span
from repro.types import ProcessId, Value

__all__ = ["execute_bitmask"]


def iter_bits(mask: int):
    """Yield the 0-based indices of the set bits of ``mask``, ascending."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


def execute_bitmask(
    algorithm: TwoStageKnowledgeProtocol,
    model: SystemModel,
    proposals: Mapping[ProcessId, Value],
    *,
    adversary: Adversary,
    failure_pattern: FailurePattern,
    settings: ExecutionSettings,
) -> Run:
    """``execute(...)`` for the two-stage protocol under ``VERDICT_ONLY``.

    Takes the arguments of :func:`repro.simulation.executor.execute` and
    returns the run it would return, for a freshly built
    :class:`~repro.simulation.scheduler.RoundRobinScheduler` or
    :class:`~repro.simulation.scheduler.RandomScheduler`, processes
    ``1..n``, the default stop condition and ``VERDICT_ONLY`` recording.
    Any other input raises
    :class:`~repro.exceptions.ConfigurationError`.

    With an ambient tracer active, the execution is wrapped in an
    ``execute`` span with ``engine="bitmask"`` and the same counters as
    the scalar executor's span.
    """
    if type(adversary) is RandomScheduler:
        # The scheduler's own stream, consumed in its exact order.
        rng = adversary._rng
        bias, max_delay = adversary.delivery_bias, adversary.max_delay
    elif type(adversary) is RoundRobinScheduler:
        rng, bias, max_delay = None, 0.0, 0
    else:
        raise ConfigurationError(
            f"the bitmask loop cannot replay adversary {adversary.describe()}")
    processes = model.processes
    if (
        not isinstance(algorithm, TwoStageKnowledgeProtocol)
        or processes != tuple(range(1, algorithm.n + 1))
        or settings.recording is not RecordingPolicy.VERDICT_ONLY
        or settings.stop_condition not in (None, all_correct_decided)
    ):
        raise ConfigurationError(
            "the bitmask loop replays only the two-stage protocol on "
            "processes 1..n under VERDICT_ONLY recording and the default "
            "stop condition")

    # The executor's validation, in the executor's order.
    _validate_proposals(proposals, processes)
    _validate_pattern(failure_pattern, model)

    n = algorithm.n
    crash_schedule = tuple(
        sorted((t, pid) for pid, t in failure_pattern.crash_times.items()))
    correct = 0
    for pid in failure_pattern.correct:
        correct |= 1 << (pid - 1)
    max_steps = settings.max_steps
    with span("execute", engine="bitmask", algorithm=algorithm.name,
              model=model.name) as opened:
        time, completed, decisions, sent, delivered = _replay(
            n, algorithm.threshold, [proposals[pid] for pid in processes],
            correct, crash_schedule, rng, bias, max_delay, max_steps)
        truncated = not completed and time >= max_steps
        if opened is not None:
            opened.attrs.update(
                steps=time, messages_sent=sent, messages_delivered=delivered,
                completed=completed, truncated=truncated)
    return Run(
        algorithm_name=algorithm.name,
        model_name=model.name,
        processes=processes,
        proposals=dict(proposals),
        events=(),
        failure_pattern=failure_pattern,
        fd_history=RecordedHistory(),
        completed=completed,
        truncated=truncated,
        undelivered=(),
        recording=RecordingPolicy.VERDICT_ONLY,
        final_decisions=decisions,
        final_decision_times=None,
        step_count=time,
        sent_total=sent,
        delivered_total=delivered,
    )


def _replay(n, threshold, values, correct, crash_schedule, rng, bias,
            max_delay, max_steps):
    """The tight loop: a replay of the scalar executor loop specialised to
    the two-stage protocol — crash application, scheduler pick, delivery,
    absorption, stage transitions, decision.

    Returns ``(time, completed, decisions, sent, delivered)``.
    """
    full = (1 << n) - 1
    shift = n + n  # a log entry is (sent_at << shift) | message bit
    low = (1 << shift) - 1
    others = n - 1
    # Per process, the messages it has absorbed or sent: bit j is j's
    # stage-1 message, bit n + j is j's stage-2 report.
    seen = [0] * n
    preds = [0] * n  # write-once predecessor mask of each stage-2 report
    closures = [0] * n  # complete report closures (0: not known yet)
    walk_required = [0] * n  # resumable closure walks, per owner
    walk_frontier = [0] * n
    representatives: Dict[int, int] = {}  # lowest_source per closure
    decision_value = [None] * n
    candidates = list(range(n))  # alive, undecided; ascending
    count = n
    width = count.bit_length()
    crash_count = len(crash_schedule)
    crash_index = 0
    decided = 0
    sent_mask = 0  # every message sent so far
    stage2 = 0
    sent = 0
    delivered = 0
    last = -1  # round robin's previous pick
    if rng is not None:
        getrandbits = rng.getrandbits
        draw = rng.random
        log = []  # every broadcast, in send order
        logged = 0  # len(log)
        cursors = [0] * n  # each receiver's read position in the log
        pending = [[] for _ in range(n)]  # read but undelivered entries
    time = 0
    completed = (correct & ~decided) == 0

    while not completed and time < max_steps:
        time += 1
        if crash_index < crash_count and crash_schedule[crash_index][0] <= time:
            while crash_index < crash_count and crash_schedule[crash_index][0] <= time:
                index = crash_schedule[crash_index][1] - 1
                if index in candidates:
                    candidates.remove(index)
                crash_index += 1
            count = len(candidates)
            width = count.bit_length()
            if not candidates:
                # the scalar adversary-halt rewind: the aborted step never ran
                time -= 1
                break

        if rng is None:
            # round robin: the next candidate after the last one, wrapping;
            # every pending message is delivered.
            position = bisect_right(candidates, last)
            i = last = candidates[position if position < count else 0]
            seen_i = seen[i]
            new = sent_mask & ~seen_i
            if new:
                delivered += new.bit_count()
                seen_i |= new
        else:
            # Random.choice(candidates), inlined: the same getrandbits
            # rejection loop, so the same stream.
            r = getrandbits(width)
            while r >= count:
                r = getrandbits(width)
            i = candidates[r]
            seen_i = seen[i]
            queue = pending[i]
            cursor = cursors[i]
            if cursor < logged:
                queue += log[cursor:]
            new = 0
            if queue:
                # In send order: overdue entries never draw (the scalar
                # short-circuit), the others draw one random() each.
                limit = (time - max_delay + 1) << shift
                kept = []
                for entry in queue:
                    if entry < limit or draw() < bias:
                        new |= entry
                    else:
                        kept.append(entry)
                delivered += len(queue) - len(kept)
                pending[i] = kept
                new &= low
                seen_i |= new

        bit = 1 << i
        if not sent_mask & bit:  # the stage-1 broadcast
            sent_mask |= bit
            seen_i |= bit
            sent += others
            if rng is not None:
                log.append((time << shift) | bit)
                logged += 1
        if not stage2 & bit:
            heard = seen_i & full
            if heard.bit_count() >= threshold:  # own bit included
                stage2 |= bit
                preds[i] = heard ^ bit  # the frozen predecessor set
                walk_frontier[i] = bit
                report = bit << n
                seen_i |= report
                sent_mask |= report
                sent += others
                if rng is not None:
                    log.append((time << shift) | report)
                    logged += 1
                new = report
            else:
                new = 0
        if rng is not None:
            cursors[i] = logged
        seen[i] = seen_i

        # -- decision attempt: only a new report can complete the closure
        if new >> n:
            closure = closures[i]
            if not closure:
                frontier = walk_frontier[i]
                if stage2 & frontier & -frontier:  # the blocker moved on
                    required, frontier = _walk(
                        walk_required[i], frontier, preds, stage2, closures)
                    if frontier:
                        walk_required[i] = required
                        walk_frontier[i] = frontier
                    else:
                        closures[i] = closure = required
            if closure and not closure & ~(seen_i >> n):
                representative = representatives.get(closure)
                if representative is None:
                    for j in iter_bits(closure):
                        if not closures[j]:
                            closures[j] = _walk(
                                0, 1 << j, preds, stage2, closures)[0]
                    representative = lowest_source(closure, closures)
                    representatives[closure] = representative
                value = values[representative]
                if value is not None:
                    decision_value[i] = value
                    decided |= bit
                    candidates.remove(i)
                    count -= 1
                    width = count.bit_length()
                    completed = (correct & ~decided) == 0

    decisions = {i + 1: decision_value[i] for i in iter_bits(decided)}
    return time, completed, decisions, sent, delivered


def _walk(required, frontier, preds, stage2, closures):
    """Advance a report-closure walk over the write-once predecessor masks.

    Expands the lowest frontier node while it is in stage 2; a node with a
    complete memoised closure contributes it whole.  Returns ``(required,
    frontier)``: an empty frontier means ``required`` is the complete
    closure, otherwise the frontier's lowest node has not entered stage 2
    and the walk resumes from this state once it has.
    """
    while frontier:
        bit = frontier & -frontier
        j = bit.bit_length() - 1
        closure = closures[j]
        if closure:
            required |= closure
        elif stage2 & bit:
            required |= bit
            frontier |= preds[j]
        else:
            break
        frontier &= ~required
    return required, frontier


def lowest_source(members: int, ancestors: Sequence[int]) -> int:
    """The lowest process in any source component of ``members``' graph.

    ``members`` is a predecessor-closed mask of the stage-1 graph and
    ``ancestors[j]`` the ancestor mask of each member ``j`` (``j`` itself
    included: its complete report closure).  A member lies in a source
    component exactly when every one of its ancestors is also reachable
    from it, i.e. has it as an ancestor in turn.  Returns the 0-based
    index; :func:`repro.graphs.knowledge_graph.decide_from_reports`
    decides on that process's value.
    """
    for v in iter_bits(members):
        bit = 1 << v
        for u in iter_bits(ancestors[v]):
            if not ancestors[u] & bit:
                break
        else:
            return v
    raise ValueError("an empty mask has no source component")
