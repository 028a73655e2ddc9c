"""The bitmask fast path: one verdict-only two-stage run per call.

The zero-copy scalar executor (:func:`repro.simulation.executor.execute`)
pays full Python interpreter overhead per step — a :class:`LazyAdversaryView`,
a :class:`StepDirective`, a frozen dataclass state replace and a handful of
frozenset copies per scheduled process.  For ``VERDICT_ONLY`` campaign
sweeps nothing of that per-step structure survives into the result: the
outcome consumes only the final decision map, the completed/truncated
flags and the volume counters.  :func:`execute_bitmask` replays one
execution of the two-stage protocol over plain locals instead — per-process
knowledge as int bitmasks (bit ``p - 1`` stands for process ``p``), pending
messages as ``(sent_at, is_report, sender)`` triples in send order
(mirroring the id-ordered deques of
:class:`~repro.simulation.message.MessageBuffer`), one decision attempt as
a bitmask closure walk.

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
* stage-2 reports are write-once, so the decision value at closure
  completion is computed by the *same*
  :func:`repro.graphs.knowledge_graph.decide_from_reports` the scalar
  protocol calls — the loop only replaces the per-step "closure still
  incomplete" answers with a bitmask walk;
* the finished execution is returned as a genuine verdict-only
  :class:`~repro.simulation.run.Run`, which callers evaluate with the same
  :class:`~repro.core.ksetagreement.KSetAgreementProblem` machinery.

The ``theorem8-solvable`` scenario kind (:mod:`repro.campaign.scenarios`)
takes this path by itself for every ``VERDICT_ONLY`` spec; everything
else runs the scalar executor.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.algorithms.two_stage import TwoStageKnowledgeProtocol
from repro.exceptions import ConfigurationError
from repro.failure_detectors.base import FailurePattern, RecordedHistory
from repro.graphs.knowledge_graph import decide_from_reports
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


def bits_to_pids(mask: int) -> Tuple[int, ...]:
    """The 1-based process ids of a bitmask, in ascending (sorted) order."""
    return tuple(index + 1 for index in iter_bits(mask))


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
    ``1..n``, the default stop condition and ``VERDICT_ONLY`` recording
    without ``raise_on_exhaustion``.  Any other input raises
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
        or settings.raise_on_exhaustion
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
    """The tight loop: a line-for-line replay of the scalar executor loop
    specialised to the two-stage protocol — crash application, membership
    refresh, scheduler pick, delivery, absorption, stage transitions,
    decision.

    Returns ``(time, completed, decisions, sent, delivered)``.
    """
    threshold_m1 = threshold - 1
    heard = [0] * n  # stage-1 senders each process heard from
    known = [0] * n  # stage-2 reports each process holds
    preds = [0] * n  # write-once predecessor mask of each stage-2 report
    queues = [[] for _ in range(n)]
    decision_value = [None] * n
    crash_count = len(crash_schedule)
    crash_index = 0
    alive = (1 << n) - 1
    decided = 0
    sent_s1 = 0
    stage2 = 0
    sent = 0
    delivered_count = 0
    rng_random = rng.random if rng is not None else None
    rng_choice = rng.choice if rng is not None else None
    rr_last: Optional[int] = None
    candidates: Tuple[int, ...] = ()
    dirty = True
    time = 0
    completed = (correct & ~decided) == 0
    # Reports are write-once and shared by the whole scenario, so the
    # decision reached from a given complete closure mask is the same for
    # every owner inside it: decide_from_reports takes the minimum over
    # the source components of the closure's induced graph, which does
    # not depend on the owner.  Memoising per closure mask turns the
    # n-fold repeated graph analysis into one call per distinct closure.
    decision_cache: Dict[int, Optional[int]] = {}

    while not completed and time < max_steps:
        time += 1
        if crash_index < crash_count and crash_schedule[crash_index][0] <= time:
            while crash_index < crash_count and crash_schedule[crash_index][0] <= time:
                alive &= ~(1 << (crash_schedule[crash_index][1] - 1))
                crash_index += 1
            dirty = True
        if dirty:
            candidates = bits_to_pids(alive & ~decided)
            dirty = False
        if not candidates:
            # the scalar adversary-halt rewind: the aborted step never ran
            time -= 1
            break

        # -- scheduling (exact scalar RNG order) --------------------------
        if rng is None:
            pid = candidates[0]
            if rr_last is not None:
                for candidate in candidates:
                    if candidate > rr_last:
                        pid = candidate
                        break
            rr_last = pid
            i = pid - 1
            delivered = queues[i]
            if delivered:
                queues[i] = []
        else:
            pid = rng_choice(candidates)
            i = pid - 1
            queue = queues[i]
            if queue:
                delivered = []
                kept = []
                for entry in queue:
                    # overdue messages never consume the RNG (short-circuit)
                    if (time - entry[0]) >= max_delay or rng_random() < bias:
                        delivered.append(entry)
                    else:
                        kept.append(entry)
                queues[i] = kept
            else:
                delivered = ()

        # -- absorption ---------------------------------------------------
        heard_i = heard[i]
        known_i = known[i]
        for entry in delivered:
            if entry[1]:
                known_i |= 1 << (entry[2] - 1)
            else:
                heard_i |= 1 << (entry[2] - 1)
        delivered_count += len(delivered)
        new_reports = known_i != known[i]
        heard[i] = heard_i

        # -- stage-1 broadcast --------------------------------------------
        if not (sent_s1 >> i) & 1:
            sent_s1 |= 1 << i
            entry = (time, False, pid)
            for j in range(n):
                if j != i:
                    queues[j].append(entry)
            sent += n - 1

        # -- stage-2 entry (threshold reached) ----------------------------
        if not (stage2 >> i) & 1 and heard_i.bit_count() >= threshold_m1:
            stage2 |= 1 << i
            preds[i] = heard_i  # the frozen predecessor set
            known_i |= 1 << i
            entry = (time, True, pid)
            for j in range(n):
                if j != i:
                    queues[j].append(entry)
            sent += n - 1
            new_reports = True
        known[i] = known_i

        # -- decision attempt ---------------------------------------------
        if new_reports and (stage2 >> i) & 1 and (known_i >> i) & 1:
            required = 0
            frontier = 1 << i
            complete = True
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                j = bit.bit_length() - 1
                if not (known_i >> j) & 1:
                    complete = False
                    break
                required |= bit
                frontier |= preds[j] & ~required & ~frontier
            if complete:
                if required in decision_cache:
                    decision = decision_cache[required]
                else:
                    heard_from = {}
                    report_values = {}
                    for j in iter_bits(required):
                        heard_from[j + 1] = bits_to_pids(preds[j])
                        report_values[j + 1] = values[j]
                    decision = decide_from_reports(pid, heard_from, report_values)
                    decision_cache[required] = decision
                if decision is not None:
                    decision_value[i] = decision
                    decided |= 1 << i
                    dirty = True
                    completed = (correct & ~decided) == 0

    decisions = {i + 1: decision_value[i] for i in iter_bits(decided)}
    return time, completed, decisions, sent, delivered_count
