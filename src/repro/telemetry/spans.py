"""Hierarchical spans: where a campaign's time actually goes.

A :class:`Tracer` collects :class:`SpanRecord`\\ s — plain, picklable
"this named thing took this long" facts with parent/child structure —
for one traced unit of work (typically one scenario).  Spans nest via a
per-thread stack, so ``tracer.span("scenario")`` around a scenario and
``tracer.span("decision")`` inside it produce the correct hierarchy
without any explicit plumbing.

The tracer is *ambient*: :func:`activate` installs it for the current
thread and :func:`current_tracer` retrieves it (``None`` when telemetry
is off, which is the default).  This is what keeps the executor's hot
path hot — :func:`~repro.simulation.executor.execute` fetches the
ambient tracer **once** per execution, and with no tracer active the
only per-step residue is an ``if phases is not None`` check on a local:
no allocation, no call, no dict lookup.

Per-step phase attribution uses a :class:`PhaseAccumulator` instead of
real per-step spans: opening four spans per executor step would distort
exactly the loop being measured, so whenever a tracer is active the
executor builds one accumulator, calls :meth:`PhaseAccumulator.lap` at
its phase boundaries, and :meth:`Tracer.finish_with_phases` emits the
totals as one aggregate child span per phase (``phase:scheduling``,
``phase:delivery``, …) when the execution ends.

Timestamps: a span's *position* on the timeline is wall-clock
(``time.time`` — comparable across worker processes), its *duration* is
monotonic (``time.perf_counter`` — immune to clock steps).  This module
imports only the stdlib, so it sits below every other layer of the
package and both the simulation engine and the campaign runner may use
it freely.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "SpanRecord",
    "PhaseAccumulator",
    "Tracer",
    "activate",
    "deactivate",
    "activated",
    "current_tracer",
    "span",
]

#: The executor's per-step phases, in loop order.  Time between two lap
#: points is attributed to the later point's phase.
EXECUTE_PHASES = ("scheduling", "delivery", "transition", "recording")


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: plain data, picklable across process boundaries.

    ``trace_id`` is the correlation id of the whole trace (the campaign
    id, for campaign-driven tracing); ``span_id``/``parent_id`` encode
    the hierarchy *within one process* (ids are unique per tracer, and
    tracers are per-scenario, so cross-process collisions cannot
    conflate unrelated spans of one trace file — pid disambiguates).
    """

    name: str
    trace_id: str
    span_id: int
    parent_id: Optional[int]
    pid: int
    tid: int
    start_ts: float  #: wall-clock seconds (``time.time``) at span start
    duration: float  #: monotonic seconds (``time.perf_counter`` delta)
    attrs: Mapping[str, Any] = field(default_factory=dict)


class _OpenSpan:
    """A span that has started but not ended (mutable, tracer-internal)."""

    __slots__ = ("name", "span_id", "parent_id", "start_ts", "start_perf", "attrs")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 attrs: Dict[str, Any]):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ts = time.time()
        self.start_perf = time.perf_counter()
        self.attrs = attrs


class PhaseAccumulator:
    """Per-phase time totals over one executor loop, one lap at a time.

    ``lap(phase)`` attributes the time since the previous lap (or since
    construction) to ``phase``.  The accumulator is deliberately dumb —
    two perf-counter reads and a dict update per lap — because it runs
    inside the measured loop.
    """

    __slots__ = ("_last", "_phases")

    def __init__(self) -> None:
        self._last = time.perf_counter()
        self._phases: Dict[str, List[float]] = {}

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        entry = self._phases.get(phase)
        if entry is None:
            self._phases[phase] = [now - self._last, 1]
        else:
            entry[0] += now - self._last
            entry[1] += 1
        self._last = now

    def totals(self) -> Tuple[Tuple[str, float, int], ...]:
        """``(phase, seconds, laps)`` triples in first-lap order."""
        return tuple(
            (name, entry[0], int(entry[1])) for name, entry in self._phases.items()
        )


class Tracer:
    """Collects spans for one traced unit of work (thread-safe).

    A tracer is cheap to construct; campaign workers build one per
    *sampled* scenario and ship its drained records back to the parent
    on the scenario's event.  The span stack is per-thread, so a tracer
    shared across threads never corrupts its hierarchy.
    """

    def __init__(self, trace_id: str = ""):
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._stack = threading.local()
        self._ids = itertools.count(1)

    # -- the span stack ----------------------------------------------------

    def _stack_items(self) -> List[_OpenSpan]:
        items = getattr(self._stack, "items", None)
        if items is None:
            items = self._stack.items = []
        return items

    def start_span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> _OpenSpan:
        stack = self._stack_items()
        parent_id = stack[-1].span_id if stack else None
        opened = _OpenSpan(name, next(self._ids), parent_id, dict(attrs or {}))
        stack.append(opened)
        return opened

    def end_span(self, opened: _OpenSpan) -> Optional[SpanRecord]:
        """End ``opened``, recording it; abandoned children are dropped.

        An exception inside a traced region can leave child spans open
        (the executor does not wrap its loop in try/finally — the error
        path is not the measured path).  Ending an ancestor pops and
        discards them, so the stack self-heals instead of corrupting the
        hierarchy of later spans.
        """
        duration = time.perf_counter() - opened.start_perf
        stack = self._stack_items()
        while stack:
            if stack.pop() is opened:
                record = SpanRecord(
                    name=opened.name,
                    trace_id=self.trace_id,
                    span_id=opened.span_id,
                    parent_id=opened.parent_id,
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    start_ts=opened.start_ts,
                    duration=duration,
                    attrs=opened.attrs,
                )
                with self._lock:
                    self._records.append(record)
                return record
        return None  # already discarded by an ancestor's end_span

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[_OpenSpan]:
        opened = self.start_span(name, attrs)
        try:
            yield opened
        finally:
            self.end_span(opened)

    # -- executor integration ----------------------------------------------

    def finish_with_phases(
        self,
        opened: _OpenSpan,
        phases: PhaseAccumulator,
        **attrs: Any,
    ) -> Optional[SpanRecord]:
        """End an execute-level span and emit its aggregate phase children.

        Phase children are laid out back to back from the parent's start
        so trace viewers render them as one flame row; each carries its
        lap count, making "seconds per step per phase" a one-division
        query in the report.
        """
        opened.attrs.update(attrs)
        record = self.end_span(opened)
        if record is None:
            return record
        offset = 0.0
        children = []
        for name, seconds, laps in phases.totals():
            children.append(SpanRecord(
                name=f"phase:{name}",
                trace_id=self.trace_id,
                span_id=next(self._ids),
                parent_id=record.span_id,
                pid=record.pid,
                tid=record.tid,
                start_ts=record.start_ts + offset,
                duration=seconds,
                attrs={"laps": laps},
            ))
            offset += seconds
        with self._lock:
            self._records.extend(children)
        return record

    # -- harvesting --------------------------------------------------------

    def records(self) -> Tuple[SpanRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def drain(self) -> Tuple[SpanRecord, ...]:
        """Return all records collected so far and forget them."""
        with self._lock:
            records = tuple(self._records)
            self._records.clear()
        return records


# -- the ambient tracer -------------------------------------------------------

_AMBIENT = threading.local()


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the current thread's ambient tracer."""
    _AMBIENT.tracer = tracer
    return tracer


def deactivate() -> None:
    """Remove the current thread's ambient tracer (telemetry off again)."""
    _AMBIENT.tracer = None


def current_tracer() -> Optional[Tracer]:
    """The ambient tracer, or ``None`` — the telemetry-off default."""
    return getattr(_AMBIENT, "tracer", None)


@contextmanager
def activated(tracer: Tracer) -> Iterator[Tracer]:
    """``with activated(Tracer(...)) as t:`` — scoped ambient tracing."""
    previous = current_tracer()
    activate(tracer)
    try:
        yield tracer
    finally:
        _AMBIENT.tracer = previous


def span(name: str, **attrs: Any):
    """A span on the ambient tracer, or a no-op when telemetry is off.

    The convenience for instrumenting code outside the executor's hot
    loop (scenario kinds wrap their decision/SCC evaluation in one);
    costs a single function call and a ``nullcontext`` when disabled.
    """
    tracer = current_tracer()
    if tracer is None:
        return nullcontext()
    return tracer.span(name, **attrs)
