"""Pool-wide campaign progress.

A :class:`ProgressReporter` is a callable that consumes the
:class:`~repro.campaign.runner.ScenarioEvent` stream a campaign emits —
one event per finished scenario, built by the runner as the scenario's
slot settles, with the pid of the worker that ran it.  Under the
process backend the events are delivered on the calling thread as
each task's result arrives, so a long multiprocess campaign can be
watched live, one chunk at a time:
scenarios completed out of how many, verdict counts, which worker pids
are alive, throughput.  The reporter keeps its counters under a lock,
so another thread may call :meth:`~ProgressReporter.snapshot` while the
campaign runs.

:class:`~repro.store.caching.CachingRunner` additionally brackets the
stream with :meth:`campaign_started` / :meth:`campaign_finished` and
synthesises ``cached=True`` events for store hits, so the reporter's
totals always add up to the campaign size regardless of how much came
from cache.  :meth:`campaign_started` resets every counter the snapshot
reports, so one reporter reused across campaigns describes only the
current one.

:class:`LogProgressReporter` reports through the logging facade
(:mod:`repro.telemetry.logs`): by default it logs to the shared
``repro`` logger hierarchy (configuring the stderr handler on first
use), while the ``stream=`` escape hatch binds a private plain-format
logger to an explicit stream — same lines, no global logging state,
which is what tests and CLIs capture.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Set, TextIO, Tuple

from repro.campaign.runner import ScenarioEvent
from repro.telemetry.logs import configure, get_logger, stream_logger

__all__ = ["ProgressReporter", "CollectingProgressReporter", "LogProgressReporter"]

#: Narrowest sample window (seconds) the rate/ETA smoother trusts.  Two
#: samples closer than one microsecond are indistinguishable from clock
#: jitter; dividing by such a span manufactures absurd rates.
_MIN_RATE_WINDOW = 1e-6

#: How many recent ``(time, completed)`` samples the rate/ETA smoother
#: keeps.
_SMOOTHING_SAMPLES = 32


class ProgressReporter:
    """Thread-safe counters over a campaign's scenario-event stream.

    Subclasses override :meth:`on_event` (called with the lock *not*
    held) for per-event behaviour; the base class keeps the aggregate
    picture available via :meth:`snapshot` at any time during the run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_at: Optional[float] = None
        self.total = 0
        self.completed = 0
        self.cached = 0
        self.verdicts: Dict[str, int] = {"ok": 0, "violation": 0, "error": 0}
        self.worker_pids: Set[int] = set()

    # -- lifecycle (driven by CachingRunner; optional otherwise) -----------

    def campaign_started(self, total: int) -> None:
        """Start a campaign of ``total`` scenarios from zeroed counters."""
        with self._lock:
            self._started_at = time.perf_counter()
            self.total = total
            self.completed = 0
            self.cached = 0
            self.verdicts = {"ok": 0, "violation": 0, "error": 0}
            self.worker_pids = set()

    def campaign_finished(self) -> None:
        pass

    # -- the event stream --------------------------------------------------

    def __call__(self, event: ScenarioEvent) -> None:
        with self._lock:
            self.completed += 1
            if event.cached:
                self.cached += 1
            self.verdicts[event.verdict] = self.verdicts.get(event.verdict, 0) + 1
            self.worker_pids.add(event.worker_pid)
        self.on_event(event)

    def on_event(self, event: ScenarioEvent) -> None:
        """Per-event hook for subclasses (no-op by default)."""

    # -- inspection --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A consistent aggregate view, safe to call mid-campaign."""
        with self._lock:
            elapsed = (
                time.perf_counter() - self._started_at
                if self._started_at is not None else 0.0
            )
            return {
                "total": self.total,
                "completed": self.completed,
                "cached": self.cached,
                "executed": self.completed - self.cached,
                "workers_seen": len(self.worker_pids),
                "elapsed_seconds": elapsed,
                "scenarios_per_second": self.completed / elapsed if elapsed > 0 else 0.0,
                **dict(self.verdicts),
            }


class CollectingProgressReporter(ProgressReporter):
    """Keeps every event; the assertion-friendly reporter for tests."""

    def __init__(self) -> None:
        super().__init__()
        self._events_lock = threading.Lock()
        self.events: list = []

    def on_event(self, event: ScenarioEvent) -> None:
        with self._events_lock:
            self.events.append(event)


class LogProgressReporter(ProgressReporter):
    """Logs one line every ``every`` scenarios, plus every failure.

    The campaign-visibility default for long sweeps::

        [campaign] 120/4096 (2 cached) ok=116 violation=4 error=0 workers=8 rate=41.2/s eta=96s

    Lines go through the logging facade.  With no ``stream``
    the reporter logs to ``repro.campaign`` (attaching the facade's
    stderr handler on first use — call
    :func:`repro.telemetry.logs.configure` yourself first to choose
    level or format); passing ``stream=`` keeps the historical
    plain-lines-to-this-stream behaviour via a private logger.

    ``rate`` and ``eta`` are smoothed over a sliding window of the last
    32 samples rather than computed since campaign start, so a sweep
    that begins with a burst of free cache hits converges to the true
    execution rate instead of advertising the burst forever.
    """

    def __init__(
        self,
        *,
        every: int = 50,
        stream: Optional[TextIO] = None,
    ):
        super().__init__()
        self._every = max(1, every)
        if stream is not None:
            self._log = stream_logger(stream)
        else:
            configure()
            self._log = get_logger("campaign")
        self._samples_lock = threading.Lock()
        self._samples: Deque[Tuple[float, int]] = deque(maxlen=_SMOOTHING_SAMPLES)

    # -- rate/ETA smoothing ------------------------------------------------

    def _observe_sample(self) -> None:
        with self._samples_lock:
            self._samples.append((time.perf_counter(), self.completed))

    def _rate_eta(self) -> Tuple[float, Optional[float]]:
        """Smoothed scenarios/second and seconds remaining (or ``None``)."""
        with self._samples_lock:
            if len(self._samples) < 2:
                return 0.0, None
            (t0, c0), (t1, c1) = self._samples[0], self._samples[-1]
        span = t1 - t0
        # Same-tick samples give a zero-width window; near-same-tick ones
        # give a positive but meaningless width whose quotient is an
        # absurd rate (and ETA).  Both degrade to "no estimate yet".
        if span < _MIN_RATE_WINDOW or c1 <= c0:
            return 0.0, None
        rate = (c1 - c0) / span
        remaining = self.total - c1
        if self.total <= 0 or remaining < 0:
            return rate, None
        return rate, remaining / rate

    # -- line output -------------------------------------------------------

    def _emit_line(self) -> None:
        snap = self.snapshot()
        rate, eta = self._rate_eta()
        suffix = ""
        if rate > 0.0:
            suffix = f" rate={rate:.1f}/s"
            if eta is not None:
                suffix += f" eta={eta:.0f}s"
        self._log.info(
            "[campaign] %s/%s (%s cached) ok=%s violation=%s error=%s workers=%s%s",
            snap["completed"], snap["total"] or "?", snap["cached"],
            snap["ok"], snap["violation"], snap["error"],
            snap["workers_seen"], suffix,
        )

    def campaign_started(self, total: int) -> None:
        super().campaign_started(total)
        with self._samples_lock:
            self._samples.clear()
        self._log.info("[campaign] started: %s scenarios", total)

    def on_event(self, event: ScenarioEvent) -> None:
        self._observe_sample()
        if event.verdict == "error":
            self._log.warning("[campaign] ERROR %s", event.label)
        if self.completed % self._every == 0:
            self._emit_line()

    def campaign_finished(self) -> None:
        self._emit_line()
