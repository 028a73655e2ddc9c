"""Self-time ledger over wrapped public entry points.

The benchmark traces a campaign from the outside: it replaces public
functions and methods of each layer with timing wrappers for the length
of one run, then restores them.  A layer's *self* time is the time spent
inside its wrapped calls minus the time spent in wrapped calls nested
inside them, so ``CampaignJournal.scenario_event`` (which calls
``.scenario``) or ``Theorem10Scenario.violation_run`` (which calls
``execute`` and ``evaluate``) are never counted twice.  Whatever the
wrapped layers do not cover is reported as ``unaccounted``, so the
layers plus ``unaccounted`` add up to the traced wall time.

The ledger keeps one call stack and is meant for single-threaded runs.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

#: ``(owner, attribute, layer)``: the owner is a module, a class or an
#: instance; the attribute is replaced by a wrapper billing ``layer``.
Target = Tuple[object, str, str]


class Ledger:
    """Accumulates self seconds and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_seconds: Dict[str, float] = {}
        self.calls: Counter = Counter()
        # One entry per open wrapped call: seconds spent in wrapped
        # children so far.
        self._children: List[float] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its self time billed to ``layer``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                nested = self._children.pop()
                self.self_seconds[layer] = (
                    self.self_seconds.get(layer, 0.0) + elapsed - nested)
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed

        return traced

    @contextmanager
    def installed(self, targets: Iterable[Target]) -> Iterator["Ledger"]:
        """Wrap every target for the duration of the ``with`` block."""
        saved = []
        try:
            for owner, name, layer in targets:
                raw = inspect.getattr_static(owner, name)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self.wrap(layer, raw.__func__))
                else:
                    wrapper = self.wrap(layer, getattr(owner, name))
                saved.append((owner, name, raw, name in vars(owner)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, raw, owned in reversed(saved):
                if owned:
                    setattr(owner, name, raw)
                else:
                    # A bound method looked up through the class: drop
                    # the instance attribute so lookup falls back again.
                    delattr(owner, name)

    def account(self, wall_seconds: float) -> Dict[str, float]:
        """Self seconds per layer plus ``unaccounted``; sums to the wall."""
        layers = dict(self.self_seconds)
        layers["unaccounted"] = wall_seconds - sum(layers.values())
        return layers
