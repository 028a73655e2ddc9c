"""In-memory result store.

For tests and single-session campaigns that want cache/early-stop
semantics without a file.  Each ``put`` keeps the row a persistent
backend would write — the encoded spec and the spec-free outcome array
— and every read rebuilds the outcome from it (``get_many`` with the
caller's spec, like SQLite), so anything that would fail to persist (an
unsupported ``params`` value, say) fails here too: the memory backend
is a behavioural stand-in, not a shortcut.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.campaign.codec import (outcome_from_row, outcome_to_row,
                                  spec_from_dict, spec_to_dict)
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.store.base import ResultStore
from repro.store.fingerprint import fingerprint_spec

__all__ = ["MemoryResultStore"]


class MemoryResultStore(ResultStore):
    """Dict-backed store with codec-faithful semantics."""

    def __init__(self) -> None:
        self._records: Dict[str, Tuple[Dict[str, Any], List[Any]]] = {}

    def get(self, fingerprint: str) -> Optional[ScenarioOutcome]:
        record = self._records.get(fingerprint)
        if record is None:
            return None
        spec, row = record
        return outcome_from_row(spec_from_dict(spec), row)

    def get_many(self, specs: Iterable[ScenarioSpec]) -> Dict[str, ScenarioOutcome]:
        hits: Dict[str, ScenarioOutcome] = {}
        for spec in specs:
            digest = fingerprint_spec(spec)
            record = self._records.get(digest)
            if record is not None and digest not in hits:
                hits[digest] = outcome_from_row(spec, record[1])
        return hits

    def put(self, fingerprint: str, outcome: ScenarioOutcome) -> None:
        self._records[fingerprint] = (spec_to_dict(outcome.spec),
                                      outcome_to_row(outcome))

    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self._records)

    def close(self) -> None:
        self._records.clear()
