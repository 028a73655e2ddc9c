"""In-memory result store.

For tests and single-session campaigns that want cache/early-stop
semantics without a file.  Outcomes round-trip through the same codec as
the persistent backends on every ``put``/``get``, so anything that would
fail to persist (an unsupported ``params`` value, say) fails here too —
the memory backend is a behavioural stand-in, not a shortcut.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional

from repro.campaign.codec import outcome_from_dict, outcome_to_dict
from repro.campaign.spec import ScenarioOutcome
from repro.store.base import ResultStore

__all__ = ["MemoryResultStore"]


class MemoryResultStore(ResultStore):
    """Dict-backed store with codec-faithful semantics."""

    def __init__(self) -> None:
        self._records: Dict[str, Dict[str, Any]] = {}

    def get(self, fingerprint: str) -> Optional[ScenarioOutcome]:
        record = self._records.get(fingerprint)
        if record is None:
            return None
        return outcome_from_dict(record)

    def put(self, fingerprint: str, outcome: ScenarioOutcome) -> None:
        self._records[fingerprint] = outcome_to_dict(outcome)

    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self._records)

    def close(self) -> None:
        self._records.clear()
