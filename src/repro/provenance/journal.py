"""The append-only campaign journal: what ran, why, and at what cost.

A store remembers *outcomes*; the journal remembers *decisions*.  Every
campaign run through :class:`~repro.store.caching.CachingRunner` appends
one ``campaign-start`` record, one ``scenario`` record per position
that ran or was skipped (``ran`` / ``skipped``, each with its
:class:`~repro.provenance.usage.ResourceUsage`), at most two ``cached``
records listing the fingerprints of the positions served without
running (the store hits before the run, the duplicate positions after
it) with their summed usage, optional ``early-stop`` records naming the
certified points, and a ``campaign-finish`` record — making a sweep
auditable after the fact: exactly what executed, what was served from
cache, what an adaptive budget dropped, and what it all cost.  A
``scenario`` record with the ``cached`` decision, one per position,
stays valid: journals written before the ``cached`` record replay as
they always did.

The format mirrors the JSONL result store on purpose: one
schema-versioned JSON object per line, appended with a ``write + flush``
so a SIGKILL loses at most the line being written.  Reading is
torn-tail-safe (:func:`read_journal` drops a torn final line, reports
mid-file corruption loudly, skips rows of other journal versions) and
the writer is **thread-safe**: campaigns append every record from the
calling thread, but one journal may be shared by threads running
campaigns side by side, and its lines must never interleave.

:func:`replay_ledger` folds a journal (possibly spanning several
campaigns, including killed ones) back into a :class:`JournalReplay`:
per-campaign ledgers whose ``ran + cached + skipped`` counts must sum to
the campaign size, and a merged per-fingerprint decision map — a killed
and resumed campaign replays to the *same* merged ledger as an
uninterrupted one.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import jsonlog
from repro.exceptions import ConfigurationError
from repro.provenance.usage import ResourceUsage

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SCENARIO_DECISIONS",
    "CampaignJournal",
    "CampaignLedger",
    "JournalReplay",
    "read_journal",
    "record_elapsed",
    "replay_ledger",
]

#: Bump on a change to an existing record's schema; readers skip rows of
#: other versions (they can still be inspected as raw JSON).  A new
#: record type is additive and does not bump it: a bump would make every
#: existing journal read as empty, while an older reader fails loudly on
#: the type it does not know (the ``cached`` record joined this way).
JOURNAL_SCHEMA_VERSION = 1

#: How a scenario position was settled.  ``ran`` — executed this
#: campaign; ``cached`` — served from the store (or replayed from a
#: duplicate position's execution); ``skipped`` — dropped by an
#: early-stop policy.
SCENARIO_DECISIONS = ("ran", "cached", "skipped")

_RECORD_TYPES = ("campaign-start", "scenario", "cached", "early-stop",
                 "campaign-finish")


def _jsonable(value: Any) -> Any:
    """Best-effort JSON-safe projection for point keys and metadata."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    return repr(value)


class CampaignJournal:
    """Thread-safe append-only writer for one journal file.

    Opening the journal validates (and heals, exactly like the JSONL
    result store) the existing file, so appends always start on a clean
    line; the file then only ever grows.  The open streams the file one
    line at a time and keeps no record, so its memory does not grow
    with the journal.  ``close()`` is idempotent and the journal is a
    context manager.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        jsonlog.heal(self._path, _check,
                     f"corrupt campaign journal {self._path}: unreadable record")
        self._lock = threading.Lock()
        self._file = self._path.open("a", encoding="utf-8")
        # Monotonic origin for per-record ``elapsed`` stamps.  ``ts`` is
        # wall-clock (time.time) — human-readable, joinable across hosts,
        # but steppable by NTP; ``elapsed`` (perf_counter seconds since
        # this journal handle opened) is what duration arithmetic between
        # records of one session should use.
        self._opened_perf = time.perf_counter()

    @property
    def path(self) -> Path:
        return self._path

    # -- the record stream -------------------------------------------------

    def campaign_started(
        self,
        campaign: str,
        total: int,
        *,
        backend: str = "serial",
        workers: Optional[int] = None,
    ) -> None:
        self._append({
            "type": "campaign-start",
            "campaign": campaign,
            "total": int(total),
            "backend": backend,
            "workers": workers,
            "pid": os.getpid(),
        })

    def scenario(
        self,
        campaign: str,
        fingerprint: str,
        decision: str,
        *,
        verdict: str = "",
        usage: Optional[ResourceUsage] = None,
        label: str = "",
        worker_pid: Optional[int] = None,
    ) -> None:
        if decision not in SCENARIO_DECISIONS:
            raise ConfigurationError(
                f"unknown scenario decision {decision!r}; one of {SCENARIO_DECISIONS}"
            )
        self._append({
            "type": "scenario",
            "campaign": campaign,
            "fp": str(fingerprint),
            "decision": decision,
            "verdict": verdict,
            "label": label,
            "worker_pid": worker_pid,
            "usage": (usage or ResourceUsage()).to_dict(),
        })

    def cached(self, campaign: str, fingerprints: Sequence[str],
               usage: ResourceUsage) -> None:
        """Journal positions served without running, in one record.

        ``fingerprints`` has one entry per position (a fingerprint at
        two positions appears twice) and ``usage`` is their summed
        :class:`~repro.provenance.usage.ResourceUsage`, at 0 seconds.
        No positions, no record: a campaign with nothing cached has no
        ``cached`` record.
        """
        if not fingerprints:
            return
        self._append({
            "type": "cached",
            "campaign": campaign,
            "fps": [str(fingerprint) for fingerprint in fingerprints],
            "usage": usage.to_dict(),
        })

    def scenario_event(self, campaign: str, event: Any) -> None:
        """Journal one :class:`~repro.campaign.runner.ScenarioEvent`.

        The decision is read off the event: ``cached`` events are store
        hits (or duplicate-position replays), everything else ran.
        """
        self.scenario(
            campaign,
            event.fingerprint,
            "cached" if event.cached else "ran",
            verdict=event.verdict,
            usage=event.usage,
            label=event.label,
            worker_pid=event.worker_pid,
        )

    def early_stop(self, campaign: str, point: Any, verdict: str) -> None:
        self._append({
            "type": "early-stop",
            "campaign": campaign,
            "point": _jsonable(point),
            "verdict": verdict,
        })

    def campaign_finished(self, campaign: str, stats: Optional[Dict[str, Any]] = None) -> None:
        self._append({
            "type": "campaign-finish",
            "campaign": campaign,
            "stats": dict(stats) if stats else {},
        })

    # -- plumbing ----------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        record = {
            "v": JOURNAL_SCHEMA_VERSION,
            "ts": time.time(),
            "elapsed": round(time.perf_counter() - self._opened_perf, 6),
            **record,
        }
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            # One write + flush per record, under the lock: lines never
            # interleave even when several threads journal concurrently,
            # and a kill tears at most the final line (which
            # read_journal drops).
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- reading -----------------------------------------------------------------


def _check(record: Any) -> None:
    """The journal's shape check; keeps nothing (the writer's open)."""
    if not isinstance(record, dict) or "type" not in record:
        raise ConfigurationError(f"not a journal record: {record!r}")


def _accept(record: Any) -> Optional[Dict[str, Any]]:
    """The journal's shape check, then its version filter."""
    _check(record)
    return record if record.get("v") == JOURNAL_SCHEMA_VERSION else None


def read_journal(path: Union[str, Path]) -> Tuple[Dict[str, Any], ...]:
    """All current-version records of a journal file, in append order.

    A torn final line is dropped; an unreadable line with data after it
    raises (:mod:`repro.jsonlog`).  The file is streamed from disk, so
    the read holds only the records it returns.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no campaign journal at {path}")
    with open(path, "rb") as lines:
        records, _ = jsonlog.read(
            lines, _accept, f"corrupt campaign journal {path}: unreadable record")
    return tuple(records)


def record_elapsed(record: Dict[str, Any]) -> Optional[float]:
    """The record's monotonic ``elapsed`` stamp, or ``None``.

    Journals written before the ``elapsed`` field existed (or records
    with a mangled value) simply have no monotonic stamp — readers fall
    back to the wall-clock ``ts`` for those, accepting its clock-step
    hazard.  Use this instead of indexing the field so old journals keep
    replaying.
    """
    value = record.get("elapsed")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


# -- replay ------------------------------------------------------------------


@dataclass
class CampaignLedger:
    """One campaign's per-scenario accounting, replayed from the journal."""

    campaign: str
    total: int
    backend: str = "serial"
    workers: Optional[int] = None
    ran: int = 0
    cached: int = 0
    skipped: int = 0
    usage: ResourceUsage = field(default_factory=ResourceUsage)
    early_stops: Tuple[Tuple[Any, str], ...] = ()
    finished: bool = False
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def recorded(self) -> int:
        """Scenario records seen; equals ``total`` for finished campaigns."""
        return self.ran + self.cached + self.skipped

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "total": self.total,
            "backend": self.backend,
            "workers": self.workers,
            "ran": self.ran,
            "cached": self.cached,
            "skipped": self.skipped,
            "finished": self.finished,
            "seconds": round(self.usage.seconds, 6),
            "steps": self.usage.steps,
            "messages_sent": self.usage.messages_sent,
            "messages_delivered": self.usage.messages_delivered,
        }


#: Merge precedence for the cross-campaign decision map: having run
#: anywhere outweighs cache hits, which outweigh skips.
_DECISION_RANK = {"skipped": 0, "cached": 1, "ran": 2}


@dataclass
class JournalReplay:
    """A journal folded back into ledgers and a merged decision map."""

    campaigns: Dict[str, CampaignLedger]
    decisions: Dict[str, str]
    ran_counts: Dict[str, int]
    scenario_records: Tuple[Dict[str, Any], ...]
    #: The ``cached`` records, each listing positions and their summed usage.
    cached_records: Tuple[Dict[str, Any], ...]

    @property
    def ran_fingerprints(self) -> frozenset:
        return frozenset(fp for fp, d in self.decisions.items() if d == "ran")

    @property
    def cached_fingerprints(self) -> frozenset:
        return frozenset(fp for fp, d in self.decisions.items() if d == "cached")

    def total_usage(self, *, include_cached: bool = False) -> ResourceUsage:
        """Summed cost of everything that ran (optionally cache hits too)."""
        total = ResourceUsage()
        for record in self.scenario_records:
            if record["decision"] == "ran" or (
                include_cached and record["decision"] == "cached"
            ):
                total = total + ResourceUsage.from_dict(record["usage"])
        if include_cached:
            for record in self.cached_records:
                total = total + ResourceUsage.from_dict(record.get("usage", {}))
        return total


def _decide(decisions: Dict[str, str], fingerprint: str, decision: str) -> None:
    """Merge one position's decision into the cross-campaign map."""
    previous = decisions.get(fingerprint)
    if previous is None or _DECISION_RANK[decision] > _DECISION_RANK[previous]:
        decisions[fingerprint] = decision


def replay_ledger(records) -> JournalReplay:
    """Fold journal records into per-campaign ledgers, validating as it goes.

    A ``cached`` record counts as one ``cached`` position per listed
    fingerprint and adds its summed usage to the ledger.

    Raises :class:`~repro.exceptions.ConfigurationError` on structural
    damage: an unknown record type, a scenario record for a campaign
    that never started, an unknown decision, a ``cached`` record whose
    ``fps`` is not a list of fingerprints, or a *finished* campaign
    whose ``ran + cached + skipped`` does not sum to its size.  Killed
    campaigns (no ``campaign-finish`` record) are exempt from the sum
    check — their partial ledger is exactly what the resume replays.
    """
    campaigns: Dict[str, CampaignLedger] = {}
    decisions: Dict[str, str] = {}
    ran_counts: Dict[str, int] = {}
    scenario_records: List[Dict[str, Any]] = []
    cached_records: List[Dict[str, Any]] = []
    for record in records:
        kind = record.get("type")
        campaign = record.get("campaign")
        if kind not in _RECORD_TYPES:
            raise ConfigurationError(f"unknown journal record type {kind!r}")
        if not isinstance(campaign, str) or not campaign:
            raise ConfigurationError(f"journal record without a campaign id: {record!r}")
        if kind == "campaign-start":
            campaigns[campaign] = CampaignLedger(
                campaign=campaign,
                total=int(record["total"]),
                backend=record.get("backend", "serial"),
                workers=record.get("workers"),
            )
            continue
        ledger = campaigns.get(campaign)
        if ledger is None:
            raise ConfigurationError(
                f"journal records a {kind!r} for campaign {campaign!r} "
                "before its campaign-start"
            )
        if kind == "scenario":
            decision = record.get("decision")
            fingerprint = record.get("fp")
            if decision not in SCENARIO_DECISIONS:
                raise ConfigurationError(
                    f"unknown scenario decision {decision!r} in journal"
                )
            if not isinstance(fingerprint, str) or not fingerprint:
                raise ConfigurationError(
                    f"scenario record without a fingerprint: {record!r}"
                )
            usage = ResourceUsage.from_dict(record.get("usage", {}))
            setattr(ledger, decision, getattr(ledger, decision) + 1)
            ledger.usage = ledger.usage + usage
            _decide(decisions, fingerprint, decision)
            if decision == "ran":
                ran_counts[fingerprint] = ran_counts.get(fingerprint, 0) + 1
            scenario_records.append(record)
        elif kind == "cached":
            fingerprints = record.get("fps")
            if not isinstance(fingerprints, list) or not all(
                    isinstance(fingerprint, str) and fingerprint
                    for fingerprint in fingerprints):
                raise ConfigurationError(
                    f"cached record of campaign {campaign!r} without a "
                    "list of fingerprints")
            ledger.cached += len(fingerprints)
            ledger.usage = ledger.usage + ResourceUsage.from_dict(
                record.get("usage", {}))
            for fingerprint in fingerprints:
                _decide(decisions, fingerprint, "cached")
            cached_records.append(record)
        elif kind == "early-stop":
            ledger.early_stops = ledger.early_stops + (
                (record.get("point"), record.get("verdict", "")),
            )
        else:  # campaign-finish
            ledger.finished = True
            ledger.stats = dict(record.get("stats") or {})
            if ledger.recorded != ledger.total:
                raise ConfigurationError(
                    f"campaign {campaign!r} finished with "
                    f"{ledger.recorded} scenario records for {ledger.total} "
                    "scenarios; the journal is incomplete"
                )
    return JournalReplay(
        campaigns=campaigns,
        decisions=decisions,
        ran_counts=ran_counts,
        scenario_records=tuple(scenario_records),
        cached_records=tuple(cached_records),
    )
