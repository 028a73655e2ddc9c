"""Healing a torn log never loses a good record.

The JSONL store and the campaign journal heal a torn tail when they
open, and the metrics dump heals before each append.  A heal cuts the
file back with a truncation and appends at most one newline; these
tests kill the process (simulated: the step raises) at each of those
steps and check that every good record is still readable afterwards.
"""

from __future__ import annotations

import builtins
import io
import json
import os
import pathlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.provenance import CampaignJournal, read_journal
from repro.store import JsonlResultStore, fingerprint_spec
from repro.telemetry import append_metrics, read_metrics

OUTCOMES = CampaignRunner().run(
    theorem8_specs([4], seeds=(1,), max_steps=4_000)).outcomes[:3]


class _Killed(Exception):
    """The process died here."""


def _kill(*_args, **_kwargs):
    raise _Killed


class _KilledFile:
    """A file opened for writing whose first write never lands."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, _data):
        raise _Killed

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _kill_writes_to(patch: pytest.MonkeyPatch, path: Path) -> None:
    """Opening ``path`` for writing works (truncating, if the mode says
    so); the first write through the handle is killed."""
    real_open = builtins.open

    def killing_open(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if os.fspath(file) == os.fspath(path) and set(mode) & set("wax+"):
            return _KilledFile(handle)
        return handle

    def killing_path_open(self, mode="r", *args, **kwargs):
        return killing_open(self, mode, *args, **kwargs)

    patch.setattr(builtins, "open", killing_open)
    patch.setattr(io, "open", killing_open)
    patch.setattr(pathlib.Path, "open", killing_path_open)


@dataclass(frozen=True)
class Log:
    name: str
    write_good: Callable[[Path], None]
    #: Everything a reader gets back, one string per record.
    records: Callable[[Path], List[str]]
    #: The operation that heals the file before it appends.
    heal: Callable[[Path], None]


def _write_store(path: Path) -> None:
    with JsonlResultStore(path) as store:
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)


def _store_records(path: Path) -> List[str]:
    with JsonlResultStore(path) as store:
        return sorted(store.fingerprints())


def _write_journal(path: Path) -> None:
    with CampaignJournal(path) as journal:
        journal.campaign_started("c1", 1)
        journal.scenario("c1", "a" * 64, "ran")
        journal.campaign_finished("c1")


def _write_metrics(path: Path) -> None:
    for campaign in ("c1", "c2"):
        append_metrics(path, campaign, {})


LOGS = [
    Log("store", _write_store, _store_records,
        lambda path: JsonlResultStore(path).close()),
    Log("journal", _write_journal,
        lambda path: [json.dumps(r, sort_keys=True) for r in read_journal(path)],
        lambda path: CampaignJournal(path).close()),
    Log("metrics", _write_metrics,
        lambda path: [r["campaign"] for r in read_metrics(path)],
        lambda path: append_metrics(path, "after", {})),
]


@pytest.mark.parametrize("damage", ["torn-tail", "missing-newline"])
@pytest.mark.parametrize("step", ["truncate", "write"])
@pytest.mark.parametrize("log", LOGS, ids=lambda log: log.name)
def test_a_kill_during_the_heal_loses_no_good_record(
        tmp_path, monkeypatch, log, step, damage):
    path = tmp_path / f"{log.name}.jsonl"
    log.write_good(path)
    good = log.records(path)
    data = path.read_bytes()
    path.write_bytes(data + b'{"torn": "mid-wri' if damage == "torn-tail"
                     else data[:-1])
    with monkeypatch.context() as patch:
        if step == "truncate":
            patch.setattr(os, "truncate", _kill)
        else:
            _kill_writes_to(patch, path)
        try:
            log.heal(path)
        except _Killed:
            pass
    assert set(good) <= set(log.records(path))


def test_a_metrics_append_after_a_killed_write_keeps_both_snapshots(tmp_path):
    path = tmp_path / "metrics.jsonl"
    append_metrics(path, "first", {})
    with path.open("ab") as handle:
        handle.write(b'{"campaign": "killed", "metr')  # a killed append
    append_metrics(path, "second", {})
    assert [r["campaign"] for r in read_metrics(path)] == ["first", "second"]
