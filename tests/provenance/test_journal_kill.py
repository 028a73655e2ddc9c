"""The journal acceptance test: SIGKILL a journaled campaign, resume.

A child process runs a process-backend campaign through
``CachingRunner`` with a SQLite store and a journal.  The parent kills
it mid-run, resumes against the same store *and the same journal*, and
asserts that the replayed ledger is equal to an uninterrupted
campaign's:

* the resumed campaign's per-scenario records sum exactly to the
  campaign size (``ran + cached == total``);
* the **merged** per-fingerprint decision map over both journal entries
  equals the uninterrupted campaign's — every scenario ``ran``
  somewhere, none vanished.

The merged map (not a strict ran-exactly-once count) is the right
equality: a kill can land between a worker's journal event and the
parent's store commit, in which case that scenario legitimately runs
again on resume.
"""

from __future__ import annotations

import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner
from repro.provenance import read_journal, replay_ledger
from repro.store import CachingRunner, fingerprint_spec, open_store
from slow_kind import slow_specs  # registers the kind in this process too

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
STORE_TESTS = HERE.parent / "store"

SCENARIOS = 30
SLEEP_MS = 30

CHILD_SCRIPT = """
import sys
from repro.campaign import CampaignRunner
from repro.store import CachingRunner, open_store
from slow_kind import slow_specs

store_path, journal_path, count, sleep_ms = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
specs = slow_specs(count, sleep_ms=sleep_ms)
with CachingRunner(
    open_store(store_path),
    CampaignRunner(backend="process", workers=2, chunk_size=1),
    journal=journal_path,
) as runner:
    runner.run(specs)
print("FINISHED", flush=True)
"""


def _stored_count(path: Path) -> int:
    if not path.exists():
        return 0
    try:
        connection = sqlite3.connect(str(path))
        try:
            row = connection.execute("SELECT COUNT(*) FROM results").fetchone()
            return int(row[0])
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def _run_child_until_killed(store_path: Path, journal_path: Path, kill_after: int) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(STORE_TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT,
         str(store_path), str(journal_path), str(SCENARIOS), str(SLEEP_MS)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,  # its own process group: the kill takes the pool down too
    ) as child:
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _stored_count(store_path) >= kill_after:
                    break
                if child.poll() is not None:
                    stdout, stderr = child.communicate(timeout=10)
                    pytest.fail(
                        f"campaign child exited before the kill "
                        f"(rc={child.returncode}):\n{stderr.decode(errors='replace')}"
                    )
                time.sleep(0.02)
            else:
                pytest.fail(
                    f"store never reached {kill_after} outcomes within the deadline")
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                try:
                    os.killpg(os.getpgid(child.pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait(timeout=30)
    assert child.returncode != 0  # it really was killed, not finished


def test_killed_campaign_journal_replays_to_the_uninterrupted_ledger(tmp_path):
    store_path = tmp_path / "killed.sqlite"
    journal_path = tmp_path / "killed-journal.jsonl"
    _run_child_until_killed(store_path, journal_path, kill_after=4)

    specs = slow_specs(SCENARIOS, sleep_ms=SLEEP_MS)
    expected_fps = {fingerprint_spec(spec) for spec in specs}

    # The killed campaign left a valid (possibly torn-tailed) journal
    # with an unfinished campaign in it.
    partial = replay_ledger(read_journal(journal_path))
    assert len(partial.campaigns) == 1
    (killed_ledger,) = partial.campaigns.values()
    assert not killed_ledger.finished
    assert 0 < killed_ledger.recorded < SCENARIOS

    # Resume into the SAME journal and store.
    with CachingRunner(
        open_store(store_path),
        CampaignRunner(backend="process", workers=2, chunk_size=1),
        journal=journal_path,
    ) as runner:
        resumed = runner.run(specs)
    assert resumed == CampaignRunner().run(specs)

    # An uninterrupted reference campaign, journaled separately.
    reference_journal = tmp_path / "reference-journal.jsonl"
    with CachingRunner(
        open_store(tmp_path / "reference.sqlite"),
        CampaignRunner(backend="process", workers=2, chunk_size=1),
        journal=reference_journal,
    ) as reference_runner:
        reference_runner.run(specs)

    merged = replay_ledger(read_journal(journal_path))
    reference = replay_ledger(read_journal(reference_journal))

    # The resumed campaign's own ledger sums exactly to the size ...
    resumed_ledger = merged.campaigns[runner.last_campaign_id]
    assert resumed_ledger.finished
    assert resumed_ledger.ran + resumed_ledger.cached == resumed_ledger.total == SCENARIOS
    assert resumed_ledger.skipped == 0
    # ... nothing the kill persisted was recomputed ...
    assert resumed_ledger.cached >= 4

    # ... and the merged decision map equals the uninterrupted one:
    # every scenario of the campaign ran somewhere, none vanished.
    assert merged.decisions == reference.decisions
    assert set(merged.decisions) == expected_fps
    assert set(merged.decisions.values()) == {"ran"}

    # Simulated work in the merged journal covers every scenario at
    # least once (a kill may legitimately re-run in-flight scenarios).
    reference_steps = reference.total_usage().steps
    assert merged.total_usage().steps >= reference_steps > 0


def test_uninterrupted_journal_ledger_sums_and_is_all_ran(tmp_path):
    specs = slow_specs(8, sleep_ms=1)
    journal_path = tmp_path / "journal.jsonl"
    with CachingRunner(
        open_store(tmp_path / "store.sqlite"),
        CampaignRunner(backend="process", workers=2, chunk_size=1),
        journal=journal_path,
    ) as runner:
        runner.run(specs)
    replay = replay_ledger(read_journal(journal_path))
    ledger = replay.campaigns[runner.last_campaign_id]
    assert ledger.finished
    assert ledger.ran == ledger.total == len(specs)
    assert ledger.cached == ledger.skipped == 0
    assert {record["worker_pid"] for record in replay.scenario_records} != set()
