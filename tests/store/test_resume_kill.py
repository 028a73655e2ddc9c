"""The resume acceptance test: SIGKILL a multiprocessing campaign, rerun.

A child process runs a process-backend campaign against a persistent
store.  The parent watches the store grow, SIGKILLs the child's whole
process group mid-run, then reruns the same campaign against the same
store and asserts the two load-bearing guarantees:

* the resumed ``CampaignResult`` is **equal** to an uninterrupted run's;
* every scenario the killed campaign completed is served from cache
  (``stats.cached >= completed-at-kill-time``), so no finished work is
  ever recomputed.
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
from repro.store import CachingRunner, open_store
from slow_kind import slow_specs  # registers the kind in this process too

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

SCENARIOS = 60
SLEEP_MS = 40

CHILD_SCRIPT = """
import sys
from repro.campaign import CampaignRunner
from repro.store import CachingRunner, open_store
from slow_kind import slow_specs

store_path, count, sleep_ms = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
specs = slow_specs(count, sleep_ms=sleep_ms)
runner = CachingRunner(
    open_store(store_path),
    CampaignRunner(backend="process", workers=2, chunk_size=1),
)
runner.run(specs)
print("FINISHED", flush=True)
"""


def _stored_count(path: Path) -> int:
    """Count completed scenarios without opening the store machinery.

    The JSONL loader self-heals files on open, which must not race the
    child's appends — so poll the raw bytes instead.  SQLite readers are
    safe but may catch the writer mid-commit; treat that as "no change".
    """
    if not path.exists():
        return 0
    if path.suffix == ".jsonl":
        return path.read_bytes().count(b"\n")
    try:
        connection = sqlite3.connect(str(path))
        try:
            row = connection.execute("SELECT COUNT(*) FROM results").fetchone()
            return int(row[0])
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def _run_child_until_killed(store_path: Path, kill_after: int) -> int:
    """Start the campaign child, SIGKILL its process group mid-run.

    Returns the number of scenarios the store held right after the kill.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(store_path), str(SCENARIOS), str(SLEEP_MS)],
        env=env,
        cwd=str(HERE),
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
            if child.poll() is None:  # belt and braces: never leak the child
                try:
                    os.killpg(os.getpgid(child.pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait(timeout=30)
    assert child.returncode != 0  # it really was killed, not finished
    return _stored_count(store_path)


@pytest.mark.parametrize("store_name", ["resume.jsonl", "resume.sqlite"])
def test_killed_process_campaign_resumes_to_identical_result(tmp_path, store_name):
    store_path = tmp_path / store_name
    completed_before_kill = _run_child_until_killed(store_path, kill_after=4)
    assert completed_before_kill >= 4  # the campaign demonstrably made progress

    specs = slow_specs(SCENARIOS, sleep_ms=SLEEP_MS)
    with open_store(store_path) as store:
        completed = len(store)  # may exceed the raw line count momentarily observed
        assert completed >= completed_before_kill >= 4
        assert completed < SCENARIOS  # ... and demonstrably was interrupted

        resumed_runner = CachingRunner(
            store, CampaignRunner(backend="process", workers=2, chunk_size=1)
        )
        resumed = resumed_runner.run(specs)

    uninterrupted = CampaignRunner().run(specs)
    assert resumed == uninterrupted  # the acceptance equality
    assert [o.spec for o in resumed.outcomes] == [o.spec for o in uninterrupted.outcomes]

    stats = resumed_runner.last_stats
    assert stats.cached >= completed_before_kill  # completed work served from cache
    assert stats.cached + stats.executed == SCENARIOS
    assert stats.executed == SCENARIOS - stats.cached


def test_resumed_store_is_complete_and_idempotent(tmp_path):
    """After a resume, a third run is a pure replay of the full campaign."""
    store_path = tmp_path / "resume.jsonl"
    _run_child_until_killed(store_path, kill_after=4)
    specs = slow_specs(SCENARIOS, sleep_ms=SLEEP_MS)
    with open_store(store_path) as store:
        CachingRunner(store, CampaignRunner(backend="process", workers=2)).run(specs)
        replay_runner = CachingRunner(store)
        replay = replay_runner.run(specs)
    assert replay_runner.last_stats.cached == SCENARIOS
    assert replay_runner.last_stats.executed == 0
    assert replay == CampaignRunner().run(specs)
