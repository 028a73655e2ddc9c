"""Chaos acceptance: SIGKILLed workers and killed campaigns both recover.

Two escalating kill scenarios, both under :class:`CachingRunner` so the
full persistence stack (store, journal, ledger) is in the blast radius:

* a **worker** is SIGKILLed mid-wave — externally, from outside the
  pool, without the fault plan's cooperation — and the supervised
  dispatch loop must detect the death, re-queue the lost work and finish
  with the uninterrupted campaign's result and an exact journal;
* the **whole campaign process** is SIGKILLed mid-run while *also*
  injecting worker crashes, and a resumed run against the same store
  must converge to the uninterrupted result without recomputing what
  the killed run persisted.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner
from repro.faults import FaultPlan, RetryPolicy
from repro.provenance import read_journal, replay_ledger
from repro.store import CachingRunner, open_store

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
STORE_TESTS = HERE.parent / "store"

sys.path.insert(0, str(STORE_TESTS))
from slow_kind import slow_specs  # noqa: E402  (registers the slow kind)

FAST_RETRY = RetryPolicy(
    max_attempts=4, backoff_seconds=0.01, task_timeout_seconds=3.0,
    teardown_grace_seconds=1.0,
)


def test_externally_sigkilled_worker_mid_wave_is_survived(tmp_path):
    specs = slow_specs(24, sleep_ms=50)
    uninterrupted = CampaignRunner().run(specs)

    killed = threading.Event()

    class Assassin:
        """Reporter-shaped hook that SIGKILLs the first worker it sees.

        The first progress event from a real pool worker names the
        victim; it is killed mid-wave, from outside the pool, exactly
        once.  (Events carry the emitting worker's pid — no /proc
        scanning, which in a full test session can hit unrelated
        children like multiprocessing's resource tracker.)
        """

        def campaign_started(self, total: int) -> None: ...

        def campaign_finished(self) -> None: ...

        def __call__(self, event) -> None:
            pid = getattr(event, "worker_pid", None)
            if killed.is_set() or not pid or pid == os.getpid():
                return
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                return
            killed.set()

    journal_path = tmp_path / "journal.jsonl"
    with CachingRunner(
        open_store(tmp_path / "store.jsonl"),
        CampaignRunner(backend="process", workers=2, chunk_size=2,
                       retry=FAST_RETRY),
        journal=journal_path,
        progress=Assassin(),
    ) as runner:
        result = runner.run(specs)

    assert killed.is_set()  # the chaos actually happened
    assert result == uninterrupted
    assert [o.spec for o in result.outcomes] == [o.spec for o in uninterrupted.outcomes]

    replay = replay_ledger(read_journal(journal_path))
    ledger = replay.campaigns[runner.last_campaign_id]
    assert ledger.finished
    assert ledger.recorded == ledger.total == len(specs)


CHILD_SCRIPT = """
import sys
from repro.campaign import CampaignRunner
from repro.faults import FaultPlan, RetryPolicy
from repro.store import CachingRunner, open_store
from slow_kind import slow_specs

store_path, journal_path, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
specs = slow_specs(count, sleep_ms=40)
runner = CachingRunner(
    open_store(store_path),
    CampaignRunner(
        backend="process", workers=2, chunk_size=1,
        faults=FaultPlan(seed=13, crash_rate=0.1),
        retry=RetryPolicy(max_attempts=4, backoff_seconds=0.01,
                          task_timeout_seconds=10.0,
                          teardown_grace_seconds=1.0),
    ),
    journal=journal_path,
)
runner.run(specs)
print("FINISHED", flush=True)
"""

SCENARIOS = 40


def _run_chaotic_child_until_killed(store_path: Path, journal_path: Path,
                                    kill_after: int) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(STORE_TESTS)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT,
         str(store_path), str(journal_path), str(SCENARIOS)],
        env=env, cwd=str(STORE_TESTS),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    ) as child:
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                stored = (store_path.read_bytes().count(b"\n")
                          if store_path.exists() else 0)
                if stored >= kill_after:
                    break
                if child.poll() is not None:
                    _, stderr = child.communicate(timeout=10)
                    pytest.fail(
                        f"chaotic campaign child exited before the kill "
                        f"(rc={child.returncode}):\n{stderr.decode(errors='replace')}"
                    )
                time.sleep(0.02)
            else:
                pytest.fail(f"store never reached {kill_after} outcomes")
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                try:
                    os.killpg(os.getpgid(child.pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait(timeout=30)
    assert child.returncode != 0


def test_killed_chaotic_campaign_resumes_to_identical_result(tmp_path):
    store_path = tmp_path / "resume.jsonl"
    _run_chaotic_child_until_killed(
        store_path, tmp_path / "journal-killed.jsonl", kill_after=4)

    specs = slow_specs(SCENARIOS, sleep_ms=40)
    journal_path = tmp_path / "journal-resumed.jsonl"
    with CachingRunner(
        open_store(store_path),
        CampaignRunner(backend="process", workers=2, chunk_size=1,
                       faults=FaultPlan(seed=13, crash_rate=0.1),
                       retry=FAST_RETRY),
        journal=journal_path,
    ) as resumed_runner:
        completed = len(resumed_runner.store)
        assert 4 <= completed < SCENARIOS  # progress, but interrupted
        resumed = resumed_runner.run(specs)

    uninterrupted = CampaignRunner().run(specs)
    assert resumed == uninterrupted
    assert [o.spec for o in resumed.outcomes] == [o.spec for o in uninterrupted.outcomes]

    stats = resumed_runner.last_stats
    assert stats.cached >= completed  # persisted work was never redone
    assert stats.cached + stats.executed == SCENARIOS

    replay = replay_ledger(read_journal(journal_path))
    ledger = replay.campaigns[resumed_runner.last_campaign_id]
    assert ledger.finished
    assert ledger.recorded == ledger.total == SCENARIOS
