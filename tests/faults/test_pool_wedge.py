"""A worker killed while idle in the task queue must not stall a campaign.

A pool worker waiting for its next task blocks inside the shared task
queue's ``get()`` *holding* the queue's reader lock.  SIGKILLed there,
it never releases the lock, so no worker — surviving or respawned — can
ever read a task again.  The supervisor must notice that the pool owes
results and has gone silent, and finish the campaign in-process: the
re-queued work it keeps submitting to the dead queue is no sign of life.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import time
from pathlib import Path

from repro.campaign import CampaignRunner
from repro.faults import RetryPolicy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "store"))
from slow_kind import slow_specs  # noqa: E402  (registers the slow kind)

RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, task_timeout_seconds=1.0,
    death_grace_seconds=0.2, wake_seconds=0.05, teardown_grace_seconds=0.5,
)


def test_idle_worker_kill_degrades_to_in_process_execution():
    specs = slow_specs(8, sleep_ms=20)
    baseline = CampaignRunner().run(specs)
    killed = []

    def kill_idle_workers(event):
        if killed:
            return
        # While the caller sits in this hook nothing new is submitted,
        # so both workers finish the queued tasks and block in the task
        # queue's get() — one of them holding its reader lock.
        time.sleep(0.3)
        for child in multiprocessing.active_children():
            if child.name.startswith("ForkPoolWorker"):
                os.kill(child.pid, signal.SIGKILL)
                killed.append(child.pid)

    result = CampaignRunner(
        backend="process", workers=2, chunk_size=1, retry=RETRY,
    ).run(specs, on_settle=kill_idle_workers)

    assert len(killed) >= 2  # this campaign's two workers
    assert result == baseline
    assert result.fault_stats.quarantined == 0
    assert result.fault_stats.pool_failures == 1
