"""Workers killed while idle are replaced, and the campaign finishes on them.

Each worker reads its tasks from a pipe of its own, so a worker
SIGKILLed while it waits for its next task takes no lock with it that
other workers need (a shared task queue's reader lock once did, and
wedged the whole pool).  The supervisor sees each death on the worker's
sentinel, queues the tasks the worker held again, forks a replacement
and finishes the campaign on the pool: nothing degrades to in-process
execution.
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
    teardown_grace_seconds=0.5,
)


def test_idle_workers_killed_mid_campaign_are_replaced_on_the_pool():
    specs = slow_specs(8, sleep_ms=20)
    baseline = CampaignRunner().run(specs)
    killed = []

    def kill_idle_workers(event):
        if killed:
            return
        # While the caller sits in this hook it reads no reply and sends
        # no task, so both workers finish the tasks they hold and wait
        # idle for the next one.
        time.sleep(0.3)
        for child in multiprocessing.active_children():
            os.kill(child.pid, signal.SIGKILL)
            killed.append(child.pid)

    result = CampaignRunner(
        backend="process", workers=2, chunk_size=1, retry=RETRY,
    ).run(specs, on_settle=kill_idle_workers)

    assert len(killed) >= 2  # this campaign's two workers
    assert result == baseline
    assert result.fault_stats.worker_deaths == 2
    assert result.fault_stats.quarantined == 0
    assert result.fault_stats.pool_failures == 0
