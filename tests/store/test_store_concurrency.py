"""Thread-safety, WAL and lifecycle guarantees of the store backends.

The SQLite regression here is the load-bearing one: under the process
campaign backend, ``put`` is called off the main thread (delivery and
drain paths), which the previous ``check_same_thread=True`` connection
rejected with ``sqlite3.ProgrammingError``.  The batched cases pin the
one-lock rule of the shared write buffer: its idle timer commits from
its own thread while other threads put and read, and neither side may
deadlock or lose a row.
"""

from __future__ import annotations

import json
import sqlite3
import sys
import threading
import time

import pytest

import repro.store.base as store_base
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.store import (
    CachingRunner,
    JsonlResultStore,
    MemoryResultStore,
    SqliteResultStore,
    fingerprint_spec,
    open_store,
)

from store_backends import BACKENDS, make_store


def _outcome(index: int) -> ScenarioOutcome:
    return ScenarioOutcome(
        spec=ScenarioSpec(kind="concurrency-probe", n=4, f=1, k=1, seed=index),
        verdict="ok",
        steps=index,
    )


def _key(index: int) -> str:
    return fingerprint_spec(_outcome(index).spec)


#: The idle flush these tests run with: short enough to fire mid-run.
IDLE_SECONDS = 0.005


def _run_threads(worker, count: int) -> None:
    """Run ``worker(tag)`` on ``count`` threads; a deadlock fails, not hangs."""
    threads = [threading.Thread(target=worker, args=(tag,), daemon=True)
               for tag in range(count)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the threads as often as possible
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads), "deadlocked"


class TestSqliteThreadSafety:
    def test_put_from_another_thread_does_not_raise(self, tmp_path):
        """The failure mode of any off-thread caller (e.g. the idle-commit timer)."""
        store = SqliteResultStore(tmp_path / "threaded.sqlite")
        failures = []

        def put_one():
            try:
                store.put(_key(1), _outcome(1))
            except sqlite3.ProgrammingError as exc:  # the old bug
                failures.append(exc)

        thread = threading.Thread(target=put_one)
        thread.start()
        thread.join()
        assert failures == []
        assert store.get(_key(1)) == _outcome(1)
        store.close()

    def test_concurrent_puts_and_gets_from_many_threads(self, tmp_path):
        store = SqliteResultStore(tmp_path / "threaded.sqlite")
        per_thread, threads_count = 25, 4
        errors = []

        def worker(tag: int):
            try:
                for i in range(per_thread):
                    index = tag * per_thread + i
                    store.put(_key(index), _outcome(index))
                    assert store.get(_key(index)) == _outcome(index)
                    store.get_many([_outcome(j).spec for j in range(index + 1)])
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) == per_thread * threads_count
        store.close()

    def test_batched_puts_and_reads_race_the_idle_timer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", IDLE_SECONDS)
        path = tmp_path / "batched.sqlite"
        store = SqliteResultStore(path, commit_batch=8)
        per_thread, threads_count = 40, 4
        total = per_thread * threads_count
        errors = []

        def worker(tag: int):
            try:
                for i in range(per_thread):
                    index = tag * per_thread + i
                    store.put(_key(index), _outcome(index))
                    time.sleep(IDLE_SECONDS * (1 + i % 2))  # let the timer fire
                    assert store.get(_key(index)) == _outcome(index)
                    store.get_many([_outcome(j).spec for j in range(index + 1)])
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        _run_threads(worker, threads_count)
        assert errors == []
        io = store.io_stats()
        assert io["flushes"] > 0
        assert io["puts"] == io["committed_rows"] + io["buffered"] == total
        store.close()
        with SqliteResultStore(path) as reopened:
            assert len(reopened) == total

    def test_wal_mode_is_enabled_on_the_file(self, tmp_path):
        path = tmp_path / "wal.sqlite"
        store = SqliteResultStore(path)
        store.put(_key(1), _outcome(1))
        store.close()
        # A fresh raw connection sees the persistent WAL journal mode.
        conn = sqlite3.connect(str(path))
        try:
            (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        finally:
            conn.close()
        assert mode.lower() == "wal"

    def test_caching_runner_with_process_backend_persists_through_threads(self, tmp_path):
        # End to end: a process-backend campaign with progress events
        # (which ride back on task results) against a SQLite store.
        from repro.campaign import CampaignRunner, theorem8_specs
        from repro.store import CollectingProgressReporter

        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        with CachingRunner(
            open_store(tmp_path / "campaign.sqlite"),
            CampaignRunner(backend="process", workers=2),
            progress=CollectingProgressReporter(),
        ) as runner:
            runner.run(specs)
            assert runner.last_stats.executed == len(specs)


class TestJsonlThreadSafety:
    def test_batched_puts_race_the_idle_timer(self, tmp_path, monkeypatch):
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", IDLE_SECONDS)
        path = tmp_path / "batched.jsonl"
        store = JsonlResultStore(path, commit_batch=8)
        per_thread, threads_count = 15, 4
        total = per_thread * threads_count
        errors = []

        def worker(tag: int):
            try:
                for i in range(per_thread):
                    index = tag * per_thread + i
                    store.put(_key(index), _outcome(index))
                    time.sleep(IDLE_SECONDS * (1 + i % 2))  # let the timer fire
                    assert store.get(_key(index)) == _outcome(index)
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        _run_threads(worker, threads_count)
        assert errors == []
        io = store.io_stats()
        assert io["flushes"] > 0
        assert io["puts"] == io["committed_rows"] + io["buffered"] == total
        store.close()
        data = path.read_bytes()
        assert data.endswith(b"\n")
        lines = data.splitlines()
        assert len(lines) == total
        assert all(json.loads(line)["fp"] for line in lines)  # none interleaved
        with JsonlResultStore(path) as reopened:
            assert len(reopened) == total


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_is_idempotent(self, backend, tmp_path):
        store = make_store(backend, tmp_path)
        store.put(_key(1), _outcome(1))
        store.close()
        store.close()  # must not raise

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_context_manager_closes(self, backend, tmp_path):
        with make_store(backend, tmp_path) as store:
            store.put(_key(1), _outcome(1))
        store.close()  # already closed by __exit__: still a no-op

    @pytest.mark.parametrize("commit_batch", [1, 8])
    @pytest.mark.parametrize("suffix", ["jsonl", "sqlite"])
    def test_put_after_close_raises_and_writes_nothing(
            self, suffix, commit_batch, tmp_path):
        path = tmp_path / f"closed.{suffix}"
        store = open_store(path, commit_batch=commit_batch)
        store.close()
        with pytest.raises(ConfigurationError, match="closed"):
            store.put(_key(1), _outcome(1))
        with open_store(path) as reopened:
            assert len(reopened) == 0

    def test_sqlite_rejects_use_after_close(self, tmp_path):
        store = SqliteResultStore(tmp_path / "closed.sqlite")
        store.close()
        with pytest.raises(ConfigurationError, match="closed"):
            store.get(_key(1))

    def test_caching_runner_context_manager_closes_store_and_journal(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        with CachingRunner(MemoryResultStore(), journal=journal_path) as runner:
            runner.run([])
        # The runner owned the journal (opened from a path): closed now.
        assert runner.journal is not None
        runner.close()  # idempotent through both store and journal
