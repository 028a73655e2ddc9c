"""The store backends the suite covers, and a factory for each.

A helper module with a name of its own, so that a test module can import
it whatever other ``conftest`` modules the same pytest run loads.
"""

from __future__ import annotations

from repro.store import JsonlResultStore, MemoryResultStore, SqliteResultStore

BACKENDS = ("jsonl", "sqlite", "memory")


def make_store(backend: str, tmp_path):
    if backend == "jsonl":
        return JsonlResultStore(tmp_path / "store.jsonl")
    if backend == "sqlite":
        return SqliteResultStore(tmp_path / "store.sqlite")
    return MemoryResultStore()
