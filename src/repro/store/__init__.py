"""Persistent campaign results: caching, resume, budgets, progress.

The campaign engine (:mod:`repro.campaign`) makes every scenario's
outcome a pure function of its spec; this package makes that function
*persistent*.  Outcomes are filed under the content-addressed digest
string :func:`fingerprint_spec` returns in a :class:`ResultStore`
(append-only JSONL, SQLite, or in-memory — :func:`open_store` picks from
a path), and :class:`CachingRunner` wires a store into any
:class:`~repro.campaign.runner.CampaignRunner` backend:

* scenarios already in the store are served from cache;
* fresh outcomes are persisted incrementally, so a killed campaign
  resumes from its last completed scenario — the resumed
  :class:`~repro.campaign.runner.CampaignResult` is *equal* to an
  uninterrupted run's;
* an :class:`EarlyStopPolicy` stops sampling a sweep point once its
  outcome is certified (recording what was skipped);
* a :class:`ProgressReporter` consumes the per-scenario events for
  pool-wide live visibility.

Typical use::

    from repro.campaign import CampaignRunner, theorem8_specs
    from repro.store import CachingRunner, LogProgressReporter, open_store

    with open_store("theorem8.sqlite") as store:
        runner = CachingRunner(
            store,
            CampaignRunner(backend="process", workers=8),
            progress=LogProgressReporter(every=100),
        )
        result = runner.run(theorem8_specs([4, 5, 6, 7]))
        print(runner.last_stats.as_dict())   # {'cached': ..., 'hit_rate': ...}

Every workload registered via ``@scenario_kind`` inherits caching and
resume with no code of its own.
"""

from repro.store.base import ResultStore, open_store
from repro.store.caching import CacheStats, CachingRunner
from repro.store.fingerprint import SCHEMA_VERSION, fingerprint_spec
from repro.store.jsonl import JsonlResultStore
from repro.store.memory import MemoryResultStore
from repro.store.policy import EarlyStopPolicy, point_key
from repro.store.progress import (
    CollectingProgressReporter,
    LogProgressReporter,
    ProgressReporter,
)
from repro.store.sqlite import SqliteResultStore

__all__ = [
    "SCHEMA_VERSION",
    "fingerprint_spec",
    "ResultStore",
    "open_store",
    "JsonlResultStore",
    "SqliteResultStore",
    "MemoryResultStore",
    "CachingRunner",
    "CacheStats",
    "EarlyStopPolicy",
    "point_key",
    "ProgressReporter",
    "CollectingProgressReporter",
    "LogProgressReporter",
]
