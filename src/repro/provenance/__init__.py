"""Provenance and cost accounting for scenario campaigns.

Three layers, all below the store/campaign packages in the import
graph (this package pulls in only the stdlib, ``repro.exceptions`` and
spec-level types):

- :mod:`repro.provenance.usage` — :class:`ResourceUsage`, the
  per-scenario cost record (wall time, steps, messages) that every
  :class:`~repro.campaign.runner.ScenarioEvent` derives from its outcome;
- :mod:`repro.provenance.journal` — the append-only, torn-tail-safe
  campaign journal and its :func:`replay_ledger` reader;
- :mod:`repro.provenance.queries` / ``bench_history`` — cross-campaign
  aggregation over result stores and ``BENCH_*.json`` artifacts.

``python -m repro.report`` renders the ledger, the store aggregation
and the bench history.
"""

from repro.provenance.bench_history import (
    BenchRecord,
    bench_history,
    load_bench_dir,
    metric_trajectory,
)
from repro.provenance.journal import (
    JOURNAL_SCHEMA_VERSION,
    SCENARIO_DECISIONS,
    CampaignJournal,
    CampaignLedger,
    JournalReplay,
    read_journal,
    record_elapsed,
    replay_ledger,
)
from repro.provenance.queries import (
    GROUPABLE_DIMENSIONS,
    OutcomeAggregate,
    aggregate_cost,
    aggregate_outcomes,
    disagreement_report,
    disagreements,
)
from repro.provenance.usage import ResourceUsage

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "SCENARIO_DECISIONS",
    "GROUPABLE_DIMENSIONS",
    "ResourceUsage",
    "CampaignJournal",
    "CampaignLedger",
    "JournalReplay",
    "read_journal",
    "record_elapsed",
    "replay_ledger",
    "OutcomeAggregate",
    "aggregate_outcomes",
    "aggregate_cost",
    "disagreements",
    "disagreement_report",
    "BenchRecord",
    "load_bench_dir",
    "bench_history",
    "metric_trajectory",
]
