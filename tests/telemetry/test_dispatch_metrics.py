"""What ``TelemetrySession.record_dispatch`` records for a campaign.

Every ``CachingRunner`` campaign under a session records its store I/O
as ``dispatch:store_*`` counters and one ``dispatch:summary`` span; a
process campaign adds what shipping its tasks cost.  All of it is
``timing``-flagged, so none of it may reach the deterministic snapshot
that the cross-backend equality of telemetry rests on.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.store import CachingRunner, open_store
from repro.telemetry import TelemetrySession

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)

#: Non-zero ``io_stats()`` of a ``commit_batch=1`` SQLite store.
STORE_COUNTERS = {
    "dispatch:store_puts",
    "dispatch:store_commits",
    "dispatch:store_committed_rows",
    "dispatch:store_max_commit_batch",
    "dispatch:store_commit_batch",
}

#: What a pool campaign adds: the shipping counters and the byte histogram.
SHIPPING_METRICS = {
    "dispatch:tasks_shipped",
    "dispatch:scenarios_shipped",
    "dispatch:wire_bytes",
    "dispatch:encode_micros",
    "dispatch:queue_micros",
    "dispatch:bytes_per_task",
}


def _campaign(tmp_path, **runner_kwargs):
    session = TelemetrySession()
    with CachingRunner(open_store(tmp_path / "store.sqlite"),
                       CampaignRunner(**runner_kwargs),
                       telemetry=session) as runner:
        result = runner.run(SPECS)
    dispatch = {name: snap for name, snap in session.metrics.snapshot().items()
                if name.startswith("dispatch:")}
    return session, result, dispatch


@pytest.mark.parametrize("runner_kwargs, expected", [
    ({"backend": "serial"}, STORE_COUNTERS),
    ({"backend": "process", "workers": 2, "chunk_size": 5},
     STORE_COUNTERS | SHIPPING_METRICS),
], ids=["serial", "process"])
def test_dispatch_metrics_per_backend(tmp_path, runner_kwargs, expected):
    session, result, dispatch = _campaign(tmp_path, **runner_kwargs)
    assert set(dispatch) == expected
    assert all(snap["timing"] for snap in dispatch.values())
    assert dispatch["dispatch:store_puts"]["value"] == len(SPECS)
    (summary,) = [span for span in session.spans()
                  if span.name == "dispatch:summary"]
    assert summary.attrs["store_puts"] == len(SPECS)
    shipped = result.dispatch_stats
    assert summary.attrs["tasks_shipped"] == shipped.tasks_shipped
    if shipped.any():
        assert dispatch["dispatch:scenarios_shipped"]["value"] == len(SPECS)
        assert dispatch["dispatch:wire_bytes"]["value"] == shipped.wire_bytes
        assert dispatch["dispatch:bytes_per_task"]["count"] == 1


def test_no_dispatch_metric_is_deterministic(tmp_path):
    snapshots = []
    for kwargs in ({"backend": "serial"},
                   {"backend": "process", "workers": 2, "chunk_size": 5}):
        session, _, _ = _campaign(tmp_path / kwargs["backend"], **kwargs)
        deterministic = session.deterministic_snapshot()
        assert not [name for name in deterministic
                    if name.startswith("dispatch:")]
        snapshots.append(deterministic)
    assert snapshots[0] == snapshots[1]
