"""The report CLI: the CI honesty check for the journal format."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.campaign import theorem8_specs
from repro.provenance import CampaignJournal, ResourceUsage
from repro.store import CachingRunner, open_store

SRC = Path(__file__).resolve().parent.parent.parent / "src"


def _report(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "repro.report", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_valid_journal_reports_and_exits_zero(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    store_path = tmp_path / "store.sqlite"
    with CachingRunner(open_store(store_path), journal=journal_path) as runner:
        runner.run(theorem8_specs([4], seeds=(1,), max_steps=4_000))
    result = _report("--journal", str(journal_path), "--store", str(store_path))
    assert result.returncode == 0, result.stderr
    assert "campaigns: 1" in result.stdout
    assert "finished" in result.stdout
    assert "theorem8" in result.stdout  # the by-dimension table rendered


def test_malformed_journal_fails_loudly(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    journal_path.write_text(
        '{"v": 1, "type": "scenario", "campaign": "ghost", '
        '"fp": "' + "a" * 64 + '", "decision": "ran", "usage": {}}\n'
    )
    result = _report("--journal", str(journal_path))
    assert result.returncode == 1
    assert "error:" in result.stderr
    assert "before its campaign-start" in result.stderr


def test_missing_journal_fails_loudly(tmp_path):
    result = _report("--journal", str(tmp_path / "absent.jsonl"))
    assert result.returncode == 1
    assert "no campaign journal" in result.stderr


def test_missing_store_fails_loudly(tmp_path):
    missing = tmp_path / "nowhere" / "typo.sqlite"
    result = _report("--store", str(missing))
    assert result.returncode == 1
    assert f"no result store at {missing}" in result.stderr
    assert list(tmp_path.iterdir()) == []  # nothing created on the way


def test_incomplete_finished_campaign_fails(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        journal.campaign_started("c1", 5)
        journal.scenario("c1", "a" * 64, "ran", usage=ResourceUsage(steps=1))
        journal.campaign_finished("c1")
    result = _report("--journal", str(journal_path))
    assert result.returncode == 1
    assert "incomplete" in result.stderr


def test_killed_campaign_is_reported_not_rejected(tmp_path):
    # An unfinished campaign is a valid journal state (a kill), flagged
    # in the summary but not an error — CI must not fail on it.
    journal_path = tmp_path / "journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        journal.campaign_started("c1", 5)
        journal.scenario("c1", "a" * 64, "ran", usage=ResourceUsage(steps=1))
    result = _report("--journal", str(journal_path))
    assert result.returncode == 0, result.stderr
    assert "INCOMPLETE" in result.stdout


def test_bench_history_section(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        journal.campaign_started("c1", 0)
        journal.campaign_finished("c1")
    run_dir = tmp_path / "run-1"
    run_dir.mkdir()
    (run_dir / "BENCH_sweep.json").write_text(json.dumps({"name": "sweep", "seconds": 1.0}))
    result = _report("--journal", str(journal_path), "--bench", str(run_dir))
    assert result.returncode == 0, result.stderr
    assert "bench history" in result.stdout
    assert "sweep" in result.stdout

    (run_dir / "BENCH_bad.json").write_text("{nope")
    result = _report("--journal", str(journal_path), "--bench", str(run_dir))
    assert result.returncode == 1
    assert "malformed benchmark artifact" in result.stderr


def test_store_without_a_journal_reports_outcomes_without_cost(tmp_path):
    store_path = tmp_path / "store.sqlite"
    with CachingRunner(open_store(store_path)) as runner:
        runner.run(theorem8_specs([4], seeds=(1,), max_steps=4_000))
    result = _report("--store", str(store_path))
    assert result.returncode == 0, result.stderr
    assert "theorem8" in result.stdout
    assert "journal:" not in result.stdout


def test_every_malformed_artefact_is_reported_before_any_section(tmp_path):
    journal_path = tmp_path / "journal.jsonl"
    with CampaignJournal(journal_path) as journal:
        journal.campaign_started("c1", 0)
        journal.campaign_finished("c1")
    trace_path = tmp_path / "trace.jsonl"
    trace_path.write_text("not a trace\n")
    result = _report("--journal", str(journal_path), "--trace", str(trace_path),
                     "--metrics", str(tmp_path / "absent.jsonl"))
    assert result.returncode == 1
    assert "not a Chrome trace-event file" in result.stderr
    assert "no metrics dump" in result.stderr
    assert result.stdout == ""


def test_no_artefact_is_a_usage_error(tmp_path):
    result = _report()
    assert result.returncode == 2
    assert "at least one artefact" in result.stderr
