"""Exporters and the report CLI: roundtrips, torn tails, validation."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    PhaseAccumulator,
    Tracer,
    append_metrics,
    read_metrics,
    read_trace,
    span_to_trace_event,
    write_trace,
)
from repro.report import main as report_main, summarize_trace

SRC = Path(__file__).resolve().parents[2] / "src"


def _records(campaign="feed00000001", scenarios=2, engine=None):
    tracer = Tracer(trace_id=campaign)
    for i in range(scenarios):
        with tracer.span("scenario", label=f"s{i}"):
            opened = tracer.start_span(
                "execute", {"engine": engine} if engine else None)
            acc = PhaseAccumulator()
            acc.lap("scheduling")
            acc.lap("delivery")
            tracer.finish_with_phases(opened, acc, steps=2)
    return tracer.drain()


class TestChromeTrace:
    def test_roundtrip_preserves_every_span(self, tmp_path):
        records = _records()
        path = write_trace(tmp_path / "trace.jsonl", records)
        events = read_trace(path)
        assert len(events) == len(records)
        assert {e["name"] for e in events} == {r.name for r in records}

    def test_events_carry_trace_correlation(self):
        (record,) = _records(scenarios=1)[-1:]
        event = span_to_trace_event(record)
        assert event["ph"] == "X"
        assert event["args"]["trace_id"] == "feed00000001"
        assert event["ts"] == round(record.start_ts * 1e6, 3)
        assert event["dur"] == round(record.duration * 1e6, 3)

    def test_file_is_a_json_array_after_manual_closing(self, tmp_path):
        # The writer never writes "]" (kill-safety), but appending one
        # must yield strict JSON — what a viewer that insists on the
        # closed form would do.
        path = write_trace(tmp_path / "trace.jsonl", _records())
        text = path.read_text(encoding="utf-8")
        closed = text.rstrip().rstrip(",") + "]"
        parsed = json.loads(closed)
        assert isinstance(parsed, list) and parsed

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        whole = read_trace(path)
        data = path.read_bytes()
        path.write_bytes(data[:-20])  # SIGKILL mid-final-line
        torn = read_trace(path)
        assert len(torn) == len(whole) - 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        lines = path.read_bytes().split(b"\n")
        lines[1] = b'{"garbage": tru'
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError):
            read_trace(path)

    def test_non_trace_file_raises(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"v": 1}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError):
            read_trace(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            read_trace(tmp_path / "absent.jsonl")

    def test_writer_truncates_on_reopen(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, _records())
        assert write_trace(path, ()) == path
        assert read_trace(path) == ()

    def test_write_holds_one_line_at_a_time(self, tmp_path, traced_memory):
        # The atomic rewrite is fed line by line: writing 20,000 spans
        # peaks under a bound the trace's size does not move.
        records = _records(scenarios=1) * 5_000
        path, _, peak = traced_memory(
            lambda: write_trace(tmp_path / "trace.jsonl", records))
        assert len(read_trace(path)) == len(records) == 20_000
        assert path.stat().st_size > 3 * 1024 * 1024
        assert peak < 256 * 1024

    def test_read_holds_only_the_events_it_returns(
            self, tmp_path, traced_memory):
        # A 20,000-span trace: the read streams the file after its
        # header, so it peaks at the events it returns plus a bound the
        # file's size does not move.
        path = write_trace(tmp_path / "trace.jsonl", _records(scenarios=1))
        header, *lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"".join(lines) * (20_000 // len(lines)))
        events, held, peak = traced_memory(lambda: read_trace(path))
        assert len(events) == 20_000
        assert path.stat().st_size > 3 * 1024 * 1024
        assert peak - held < 1024 * 1024


class TestMetricsDump:
    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        snapshot = {"c": {"type": "counter", "timing": False, "value": 3}}
        append_metrics(path, "feed00000001", snapshot)
        append_metrics(path, "feed00000002", snapshot, extra={"stats": {"total": 9}})
        records = read_metrics(path)
        assert [r["campaign"] for r in records] == [
            "feed00000001", "feed00000002"]
        assert records[1]["stats"] == {"total": 9}
        assert records[0]["metrics"] == snapshot

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        append_metrics(path, "a", {})
        append_metrics(path, "b", {})
        path.write_bytes(path.read_bytes()[:-10])
        records = read_metrics(path)
        assert [r["campaign"] for r in records] == ["a"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        append_metrics(path, "a", {})
        append_metrics(path, "b", {})
        lines = path.read_bytes().split(b"\n")
        lines[0] = b"not json"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError):
            read_metrics(path)

    def test_unknown_versions_are_skipped(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        append_metrics(path, "a", {})
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({"v": 999, "metrics": {}}) + "\n")
        records = read_metrics(path)
        assert [r["campaign"] for r in records] == ["a"]

    def test_append_peaks_under_a_bound_the_dump_does_not_move(
            self, tmp_path, traced_memory):
        bound = 256 * 1024
        registry = MetricsRegistry()
        for index in range(16):
            registry.counter(f"store.counter{index}").inc(index)
            registry.histogram(f"span.seconds{index}", timing=True).observe(0.5)
        snapshot = registry.snapshot()
        path = tmp_path / "metrics.jsonl"
        append_metrics(path, "first", snapshot)
        path.write_bytes(path.read_bytes() * 1_000)
        assert path.stat().st_size > 16 * bound
        _, _, peak = traced_memory(
            lambda: append_metrics(path, "last", snapshot))
        assert peak < bound
        assert path.read_bytes().count(b"\n") == 1_001


class TestSummarize:
    def test_groups_by_campaign_and_counts(self, tmp_path):
        records = _records(campaign="aaa") + _records(campaign="bbb", scenarios=1)
        path = write_trace(tmp_path / "trace.jsonl", records)
        summaries = summarize_trace(read_trace(path))
        assert set(summaries) == {"aaa", "bbb"}
        assert len(summaries["aaa"]["scenarios"]) == 2
        assert summaries["bbb"]["executes"] == 1
        assert set(summaries["aaa"]["phases"]) == {"scheduling", "delivery"}

    def test_counts_executions_per_engine(self, tmp_path):
        records = (_records(scenarios=3, engine="bitmask")
                   + _records(scenarios=1, engine="scalar")
                   + _records(scenarios=1))  # written before the attribute
        path = write_trace(tmp_path / "trace.jsonl", records)
        summary = summarize_trace(read_trace(path))["feed00000001"]
        assert summary["executes"] == 5
        assert summary["engines"] == {"bitmask": 3, "scalar": 2}

    def test_phase_seconds_sum_laps(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records(scenarios=3))
        summaries = summarize_trace(read_trace(path))
        phases = summaries["feed00000001"]["phases"]
        assert phases["scheduling"][1] == 3  # one lap per scenario


class TestReportCli:
    def test_exits_zero_and_prints_summary(self, tmp_path, capsys):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        assert report_main(["--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-phase time breakdown" in out
        assert "slowest traced scenario" in out
        assert "feed00000001" in out

    def test_prints_executions_per_engine(self, tmp_path, capsys):
        records = (_records(scenarios=2, engine="bitmask")
                   + _records(scenarios=1, engine="scalar"))
        path = write_trace(tmp_path / "trace.jsonl", records)
        assert report_main(["--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "executions per engine: bitmask 2, scalar 1" in out

    def test_exits_nonzero_on_corrupt_trace(self, tmp_path, capsys):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        lines = path.read_bytes().split(b"\n")
        lines[1] = b"garbage"
        path.write_bytes(b"\n".join(lines))
        assert report_main(["--trace", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_exits_nonzero_on_missing_metrics(self, tmp_path, capsys):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        assert report_main(["--trace", str(path), "--metrics", str(tmp_path / "no.jsonl")]) == 1

    def test_metrics_summary_includes_cache_hit_rate(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.jsonl", _records())
        metrics = tmp_path / "metrics.jsonl"
        append_metrics(metrics, "feed00000001", {
            "scenarios_completed": {"type": "counter", "timing": False, "value": 4},
            "scenarios_cached": {"type": "counter", "timing": False, "value": 1},
        })
        assert report_main(["--trace", str(trace), "--metrics", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "hit rate 25.0%" in out

    def test_module_entrypoint_runs(self, tmp_path):
        path = write_trace(tmp_path / "trace.jsonl", _records())
        result = subprocess.run(
            [sys.executable, "-m", "repro.report", "--trace", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert "trace:" in result.stdout
