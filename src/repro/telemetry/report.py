"""``python -m repro.telemetry.report`` — validate and summarise a trace.

CI runs this against the trace the telemetry-enabled smoke campaign
produced, exactly like ``repro.provenance.report`` validates the
journal: a malformed trace file (mid-file corruption, non-trace JSON,
events missing required fields) exits non-zero.

On a healthy trace it prints, per campaign correlation id:

* the number of executions per engine (``scalar`` executor or the
  ``bitmask`` fast path), read off the ``execute`` spans;
* the per-phase time breakdown (scheduling / delivery / transition /
  recording) of the scalar executions, with lap counts;
* the slowest traced scenarios, with their worker pids — pool-wide,
  since worker-side spans carry their producing pid;
* with ``--metrics``, the campaign's counter/histogram dump including
  the cache-hit rate;
* with ``--journal``, a join against the provenance journal: traced
  span coverage vs the ledger's ``ran`` count for the same campaign id.

Like the provenance CLI, this module is an endpoint, not part of the
package API: it imports the provenance layer lazily inside
:func:`main` so importing :mod:`repro.telemetry` stays dependency-free.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.telemetry.export import read_metrics, read_trace

__all__ = ["main", "summarize_trace"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Validate a Chrome trace-event file and report per-phase "
        "time breakdowns, slowest scenarios and cache-hit summaries.",
    )
    parser.add_argument("trace", help="path to a Chrome trace-event file (JSONL)")
    parser.add_argument(
        "--metrics", help="metrics JSONL dump to summarise alongside the trace")
    parser.add_argument(
        "--journal",
        help="campaign journal to join (validates traced campaign ids against "
        "the provenance ledger)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many slowest scenarios to list per campaign (default 10)",
    )
    return parser


def _format_table(rows: List[List[str]], header: List[str]) -> str:
    widths = [
        max(len(header[column]), *(len(row[column]) for row in rows))
        if rows
        else len(header[column])
        for column in range(len(header))
    ]

    def fmt(row: List[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    return "\n".join([fmt(header)] + [fmt(row) for row in rows])


def _validate_events(events: Sequence[Dict[str, Any]]) -> None:
    for index, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid"):
            if key not in event:
                raise ConfigurationError(
                    f"trace event #{index} is missing required field {key!r}: "
                    f"{event!r}"
                )


def summarize_trace(
    events: Sequence[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Fold trace events into one summary dict per campaign id.

    Each summary holds ``phases`` (name → ``[seconds, laps]``),
    ``scenarios`` (``(duration_s, label, pid)`` tuples), ``executes``
    (count), ``engines`` (engine name → execute count), ``pids`` (set)
    and ``campaign_span`` (the parent-side root span's args, when
    present).
    """
    summaries: Dict[str, Dict[str, Any]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        args = event.get("args") or {}
        campaign = str(args.get("trace_id", ""))
        summary = summaries.get(campaign)
        if summary is None:
            summary = summaries[campaign] = {
                "phases": defaultdict(lambda: [0.0, 0]),
                "scenarios": [],
                "executes": 0,
                "engines": Counter(),
                "pids": set(),
                "campaign_span": None,
            }
        summary["pids"].add(event.get("pid"))
        name = event["name"]
        duration = float(event.get("dur", 0.0)) / 1e6
        if name.startswith("phase:"):
            entry = summary["phases"][name[len("phase:"):]]
            entry[0] += duration
            entry[1] += int(args.get("laps", 0))
        elif name == "scenario":
            summary["scenarios"].append(
                (duration, str(args.get("label", "?")), event.get("pid")))
        elif name == "execute":
            summary["executes"] += 1
            # Execute spans written before the attribute existed all came
            # from the scalar executor.
            summary["engines"][str(args.get("engine", "scalar"))] += 1
        elif name == "campaign":
            summary["campaign_span"] = dict(args)
    return summaries


def _print_campaign(campaign: str, summary: Dict[str, Any], top: int, out) -> None:
    root = summary["campaign_span"]
    label = campaign or "(no campaign id)"
    out(f"\ncampaign {label}: {len(summary['scenarios'])} traced scenario(s), "
        f"{summary['executes']} execution(s), "
        f"{len(summary['pids'])} process(es)")
    if root is not None:
        out(f"  total {root.get('total', '?')} scenario(s), "
            f"sampling stride {root.get('stride', '?')}")
    engines = summary["engines"]
    if engines:
        out("  executions per engine: " + ", ".join(
            f"{name} {count}" for name, count in sorted(engines.items())))
    phases = summary["phases"]
    if phases:
        total_phase_seconds = sum(entry[0] for entry in phases.values()) or 1.0
        rows = [
            [name, f"{entry[0] * 1e3:.2f}", str(entry[1]),
             f"{100.0 * entry[0] / total_phase_seconds:.1f}%"]
            for name, entry in sorted(
                phases.items(), key=lambda item: -item[1][0])
        ]
        out("  per-phase time breakdown:")
        for line in _format_table(rows, ["phase", "ms", "laps", "share"]).splitlines():
            out(f"    {line}")
    slowest = sorted(summary["scenarios"], reverse=True)[:max(0, top)]
    if slowest:
        rows = [
            [f"{seconds * 1e3:.2f}", str(pid), label]
            for seconds, label, pid in slowest
        ]
        out(f"  slowest traced scenario(s) (top {len(rows)}):")
        for line in _format_table(rows, ["ms", "pid", "scenario"]).splitlines():
            out(f"    {line}")


def _print_metrics(path: str, summaries, out) -> int:
    try:
        dumps = read_metrics(path)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out(f"\nmetrics: {path} ({len(dumps)} snapshot(s))")
    for dump in dumps:
        campaign = dump.get("campaign", "?")
        metrics = dump.get("metrics", {})
        completed = metrics.get("scenarios_completed", {}).get("value", 0)
        cached = metrics.get("scenarios_cached", {}).get("value", 0)
        hit_rate = cached / completed if completed else 0.0
        out(f"  campaign {campaign}: {completed} completed, {cached} cached "
            f"(hit rate {hit_rate:.1%})")
        for name in sorted(metrics):
            snap = metrics[name]
            kind = snap.get("type")
            if kind == "counter":
                out(f"    {name:<28} {snap.get('value')}")
            elif kind == "gauge":
                out(f"    {name:<28} {snap.get('value')} (gauge)")
            elif kind == "histogram":
                out(f"    {name:<28} count={snap.get('count')} "
                    f"sum={snap.get('sum')} min={snap.get('min')} "
                    f"max={snap.get('max')}")
    return 0


def _print_journal_join(path: str, summaries, out) -> int:
    # Lazy import: provenance sits beside telemetry, but the telemetry
    # package itself must not import it as a side effect.
    from repro.provenance.journal import read_journal, replay_ledger

    try:
        replay = replay_ledger(read_journal(path))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out(f"\njournal join: {path} ({len(replay.campaigns)} campaign(s))")
    for campaign, summary in sorted(summaries.items()):
        if not campaign:
            continue
        ledger = replay.campaigns.get(campaign)
        if ledger is None:
            out(f"  campaign {campaign}: NOT in journal")
            continue
        traced = len(summary["scenarios"])
        executed = ledger.ran
        coverage = traced / executed if executed else 0.0
        state = "finished" if ledger.finished else "INCOMPLETE"
        out(f"  campaign {campaign} [{state}]: traced {traced} of "
            f"{executed} ran ({coverage:.0%} span coverage), "
            f"{ledger.cached} cached, {ledger.skipped} skipped, "
            f"{ledger.usage.seconds:.2f}s journaled wall time")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    out = print
    try:
        events = read_trace(args.trace)
        _validate_events(events)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summaries = summarize_trace(events)
    out(f"trace: {args.trace}")
    out(f"  events: {len(events)}  campaigns: {len(summaries)}  "
        f"processes: {len({e.get('pid') for e in events})}")
    for campaign in sorted(summaries):
        _print_campaign(campaign, summaries[campaign], args.top, out)

    if args.metrics:
        status = _print_metrics(args.metrics, summaries, out)
        if status:
            return status
    if args.journal:
        status = _print_journal_join(args.journal, summaries, out)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
