"""``python -m repro.report`` — validate and summarise campaign artefacts.

One CLI for everything a campaign leaves on disk (``FORMATS.md``):

* ``--journal`` — the campaign ledger: per campaign, what ran, what was
  cached or skipped, early stops and the executed totals;
* ``--store`` (grouped ``--by`` spec dimensions) — stored outcomes per
  group, the journaled seconds of what ran, and the non-ok drill-down;
* ``--bench`` — the ``BENCH_*.json`` history of one or more artifact
  directories, in run order;
* ``--trace`` — per campaign: executions per engine (``scalar`` or
  ``bitmask``, read off the ``execute`` spans), the per-phase time
  breakdown of the scalar executions and the ``--top`` slowest traced
  scenarios with their worker pids;
* ``--metrics`` — each snapshot's counters and histograms, with the
  cache-hit rate;
* ``--trace`` with ``--journal`` — the join: traced span coverage
  against each campaign's ``ran`` count.

Every artefact given is read and validated in full before anything is
printed, and a malformed one (mid-file corruption, a journal whose
ledger does not add up, a trace event missing a required field, a
broken benchmark artifact) exits 1 with ``error:`` lines on stderr.
CI runs it as its only validator.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ConfigurationError
from repro.provenance.bench_history import bench_history
from repro.provenance.journal import read_journal, replay_ledger
from repro.provenance.queries import (
    aggregate_cost,
    aggregate_outcomes,
    disagreement_report,
)
from repro.store import open_store
from repro.telemetry.export import read_metrics, read_trace

__all__ = ["main", "summarize_trace"]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Validate campaign artefacts (journal, trace, metrics "
        "dump, result store, benchmark artifacts) and report on them.",
    )
    parser.add_argument("--journal", help="campaign journal (JSONL)")
    parser.add_argument("--trace", help="Chrome trace-event file")
    parser.add_argument("--metrics", help="metrics dump (JSONL)")
    parser.add_argument(
        "--store",
        help="result store (.jsonl / .sqlite path) to aggregate outcomes "
        "and journaled cost over",
    )
    parser.add_argument(
        "--by",
        default="kind,n,scheduler",
        help="comma-separated spec dimensions to aggregate the store by "
        "(default: kind,n,scheduler)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        default=[],
        metavar="DIR",
        help="benchmark artifact directory holding BENCH_*.json "
        "(repeatable; listed in run order)",
    )
    parser.add_argument(
        "--top", type=int, default=10,
        help="how many slowest traced scenarios to list per campaign "
        "(default 10)",
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


def _print_ledger(path: str, records, replay) -> None:
    print(f"journal: {path}")
    print(f"  records: {len(records)}  campaigns: {len(replay.campaigns)}")
    for ledger in replay.campaigns.values():
        state = "finished" if ledger.finished else "INCOMPLETE (killed?)"
        print(
            f"  campaign {ledger.campaign} [{ledger.backend}"
            + (f" x{ledger.workers}" if ledger.workers else "")
            + f"] {state}: {ledger.ran} ran, {ledger.cached} cached, "
            f"{ledger.skipped} skipped of {ledger.total} "
            f"({ledger.usage.seconds:.2f}s, {ledger.usage.steps} steps)"
        )
        for point, verdict in ledger.early_stops:
            print(f"    early-stop {point} -> {verdict}")
    total = replay.total_usage()
    print(
        f"  executed total: {len(replay.ran_fingerprints)} unique scenario(s), "
        f"{total.seconds:.2f}s wall, {total.steps} steps, "
        f"{total.messages_sent} sent / {total.messages_delivered} delivered"
    )


def _store_lines(path: str, by_text: str, replay) -> List[str]:
    """The store's lines, built while the store is open (it may raise)."""
    if not Path(path).exists():  # open_store would create an empty one
        raise ConfigurationError(f"no result store at {path}")
    by = tuple(dim.strip() for dim in by_text.split(",") if dim.strip())
    with open_store(path) as store:
        outcome_groups = aggregate_outcomes(store, by)
        cost_groups, unresolved = (
            aggregate_cost(store, replay, by) if replay else ({}, ()))
        drill_down = disagreement_report(store)
    rows = []
    for key in sorted(outcome_groups, key=repr):
        outcome = outcome_groups[key]
        cost = cost_groups.get(key)
        rows.append([
            ":".join(str(part) for part in key),
            str(outcome.scenarios),
            str(outcome.ok),
            str(outcome.violation + outcome.error),
            str(outcome.usage.steps),
            f"{cost.usage.seconds:.2f}" if cost else "-",
        ])
    lines = [f"\nstore: {path}  grouped by {', '.join(by)}", _format_table(
        rows, ["group", "stored", "ok", "non-ok", "steps", "ran-seconds"])]
    if unresolved:
        lines.append(
            f"  ({len(unresolved)} journaled fingerprint(s) not in this store)")
    lines.append(drill_down)
    return lines


def _print_bench(directories: Sequence[str], history) -> None:
    print(f"\nbench history: {len(history)} record(s) across "
          f"{len(directories)} run(s)")
    for record in history:
        metrics = ", ".join(f"{key}={value}" for key, value in record.metrics)
        print(f"  [{record.run}] {record.experiment}: {metrics}")


def _print_campaign(campaign: str, summary: Dict[str, Any], top: int) -> None:
    root = summary["campaign_span"]
    label = campaign or "(no campaign id)"
    print(f"\ncampaign {label}: {len(summary['scenarios'])} traced scenario(s), "
          f"{summary['executes']} execution(s), "
          f"{len(summary['pids'])} process(es)")
    if root is not None:
        print(f"  total {root.get('total', '?')} scenario(s), "
              f"sampling stride {root.get('stride', '?')}")
    engines = summary["engines"]
    if engines:
        print("  executions per engine: " + ", ".join(
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
        print("  per-phase time breakdown:")
        for line in _format_table(rows, ["phase", "ms", "laps", "share"]).splitlines():
            print(f"    {line}")
    slowest = sorted(summary["scenarios"], reverse=True)[:max(0, top)]
    if slowest:
        rows = [
            [f"{seconds * 1e3:.2f}", str(pid), label]
            for seconds, label, pid in slowest
        ]
        print(f"  slowest traced scenario(s) (top {len(rows)}):")
        for line in _format_table(rows, ["ms", "pid", "scenario"]).splitlines():
            print(f"    {line}")


def _print_metrics(path: str, dumps) -> None:
    print(f"\nmetrics: {path} ({len(dumps)} snapshot(s))")
    for dump in dumps:
        campaign = dump.get("campaign", "?")
        metrics = dump.get("metrics", {})
        completed = metrics.get("scenarios_completed", {}).get("value", 0)
        cached = metrics.get("scenarios_cached", {}).get("value", 0)
        hit_rate = cached / completed if completed else 0.0
        print(f"  campaign {campaign}: {completed} completed, {cached} cached "
              f"(hit rate {hit_rate:.1%})")
        for name in sorted(metrics):
            snap = metrics[name]
            kind = snap.get("type")
            if kind == "counter":
                print(f"    {name:<28} {snap.get('value')}")
            elif kind == "gauge":
                print(f"    {name:<28} {snap.get('value')} (gauge)")
            elif kind == "histogram":
                print(f"    {name:<28} count={snap.get('count')} "
                      f"sum={snap.get('sum')} min={snap.get('min')} "
                      f"max={snap.get('max')}")


def _print_journal_join(path: str, summaries, replay) -> None:
    print(f"\njournal join: {path} ({len(replay.campaigns)} campaign(s))")
    for campaign, summary in sorted(summaries.items()):
        if not campaign:
            continue
        ledger = replay.campaigns.get(campaign)
        if ledger is None:
            print(f"  campaign {campaign}: NOT in journal")
            continue
        traced = len(summary["scenarios"])
        executed = ledger.ran
        coverage = traced / executed if executed else 0.0
        state = "finished" if ledger.finished else "INCOMPLETE"
        print(f"  campaign {campaign} [{state}]: traced {traced} of "
              f"{executed} ran ({coverage:.0%} span coverage), "
              f"{ledger.cached} cached, {ledger.skipped} skipped, "
              f"{ledger.usage.seconds:.2f}s journaled wall time")


def _read_ledger(path: str):
    records = read_journal(path)
    return records, replay_ledger(records)


def _read_events(path: str):
    events = read_trace(path)
    for index, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid"):
            if key not in event:
                raise ConfigurationError(
                    f"trace event #{index} is missing required field {key!r}: "
                    f"{event!r}"
                )
    return events


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if not (args.journal or args.trace or args.metrics or args.store
            or args.bench):
        parser.error("give at least one artefact to report on")

    failed = False

    def load(read, *read_args):
        """``read(*read_args)``, or ``None`` after printing why it failed."""
        nonlocal failed
        try:
            return read(*read_args)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            failed = True
            return None

    journal = load(_read_ledger, args.journal) if args.journal else None
    replay = journal[1] if journal else None
    events = load(_read_events, args.trace) if args.trace else None
    dumps = load(read_metrics, args.metrics) if args.metrics else None
    history = load(bench_history, args.bench) if args.bench else None
    store_lines = (load(_store_lines, args.store, args.by, replay)
                   if args.store else None)
    if failed:
        return 1

    if journal is not None:
        _print_ledger(args.journal, *journal)
    if store_lines is not None:
        print("\n".join(store_lines))
    if history is not None:
        _print_bench(args.bench, history)
    if events is not None:
        summaries = summarize_trace(events)
        print(f"\ntrace: {args.trace}")
        print(f"  events: {len(events)}  campaigns: {len(summaries)}  "
              f"processes: {len({e.get('pid') for e in events})}")
        for campaign in sorted(summaries):
            _print_campaign(campaign, summaries[campaign], args.top)
    if dumps is not None:
        _print_metrics(args.metrics, dumps)
    if events is not None and replay is not None:
        _print_journal_join(args.journal, summaries, replay)
    return 0


if __name__ == "__main__":
    sys.exit(main())
