"""The E16 campaign benchmark: workloads, timed passes, checks and metrics.

Every pass runs one campaign the way a researcher runs a sweep, through
the public API::

    CachingRunner(open_store(<dir>/store.sqlite, commit_batch=64),
                  CampaignRunner(...), journal=<dir>/journal.jsonl)

Set-up (grid compile, store and journal creation, and for ``t8-warm``
the copy of a prefilled store and journal) is timed separately from
``CachingRunner.run``, and every pass gets a fresh directory, so a cold
pass really starts cold.  The warm prefill runs in a child process, so
the measuring process's memory peak is the warm passes' own.  ``gc.collect()`` runs before each pass, outside
the timed region, so that collections triggered by earlier passes do
not land at random points of later ones.

A traced pass (``trace=True``) is always serial: it wraps each layer's
public entry points with a :class:`~ledger.Ledger` and reports their self
times, which add up to the pass's wall time together with
``ledger.unaccounted_s``.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import repro.campaign.runner as campaign_runner
import repro.campaign.scenarios as campaign_scenarios
import repro.partitioning.scenarios as partitioning_scenarios
import repro.store.caching as store_caching
import repro.store.fingerprint as store_fingerprint
from repro.campaign import (
    CampaignRunner,
    ScenarioOutcome,
    ScenarioSpec,
    corollary13_specs,
    theorem8_solvable_grid,
    theorem8_specs,
)
from repro.core import KSetAgreementProblem, theorem8_verdict
from repro.faults.supervisor import DispatchStats
from repro.store import CacheStats, CachingRunner, ProgressReporter, open_store

from ledger import Ledger, Target

#: Rows per SQLite transaction, as a long sweep would open its store.
COMMIT_BATCH = 64

#: Set-ups a run measures at least, for a steady ``setup_s`` median.
MIN_SETUPS = 11

#: Expected verdict of the Corollary 13 kinds (Theorem 8 kinds are
#: checked against :func:`theorem8_verdict` instead).
COROLLARY13_VERDICTS = {
    "corollary13-k1": "ok",
    "corollary13-kmax": "ok",
    "corollary13-middle": "violation",
}


def t8_specs(seed: int) -> Tuple[ScenarioSpec, ...]:
    """Theorem 8's solvable side at n=16, verdict-only (2,865 specs)."""
    return theorem8_solvable_grid(
        [16], seeds=(seed, seed + 1), recording="verdict-only").compile()


def borders_specs(seed: int) -> Tuple[ScenarioSpec, ...]:
    """Both borders at the default FULL recording (five kinds)."""
    return (theorem8_specs([8, 10, 12], seeds=(seed, seed + 1))
            + corollary13_specs(range(4, 10)))


@dataclass(frozen=True)
class Workload:
    specs: Callable[[int], Tuple[ScenarioSpec, ...]]
    runner: CampaignRunner
    warm: bool = False


WORKLOADS: Dict[str, Workload] = {
    "t8-cold": Workload(t8_specs, CampaignRunner()),
    "t8-warm": Workload(t8_specs, CampaignRunner(), warm=True),
    "borders-pool": Workload(
        borders_specs, CampaignRunner(backend="process", workers=2)),
}


class FirstEventProbe(ProgressReporter):
    """Remembers when the progress stream delivered its first event."""

    def __init__(self) -> None:
        super().__init__()
        self.first_at: Optional[float] = None

    def on_event(self, event) -> None:
        if self.first_at is None:
            self.first_at = time.perf_counter()


@dataclass
class Pass:
    """What one campaign pass measured.

    Outcomes are kept only as hashes: outcomes kept alive across passes
    would make every later pass's garbage collections slower and its
    memory peak higher.
    """

    positions: int
    compile_s: float
    setup_s: float
    wall_s: float
    parent_cpu_s: float
    first_event_s: float
    stats: CacheStats
    store_io: Dict[str, int]
    journal_bytes: int
    dispatch: DispatchStats
    retries: int
    #: Summed in-worker seconds of the executed scenarios, and their
    #: 50th and 99th percentiles in milliseconds.
    execute_s: float
    scenario_ms: Tuple[float, float]
    #: Counts that must repeat exactly on every pass of a run.
    #: ``store.commits`` is not among them: the SQLite store also commits
    #: a partly filled batch after 0.5 s without a put, so that count
    #: depends on when results arrive.
    counters: Dict[str, int]
    #: ``hash(spec) -> hash(outcome)``, to compare passes by position.
    outcomes: Dict[int, int]
    #: ``hash(spec)`` of positions that errored, went missing or got a
    #: verdict other than the paper's.
    wrong: Set[int]
    ledger: Optional[Dict[str, float]] = None
    calls: Dict[str, int] = field(default_factory=dict)


def ledger_targets(caching: CachingRunner) -> List[Target]:
    """The public entry points a traced pass wraps, with their layers."""
    journal = caching.journal
    return [
        (store_caching, "fingerprint_spec", "fingerprint.s"),
        (store_fingerprint, "fingerprint_spec", "fingerprint.s"),
        (caching.store, "get_many", "store.get_many_s"),
        (caching.store, "put", "store.put_s"),
        (caching.store, "flush", "store.flush_s"),
        *((journal, name, "journal.append_s") for name in (
            "campaign_started", "scenario", "scenario_event", "early_stop",
            "campaign_finished")),
        (CampaignRunner, "run", "runner.self_s"),
        (campaign_runner, "run_scenario", "scenarios.build_s"),
        (campaign_scenarios, "execute", "executor.execute_s"),
        (partitioning_scenarios, "execute", "executor.execute_s"),
        (KSetAgreementProblem, "evaluate", "ksetagreement.evaluate_s"),
        (ScenarioOutcome, "from_report", "outcome.from_report_s"),
    ]


@dataclass
class Setup:
    """A campaign ready to run: compiled specs and an opened runner."""

    specs: Tuple[ScenarioSpec, ...]
    caching: CachingRunner
    probe: FirstEventProbe
    compile_s: float
    seconds: float


def set_up(workload: Workload, seed: int, passdir: Path, *,
           template: Optional[Path] = None,
           runner: Optional[CampaignRunner] = None) -> Setup:
    """Compile the grid and open store and journal in ``passdir`` (which
    must not exist), copying ``template``'s prefilled files first."""
    started = time.perf_counter()
    specs = workload.specs(seed)
    compile_s = time.perf_counter() - started
    if template is not None:
        shutil.copytree(template, passdir)
    else:
        passdir.mkdir(parents=True)
    probe = FirstEventProbe()
    caching = CachingRunner(
        open_store(passdir / "store.sqlite", commit_batch=COMMIT_BATCH),
        runner if runner is not None else workload.runner,
        journal=passdir / "journal.jsonl", progress=probe)
    return Setup(specs, caching, probe, compile_s,
                 time.perf_counter() - started)


def run_pass(workload: Workload, seed: int, passdir: Path, *,
             template: Optional[Path] = None,
             runner: Optional[CampaignRunner] = None,
             trace: bool = False) -> Pass:
    """Set up and run one campaign in ``passdir`` (which must not exist)."""
    gc.collect()
    setup = set_up(workload, seed, passdir, template=template, runner=runner)
    caching = setup.caching
    journal_path = caching.journal.path
    journal_before = journal_path.stat().st_size
    ledger = Ledger() if trace else None
    try:
        with (ledger.installed(ledger_targets(caching))
              if ledger is not None else nullcontext()):
            cpu = time.process_time()
            start = time.perf_counter()
            result = caching.run(setup.specs)
            wall_s = time.perf_counter() - start
            cpu = time.process_time() - cpu
        store_io = caching.store.io_stats()
        stats = caching.last_stats
    finally:
        caching.close()
    with journal_path.open("rb") as journal:
        journal.seek(journal_before)
        added = journal.read()
    first_at = setup.probe.first_at
    outcomes = result.outcomes
    by_spec = {o.spec: o for o in outcomes}
    return Pass(
        positions=len(setup.specs), compile_s=setup.compile_s,
        setup_s=setup.seconds, wall_s=wall_s, parent_cpu_s=cpu,
        first_event_s=first_at - start if first_at is not None else wall_s,
        stats=stats, store_io=store_io, journal_bytes=len(added),
        dispatch=result.dispatch_stats,
        retries=result.fault_stats.task_retries,
        execute_s=sum(result.scenario_seconds),
        scenario_ms=(_percentile_ms(result.scenario_seconds, 50),
                     _percentile_ms(result.scenario_seconds, 99)),
        counters={
            "execute.steps": sum(o.steps for o in outcomes),
            "execute.messages_sent": sum(o.messages_sent for o in outcomes),
            "execute.messages_delivered": sum(
                o.messages_delivered for o in outcomes),
            "dispatch.wire_bytes": result.dispatch_stats.wire_bytes,
            "store.puts": store_io.get("puts", 0),
            "journal.records": added.count(b"\n"),
        },
        outcomes={hash(o.spec): hash(o) for o in outcomes},
        wrong={hash(spec) for spec in setup.specs
               if not verdict_holds(spec, by_spec.get(spec))},
        ledger=ledger.account(wall_s) if ledger is not None else None,
        calls=dict(ledger.calls) if ledger is not None else {},
    )


def verdict_holds(spec: ScenarioSpec, outcome: Optional[ScenarioOutcome]) -> bool:
    """Whether ``outcome`` exists and has the verdict the paper predicts:
    Theorem 8 kinds follow :func:`theorem8_verdict`, Corollary 13 kinds
    :data:`COROLLARY13_VERDICTS`."""
    if outcome is None:
        return False
    if spec.kind.startswith("theorem8-"):
        solvable = theorem8_verdict(spec.n, spec.f, spec.k).is_solvable
        return outcome.verdict == ("ok" if solvable else "violation")
    return outcome.verdict == COROLLARY13_VERDICTS.get(spec.kind)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile_ms(seconds: Tuple[float, ...], pct: int) -> float:
    if len(seconds) < 2:
        return 1000.0 * sum(seconds)
    return 1000.0 * statistics.quantiles(seconds, n=100)[pct - 1]


@dataclass
class Report:
    """What one benchmark run found."""

    attempted: int
    failed: int
    unsteady: List[str]
    passes: List[Tuple[float, float, int]]
    end_to_end: Dict[str, Tuple[float, str]]
    per_layer: Dict[str, Tuple[float, str]]

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.unsteady


class Bench:
    """Runs one workload's passes inside ``workdir``."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self._dirs = 0

    def _next_dir(self) -> Path:
        self._dirs += 1
        return self.workdir / f"pass{self._dirs}"

    def _pass(self, **kwargs) -> Pass:
        passdir = self._next_dir()
        run = run_pass(self.workload, self.seed, passdir, **kwargs)
        shutil.rmtree(passdir)
        return run

    def _prefill(self, template: Path) -> Pass:
        """Run the cold campaign that fills ``template`` in a child
        process, so that its memory peak is not the warm passes'.

        The child is forked, so it shares this process's hash seed and
        its outcome hashes compare with the warm passes'.  It runs on the
        two-worker pool only to shorten the run: every backend yields the
        same outcomes.
        """
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as child:
            return child.submit(
                run_pass, self.workload, self.seed, template,
                runner=CampaignRunner(backend="process", workers=2)).result()

    def measure(self, seconds: float, trace: bool) -> Report:
        workload = self.workload
        template: Optional[Path] = None
        checked: List[Pass] = []
        reference: Optional[Pass] = None
        if workload.warm:
            # Every warm pass starts from this cold campaign's store and
            # journal, and must equal its result.
            template = self._next_dir()
            reference = self._prefill(template)
            checked.append(reference)

        passes: List[Pass] = []
        loop_start = time.perf_counter()
        while not passes or time.perf_counter() - loop_start < seconds:
            run = self._pass(template=template)
            if passes and run.outcomes == passes[0].outcomes:
                # One shared copy keeps memory flat however many passes
                # the run makes.
                run.outcomes = passes[0].outcomes
            passes.append(run)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        checked.extend(passes)

        setups = [p.setup_s for p in passes]
        while len(setups) < MIN_SETUPS:
            # Runs of few, slow passes take extra set-up samples, so the
            # set-up median always rests on as many values.
            passdir = self._next_dir()
            setup = set_up(workload, self.seed, passdir, template=template)
            setup.caching.close()
            shutil.rmtree(passdir)
            setups.append(setup.seconds)

        traced: Optional[Pass] = None
        if trace:
            traced = self._pass(
                template=template, runner=CampaignRunner(), trace=True)
            checked.append(traced)
            if workload.runner.backend != "serial":
                # The pool must reproduce the serial backend exactly.
                reference = traced
        if reference is None:
            reference = passes[0]

        attempted = failed = 0
        for run in checked:
            mismatched = {position for position, digest
                          in reference.outcomes.items()
                          if run.outcomes.get(position) != digest}
            attempted += run.positions
            failed += len(run.wrong | mismatched)

        first = passes[0].counters
        unsteady = sorted({
            name for run in passes[1:]
            for name, value in run.counters.items() if first[name] != value
        })
        end_to_end = {
            # Positions over seconds summed across the passes: the passes
            # are equal work, and a ratio of sums weights each second the
            # same, where a median of rates flips with the host's speed.
            "scenarios_per_s": (
                sum(p.positions for p in passes)
                / sum(p.wall_s for p in passes), "1/s"),
            "setup_s": (_median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        per_layer = {}
        if traced is not None:
            per_layer = self._per_layer(passes, traced, first)
            per_layer["failed_frac"] = (failed / attempted, "ratio")
        return Report(
            attempted, failed, unsteady,
            [(p.setup_s, p.wall_s, p.positions) for p in passes],
            end_to_end, per_layer)

    def _per_layer(self, passes: List[Pass], traced: Pass,
                   counters: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
        head = passes[0]
        dispatch = head.dispatch
        execute_s = _median([p.execute_s for p in passes])
        ledger = traced.ledger or {}
        return {
            "grid.compile_s": (_median([p.compile_s for p in passes]), "s"),
            "fingerprint.calls": (traced.calls.get("fingerprint.s", 0), "count"),
            "fingerprint.s": (ledger.get("fingerprint.s", 0.0), "s"),
            "store.get_many_s": (ledger.get("store.get_many_s", 0.0), "s"),
            "store.hits": (head.stats.cached, "count"),
            "store.put_s": (ledger.get("store.put_s", 0.0), "s"),
            "store.puts": (counters["store.puts"], "count"),
            "store.flush_s": (ledger.get("store.flush_s", 0.0), "s"),
            "store.commits": (head.store_io.get("commits", 0), "count"),
            "journal.append_s": (ledger.get("journal.append_s", 0.0), "s"),
            "journal.records": (counters["journal.records"], "count"),
            "journal.bytes": (head.journal_bytes, "bytes"),
            "dispatch.tasks": (dispatch.tasks_shipped, "count"),
            "dispatch.wire_bytes": (counters["dispatch.wire_bytes"], "bytes"),
            "dispatch.encode_s": (_median(
                [p.dispatch.encode_seconds for p in passes]), "s"),
            "dispatch.queue_s": (_median(
                [p.dispatch.queue_seconds for p in passes]), "s"),
            "dispatch.retries": (sum(p.retries for p in passes), "count"),
            "dispatch.parent_cpu_s": (
                _median([p.parent_cpu_s for p in passes]), "s"),
            "runner.self_s": (ledger.get("runner.self_s", 0.0), "s"),
            "scenarios.build_s": (ledger.get("scenarios.build_s", 0.0), "s"),
            "execute.s": (execute_s, "s"),
            "execute.scenario_ms.p50": (_median([
                p.scenario_ms[0] for p in passes]), "ms"),
            "execute.scenario_ms.p99": (_median([
                p.scenario_ms[1] for p in passes]), "ms"),
            "execute.steps_per_s": (
                counters["execute.steps"] / execute_s if execute_s else 0.0,
                "1/s"),
            "execute.steps": (counters["execute.steps"], "count"),
            "execute.messages_sent": (
                counters["execute.messages_sent"], "count"),
            "execute.messages_delivered": (
                counters["execute.messages_delivered"], "count"),
            "executor.execute_s": (ledger.get("executor.execute_s", 0.0), "s"),
            "ksetagreement.evaluate_s": (
                ledger.get("ksetagreement.evaluate_s", 0.0), "s"),
            "outcome.from_report_s": (
                ledger.get("outcome.from_report_s", 0.0), "s"),
            "ledger.unaccounted_s": (ledger.get("unaccounted", 0.0), "s"),
            "ledger.wall_s": (traced.wall_s, "s"),
            "caching.first_event_s": (
                _median([p.first_event_s for p in passes]), "s"),
            "caching.hit_rate": (head.stats.hit_rate, "ratio"),
        }
