"""E16 campaign benchmark command.

Usage, from the repository root::

    python3 perfbench/run.py --workload t8-cold --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``t8-cold`` — Theorem 8's solvable grid at n=16, serial, empty store;
* ``t8-warm`` — the same specs against a prefilled store and journal;
* ``borders-pool`` — both borders, FULL recording, two worker processes.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics, including the self-time
ledger of a traced serial pass.  Every outcome is checked against the
paper's verdicts and against a reference run; any wrong outcome, or a
deterministic counter that differs between passes, makes the command
exit with status 1 after printing its result.  Scratch files live under
``.perfbench-work/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

WORKLOAD_NAMES = ("t8-cold", "t8-warm", "borders-pool")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench import WORKLOADS, Bench

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        report = Bench(WORKLOADS[args.workload], args.seed, workdir).measure(
            args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    for number, (setup_s, wall_s, positions) in enumerate(report.passes, 1):
        print(f"{args.workload:>12} pass {number:<3} setup {setup_s:.4f} s  "
              f"run {wall_s:.4f} s  {positions / wall_s:.1f} scenarios/s")
    metrics = report.per_layer if args.trace else report.end_to_end
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:>12} {name:<28} {value:>14.6g} {unit}")
    for name in report.unsteady:
        print(f"perfbench: counter {name} differs between passes",
              file=sys.stderr)
    if report.failed:
        print(f"perfbench: {report.failed} of {report.attempted} positions "
              f"wrong", file=sys.stderr)
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
