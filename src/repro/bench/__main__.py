"""Benchmark CLI: ``python -m repro.bench --suite quick --out BENCH_quick.json``.

Runs a declared suite or an ad-hoc ``--grid SPEC`` (see
:mod:`repro.bench.specs` for both), prints the paper-shaped ASCII
summary, and writes the ``repro.bench/v2`` JSON report.  The report's
virtual-time fields are deterministic given the cases and seeds; only
wall-clock and memory fields vary across machines and runs.  Case names
must be unique: a selection with a duplicated name is a usage error.

``--csv PATH`` also writes the long-format
``scenario,profile,system,n,seed,metric,value`` view of the same cases.
Its sha256 is printed on every run; ``--hash-out PATH`` records it and
``--expect-hash HEX`` fails the run when it differs — the same-grid-twice
determinism gate CI runs.

A case whose scenario raises — including a safety
:class:`~repro.obs.invariants.InvariantViolation` — is marked in-band
(``error`` in the JSON, an ``error,1`` CSV row) and makes the invocation
exit 1.  The run stops at the first failure (the partial report is still
written) unless ``--keep-going`` is given.

``python -m repro.bench summarize sweep.csv`` aggregates a written CSV
over seeds per (scenario, profile, system, n, metric) cell using
:func:`repro.analysis.stats.summarize_sweep`.

``python -m repro.bench compare OLD.json NEW.json`` diffs two reports
(see :mod:`repro.bench.compare`): per-case wall/throughput/bytes deltas,
a configurable throughput-regression threshold, and an optional strict
determinism check — the regression gate CI runs on every PR.

``--budget PATTERN=SECONDS`` (repeatable, on both the run and compare
forms) turns wall-clock expectations into alarms: any selected case whose
name contains ``PATTERN`` and whose wall time exceeds the budget makes
the invocation exit nonzero.  CI uses this to pin the n=1000 operating
points to an absolute time box.

``--check-invariants`` (the default) harvests each case's safety-invariant
ledger summary (:meth:`repro.obs.invariants.ViewLedger.report`) into the
report's per-case ``invariants`` block; ``--no-check-invariants`` drops the
block, e.g. to compare against pre-ledger baseline reports.  The safety
checks themselves always run inside the harness either way.

``--timeseries PATH`` additionally exports the plot-ready Figure 5-10
series (view-size timeseries and per-node convergence ECDF) as
long-format CSV; see :func:`repro.bench.runner.write_timeseries_csv` and
``docs/REPRODUCING.md``.
"""

from __future__ import annotations

import argparse
import collections
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.stats import load_sweep_csv, summarize_sweep
from repro.bench.compare import budget_breaches, main as compare_main, parse_budgets
from repro.bench.runner import (
    BenchRunner,
    build_report,
    csv_hash,
    csv_text,
    render_report,
    write_report,
    write_timeseries_csv,
)
from repro.bench.specs import SUITES, grid_specs, suite_specs

__all__ = ["main"]


def _summarize_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench summarize",
        description="Aggregate a long-format CSV (written with --csv) over seeds.",
    )
    parser.add_argument("csv", help="long-format CSV written by --csv")
    parser.add_argument(
        "--metric",
        action="append",
        default=None,
        metavar="NAME",
        help="only show these metrics (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    cells = summarize_sweep(load_sweep_csv(args.csv), metrics=args.metric)
    if not cells:
        print("no matching rows", file=sys.stderr)
        return 2
    header = (
        f"{'scenario':<12} {'profile':<20} {'system':<12} {'n':>5} "
        f"{'metric':<28} {'mean':>10} {'p50':>10} {'max':>10} {'seeds':>5}"
    )
    print(header)
    print("-" * len(header))
    for (scenario, profile, system, n, metric), summary in cells.items():
        print(
            f"{scenario:<12} {profile:<20} {system:<12} {n:>5} "
            f"{metric:<28} {summary['mean']:>10.3f} {summary['p50']:>10.3f} "
            f"{summary['max']:>10.3f} {summary['seeds']:>5}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    if argv and argv[0] == "summarize":
        return _summarize_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run a benchmark suite or grid "
        "(or `compare OLD.json NEW.json` to diff two reports, "
        "or `summarize CSV` to aggregate a CSV over seeds).",
    )
    selection = parser.add_mutually_exclusive_group()
    selection.add_argument(
        "--suite",
        choices=sorted(SUITES),
        help="which suite to run (default: quick)",
    )
    selection.add_argument(
        "--grid",
        default=None,
        metavar="SPEC",
        help="run a grid instead of a suite: compact string "
        "(key=v1,v2;key=v3), inline JSON, or a path to a .json file",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply every case's cluster size by this factor",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="output JSON path (default: BENCH_<suite>.json, "
        "BENCH_grid.json for a grid)",
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="PATH",
        help="also write the long-format scenario,profile,system,n,seed,"
        "metric,value CSV view of the cases",
    )
    parser.add_argument(
        "--hash-out",
        default=None,
        metavar="PATH",
        help="write the CSV view's sha256 to this file",
    )
    parser.add_argument(
        "--expect-hash",
        default=None,
        metavar="HEX",
        help="fail unless the CSV view's sha256 equals HEX",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only run cases whose name contains this substring",
    )
    parser.add_argument(
        "--per-node",
        action="store_true",
        help="keep per-node metrics (node.<ep>.*) in case snapshots",
    )
    parser.add_argument(
        "--mem",
        action="store_true",
        help="trace python allocations (tracemalloc) and record each "
        "case's alloc_peak_bytes; roughly doubles wall time",
    )
    parser.add_argument(
        "--check-invariants",
        dest="check_invariants",
        action="store_true",
        default=True,
        help="harvest each case's safety-invariant ledger summary into the "
        "report's invariants block (default: on; the checks themselves are "
        "always enforced inside the harness and abort a violating case)",
    )
    parser.add_argument(
        "--no-check-invariants",
        dest="check_invariants",
        action="store_false",
        help="omit the per-case invariants block (e.g. to compare against "
        "reports from before the ledger existed)",
    )
    parser.add_argument(
        "--timeseries",
        default=None,
        metavar="PATH",
        help="also export the plot-ready Figure 5-10 series (view-size "
        "timeseries, per-node convergence ECDF) as long-format CSV",
    )
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="PATTERN=SECONDS",
        help="fail the run when a selected case whose name contains "
        "PATTERN exceeds SECONDS of wall time (repeatable)",
    )
    parser.add_argument(
        "--keep-going",
        action="store_true",
        help="run the remaining cases after a case fails (the failure is "
        "still marked in the outputs and the exit status stays 1)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the selected cases and exit"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    args = parser.parse_args(argv)
    label = "grid" if args.grid is not None else args.suite or "quick"
    try:
        budgets = parse_budgets(args.budget)
        if args.grid is not None:
            specs = [spec.scaled(args.scale) for spec in grid_specs(args.grid)]
        else:
            specs = suite_specs(label, scale=args.scale)
    except (OSError, ValueError) as exc:  # bad budget, grid spec or grid file
        print(exc, file=sys.stderr)
        return 2
    counts = collections.Counter(spec.name for spec in specs)
    duplicates = sorted(name for name, count in counts.items() if count > 1)
    if duplicates:
        # Names key --filter, --budget and compare; a duplicate would make
        # all three silently conflate two runs.
        print(f"duplicate case names: {', '.join(duplicates)}", file=sys.stderr)
        return 2
    if args.filter:
        specs = [spec for spec in specs if args.filter in spec.name]
    if not specs:
        print("no cases selected", file=sys.stderr)
        return 2
    if args.list:
        for spec in specs:
            print(spec.name)
        return 0

    runner = BenchRunner(
        include_per_node=args.per_node,
        track_alloc=args.mem,
        check_invariants=args.check_invariants,
        log=None if args.quiet else print,
    )
    cases = runner.run(specs, keep_going=args.keep_going)
    print(render_report(cases))
    report = build_report(label, args.scale, cases)
    out = write_report(report, args.out or f"BENCH_{label}.json")
    print(f"wrote {len(cases)} cases to {out}")
    if args.timeseries:
        ts = write_timeseries_csv(cases, args.timeseries)
        print(f"wrote timeseries CSV to {ts}")
    digest = csv_hash(cases)
    if args.csv:
        text = csv_text(cases)
        Path(args.csv).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {len(text.splitlines()) - 1} CSV rows to {args.csv}")
    print(f"csv sha256: {digest}")
    if args.hash_out:
        Path(args.hash_out).write_text(digest + "\n", encoding="utf-8")

    failures = [f"{case.spec.name} failed: {case.error}"
                for case in cases if case.error is not None]
    if args.expect_hash and digest != args.expect_hash.strip():
        failures.append(f"csv hash mismatch (expected {args.expect_hash.strip()})")
    failures.extend(budget_breaches(report["cases"], budgets))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
