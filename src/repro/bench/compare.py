"""Diff two ``repro.bench`` reports: perf deltas and determinism drift.

``python -m repro.bench compare OLD.json NEW.json`` matches cases by
name and prints, per case, the wall-time, events-per-wall-second, and
bytes-sent deltas.  Two kinds of problems are detected:

* **performance regressions** — a case whose ``events_per_wall_s``
  dropped by more than ``--threshold`` (default 30%).  Wall-clock
  throughput is machine-local, so the threshold is deliberately loose;
  CI uses this as a tripwire for large simulator slowdowns.
* **determinism drift** — any *deterministic* field differing between
  the reports (everything except :data:`repro.bench.runner.NONDETERMINISTIC_FIELDS`).
  Virtual-time fields are machine-independent: the committed
  ``BENCH_quick.json`` must replay byte-identically anywhere.

A third check guards absolute cost rather than relative change:
**wall-clock budgets** (``--budget PATTERN=SECONDS``, repeatable) fail any
case in NEW whose name contains ``PATTERN`` and whose ``wall_s`` exceeds
the budget.  Regression thresholds are ratios, so a case that was always
slow passes them; budgets are how CI pins "the n=1000 cases must stay
under a minute" style guarantees.  A pattern matching no case is an error
(it usually means a renamed case silently un-gated the budget).

The process exit code encodes the verdict: 0 clean, 1 regression /
budget breach (or drift when ``--require-determinism`` is set), 2
usage/IO error — including a malformed report: a duplicated case name,
a failed case, or a case without a positive throughput.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.report import render_table
from repro.bench.runner import NONDETERMINISTIC_FIELDS

__all__ = [
    "CaseDelta",
    "compare_reports",
    "render_comparison",
    "parse_budgets",
    "budget_breaches",
]


def parse_budgets(specs: Sequence[str]) -> list:
    """Parse repeated ``PATTERN=SECONDS`` budget flags.

    Returns ``[(pattern, seconds), ...]``; raises ``ValueError`` on a
    malformed spec so CLIs can report it as a usage error.
    """
    budgets = []
    for spec in specs:
        pattern, sep, seconds = spec.rpartition("=")
        if not sep or not pattern:
            raise ValueError(f"budget {spec!r} is not of the form PATTERN=SECONDS")
        try:
            limit = float(seconds)
        except ValueError:
            raise ValueError(f"budget {spec!r} has a non-numeric limit {seconds!r}")
        if limit <= 0:
            raise ValueError(f"budget {spec!r} must be positive")
        budgets.append((pattern, limit))
    return budgets


def budget_breaches(cases: Sequence[dict], budgets: Sequence[tuple]) -> list:
    """Check case wall times against budgets; returns failure messages.

    A budget applies to every case whose name contains its pattern.  A
    pattern that matches nothing is itself a failure: a renamed or removed
    case must not silently un-gate its budget.
    """
    failures = []
    for pattern, limit in budgets:
        matched = [case for case in cases if pattern in case.get("name", "")]
        if not matched:
            failures.append(f"budget {pattern}={limit:g}s matched no cases")
            continue
        for case in matched:
            wall = case.get("wall_s")
            if not isinstance(wall, (int, float)) or wall <= 0:
                # A budgeted case without a usable wall time must not pass
                # vacuously — same no-silent-ungating rule as above.
                failures.append(
                    f"budget {pattern}={limit:g}s: case {case['name']!r} "
                    f"has no usable wall_s ({wall!r})"
                )
            elif wall > limit:
                failures.append(
                    f"budget breach: {case['name']} took {wall:.2f}s "
                    f"(budget {limit:g}s)"
                )
    return failures


class CaseDelta:
    """Delta between one case's measurements in two reports."""

    __slots__ = (
        "name",
        "old_wall_s",
        "new_wall_s",
        "old_events_per_wall_s",
        "new_events_per_wall_s",
        "old_bytes_sent",
        "new_bytes_sent",
        "drifted_fields",
    )

    def __init__(self, old: dict, new: dict) -> None:
        self.name = old["name"]
        self.old_wall_s = old.get("wall_s", 0.0)
        self.new_wall_s = new.get("wall_s", 0.0)
        self.old_events_per_wall_s = old.get("events_per_wall_s", 0.0)
        self.new_events_per_wall_s = new.get("events_per_wall_s", 0.0)
        self.old_bytes_sent = old.get("messages", {}).get("bytes_sent", 0)
        self.new_bytes_sent = new.get("messages", {}).get("bytes_sent", 0)
        self.drifted_fields = sorted(
            field
            for field in set(old) | set(new)
            if field not in NONDETERMINISTIC_FIELDS
            and old.get(field) != new.get(field)
        )

    @property
    def speedup(self) -> Optional[float]:
        """``new/old`` events-per-wall-second ratio (``None`` if undefined)."""
        if self.old_events_per_wall_s > 0 and self.new_events_per_wall_s > 0:
            return self.new_events_per_wall_s / self.old_events_per_wall_s
        return None

    def regressed(self, threshold: float) -> bool:
        """True when throughput dropped by more than ``threshold``."""
        ratio = self.speedup
        return ratio is not None and ratio < 1.0 - threshold


def compare_reports(old: dict, new: dict) -> dict:
    """Match cases by name and compute their deltas.

    Returns ``{"deltas": [CaseDelta], "missing": [name], "added": [name]}``
    where *missing* cases exist only in ``old`` and *added* only in
    ``new`` (both count as determinism drift for a same-suite compare).
    """
    old_schema, new_schema = old.get("schema"), new.get("schema")
    if old_schema != new_schema:
        # Field shapes may differ between schema revisions (e.g.
        # messages.by_class grew byte totals); diffing across them would
        # report every such field as determinism drift instead of the
        # real problem.
        raise ValueError(
            f"schema mismatch: OLD is {old_schema!r}, NEW is {new_schema!r} "
            "— re-record the baseline with this version"
        )
    old_cases = _cases_by_name("OLD", old)
    new_cases = _cases_by_name("NEW", new)
    deltas = [
        CaseDelta(old_cases[name], new_cases[name])
        for name in old_cases
        if name in new_cases
    ]
    return {
        "deltas": deltas,
        "missing": sorted(set(old_cases) - set(new_cases)),
        "added": sorted(set(new_cases) - set(old_cases)),
    }


def _cases_by_name(label: str, report: dict) -> dict:
    """Index a report's cases by name, rejecting unusable ones."""
    cases: dict = {}
    for case in report.get("cases", []):
        name = case["name"]
        if name in cases:
            # Keying by name would silently keep only the last duplicate.
            raise ValueError(f"{label} has duplicate case name {name!r}")
        if "error" in case:
            raise ValueError(f"{label} case {name!r} failed: {case['error']}")
        # A report without a positive throughput number would make the
        # regression check silently vacuous (speedup == None, regressed()
        # == False) while the determinism check skips the field as
        # nondeterministic — reject it instead.
        if not case.get("events_per_wall_s", 0) > 0:
            raise ValueError(
                f"{label} case {name!r} has no positive events_per_wall_s"
            )
        cases[name] = case
    return cases


def render_comparison(comparison: dict, threshold: float) -> str:
    """ASCII table of per-case deltas, flagging regressions and drift."""
    rows = []
    for delta in comparison["deltas"]:
        ratio = delta.speedup
        flags = []
        if delta.regressed(threshold):
            flags.append("REGRESSION")
        if delta.drifted_fields:
            flags.append("drift:" + ",".join(delta.drifted_fields))
        rows.append(
            [
                delta.name,
                f"{delta.old_wall_s:.2f}",
                f"{delta.new_wall_s:.2f}",
                f"{delta.old_events_per_wall_s:.0f}",
                f"{delta.new_events_per_wall_s:.0f}",
                f"{ratio:.2f}x" if ratio is not None else "n/a",
                f"{(delta.new_bytes_sent - delta.old_bytes_sent) / 1024.0:+.0f}",
                " ".join(flags) or "ok",
            ]
        )
    for name in comparison["missing"]:
        rows.append([name, "-", "-", "-", "-", "-", "-", "missing in NEW"])
    for name in comparison["added"]:
        rows.append([name, "-", "-", "-", "-", "-", "-", "only in NEW"])
    return render_table(
        [
            "case",
            "wall_s old",
            "wall_s new",
            "ev/s old",
            "ev/s new",
            "ratio",
            "KB tx Δ",
            "verdict",
        ],
        rows,
        title=f"benchmark comparison (regression threshold {threshold:.0%})",
    )


def main(argv: Sequence[str]) -> int:
    """Entry point for ``python -m repro.bench compare ...``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench compare",
        description="Diff two repro.bench JSON reports.",
    )
    parser.add_argument("old", metavar="OLD.json")
    parser.add_argument("new", metavar="NEW.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="events_per_wall_s drop that counts as a regression "
        "(fraction, default 0.30)",
    )
    parser.add_argument(
        "--require-determinism",
        action="store_true",
        help="exit nonzero when any deterministic field differs "
        "(wall-time and memory fields are always excluded)",
    )
    parser.add_argument(
        "--budget",
        action="append",
        default=[],
        metavar="PATTERN=SECONDS",
        help="fail any NEW case whose name contains PATTERN and whose "
        "wall_s exceeds SECONDS (repeatable)",
    )
    args = parser.parse_args(argv)
    try:
        budgets = parse_budgets(args.budget)
    except ValueError as exc:
        print(exc)
        return 2

    reports = []
    for path in (args.old, args.new):
        try:
            reports.append(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read report {path}: {exc}")
            return 2
    try:
        comparison = compare_reports(*reports)
        print(render_comparison(comparison, args.threshold))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # Structurally malformed report (e.g. a case without a "name" or
        # without a usable throughput number): a usage error, not a
        # benchmark regression.
        print(f"malformed report: {exc!r}")
        return 2

    failures = []
    regressions = [
        d.name for d in comparison["deltas"] if d.regressed(args.threshold)
    ]
    if regressions:
        failures.append(f"throughput regressions: {', '.join(regressions)}")
    failures.extend(budget_breaches(reports[1].get("cases", []), budgets))
    if args.require_determinism:
        drifted = [d.name for d in comparison["deltas"] if d.drifted_fields]
        if drifted:
            failures.append(f"determinism drift: {', '.join(drifted)}")
        if comparison["missing"] or comparison["added"]:
            failures.append(
                f"case set changed: -{len(comparison['missing'])} "
                f"+{len(comparison['added'])}"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("ok")
    return 0
