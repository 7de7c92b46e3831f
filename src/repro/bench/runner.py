"""Benchmark execution, measurement capture, and BENCH_*.json output.

:class:`BenchRunner` executes :class:`~repro.bench.specs.BenchSpec` cases
through the experiment scenario functions, timing each with the wall
clock and harvesting the deterministic measurement substrate afterwards:
virtual duration, events processed, the network's ``net.*`` counters, and
the full metrics snapshot of the harness registry.

The report schema (``repro.bench/v2``)::

    {
      "schema": "repro.bench/v2",
      "suite": "quick",
      "scale": 1.0,
      "config": {"python": ..., "platform": ..., "git": ...},
      "cases": [
        {
          "name": "bootstrap/rapid/n16/s1",
          "scenario": ..., "system": ..., "n": ..., "seed": ..., "params": {...},
          "wall_s": 0.13,                  # nondeterministic (machine-local)
          "engine_wall_s": 0.11,           # wall time inside the event loop
          "virtual_s": 15.0,               # deterministic given the seed
          "events_processed": 5921,        # deterministic
          "events_per_wall_s": 45547.3,
          "events_per_virtual_s": 394.7,
          "messages": {"sent": ..., "delivered": ..., "dropped": ...,
                        "bytes_sent": ..., "bytes_received": ...},
          "metrics": {<registry snapshot: counters, gauges,
                       histogram quantile summaries>},
          "result": {<scenario scalars: convergence_time, ...>},
          "invariants": {"checked": 412, "nodes": 16, "configs": 4,
                         "max_seq": 4, "ok": true},  # ViewLedger summary
                                        # (absent for harnesses without a
                                        # ledger or with --no-check-invariants)
          "peak_rss_kb": 48560,            # nondeterministic (machine-local)
          "alloc_peak_bytes": null,        # set when run with --mem
          "error": "ValueError: ..."       # only on a case that raised
        }, ...
      ]
    }

Everything except the fields named in :data:`NONDETERMINISTIC_FIELDS`
(wall-clock timings and memory measurements) is derived from virtual
time and counters, so two same-seed runs produce identical values — the
property the regression tests and ``python -m repro.bench compare`` pin.

The same case records also render as a long-format CSV
(:func:`csv_text`: one ``scenario,profile,system,n,seed,metric,value``
row per scalar result), whose sha256 (:func:`csv_hash`) is the
determinism fingerprint of a grid run.

Failure accounting: a case whose scenario raises (including an
:class:`~repro.obs.invariants.InvariantViolation` from the safety
monitor) becomes a :class:`CaseResult` with ``error`` set — an ``error``
field in the JSON report and a single ``error,1`` CSV row — instead of
vanishing.  :meth:`BenchRunner.run` stops at the first failed case unless
``keep_going=True``.  Scenario exceptions are simulation-deterministic,
so error rows hash like any other row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import platform
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.report import render_table
from repro.bench.specs import BenchSpec
from repro.experiments import scenarios

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

__all__ = [
    "BenchRunner",
    "CaseResult",
    "NONDETERMINISTIC_FIELDS",
    "CSV_HEADER",
    "csv_hash",
    "csv_rows",
    "csv_text",
    "write_report",
    "render_report",
    "write_timeseries_csv",
]

SCHEMA = "repro.bench/v2"

#: Case fields that legitimately differ between two same-seed runs:
#: wall-clock timings and machine-local memory measurements.  Everything
#: else in a case is derived from virtual time and counters and must be
#: byte-identical across runs — the property ``repro.bench compare``
#: and the determinism tests check.
NONDETERMINISTIC_FIELDS = frozenset(
    {"wall_s", "engine_wall_s", "events_per_wall_s", "peak_rss_kb", "alloc_peak_bytes"}
)

# Result keys that are either unserializable or too bulky for BENCH files.
_RESULT_EXCLUDE = {
    "harness",
    "timeseries",
    "per_node_times",
    "app_latency_series",
    "app_goodput_series",
}


@dataclass
class CaseResult:
    """Measurements for one executed benchmark case.

    ``wall_s`` covers the whole case (harness construction included);
    ``engine_wall_s`` is the time spent inside the event loop proper and
    is the denominator for ``events_per_wall_s`` — the number to regress
    when optimizing the simulator's hot paths.
    """

    spec: BenchSpec
    wall_s: float
    engine_wall_s: float = 0.0
    virtual_s: float = 0.0
    events_processed: int = 0
    messages: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    #: Process high-water RSS (KB) sampled after the case; monotone over a
    #: suite run, so only growth between cases is attributable to a case.
    peak_rss_kb: Optional[int] = None
    #: Peak python-allocated bytes during the case, via ``tracemalloc``
    #: (only when the runner was built with ``track_alloc=True`` — tracing
    #: roughly doubles wall time, so it is off by default).
    alloc_peak_bytes: Optional[int] = None
    #: :meth:`~repro.obs.invariants.ViewLedger.report` summary of the
    #: harness's safety-invariant ledger: how many view installations were
    #: checked (each one passed, or the case would have aborted with an
    #: ``InvariantViolation``).  ``None`` when the harness has no ledger
    #: (baseline agent systems) or invariant harvesting was disabled.
    invariants: Optional[dict] = None
    #: Plot-ready series harvested from the scenario outcome (the
    #: Figure 5-10 inputs: the view-size timeseries and the per-node
    #: convergence times).  Kept off the JSON report — bulky and already
    #: derivable — and exported on demand via :func:`write_timeseries_csv`
    #: (``python -m repro.bench --timeseries out.csv``).
    series: dict = field(default_factory=dict)
    #: ``"ExceptionType: message"`` when the scenario raised; the case's
    #: measurements are then empty.
    error: Optional[str] = None

    @property
    def events_per_wall_s(self) -> float:
        denominator = self.engine_wall_s or self.wall_s
        return self.events_processed / denominator if denominator > 0 else 0.0

    def to_json(self) -> dict:
        payload = {
            "name": self.spec.name,
            "scenario": self.spec.scenario,
            "system": self.spec.system,
            "n": self.spec.n,
            "seed": self.spec.seed,
            "params": dict(self.spec.params),
            "wall_s": self.wall_s,
            "engine_wall_s": self.engine_wall_s,
            "virtual_s": self.virtual_s,
            "events_processed": self.events_processed,
            "events_per_wall_s": self.events_per_wall_s,
            "events_per_virtual_s": (
                self.events_processed / self.virtual_s if self.virtual_s > 0 else 0.0
            ),
            "messages": self.messages,
            "metrics": self.metrics,
            "result": self.result,
            "peak_rss_kb": self.peak_rss_kb,
            "alloc_peak_bytes": self.alloc_peak_bytes,
        }
        if self.invariants is not None:
            payload["invariants"] = self.invariants
        if self.error is not None:
            payload["error"] = self.error
        return payload


class BenchRunner:
    """Executes benchmark specs and assembles the report.

    Parameters
    ----------
    include_per_node:
        Whether ``node.<ep>.*`` metrics are kept in case snapshots
        (dropped by default: they grow linearly with cluster size).
    track_alloc:
        Trace python allocations with ``tracemalloc`` and record each
        case's peak (``alloc_peak_bytes``).  Off by default: tracing
        roughly doubles wall time, which would poison the
        ``events_per_wall_s`` regression signal.
    check_invariants:
        Harvest the harness's :class:`~repro.obs.invariants.ViewLedger`
        summary into each case (``invariants`` block).  The safety checks
        themselves are always on inside the harness — a violation aborts
        the case regardless — so disabling this only drops the per-case
        certification block from the report (e.g. to compare against
        pre-ledger baselines).
    log:
        Progress sink (``None`` silences it).
    """

    def __init__(
        self,
        include_per_node: bool = False,
        track_alloc: bool = False,
        check_invariants: bool = True,
        log: Optional[Callable[[str], None]] = print,
    ) -> None:
        self.include_per_node = include_per_node
        self.track_alloc = track_alloc
        self.check_invariants = check_invariants
        self._log = log or (lambda message: None)

    # -------------------------------------------------------------- execution

    def run_case(self, spec: BenchSpec) -> CaseResult:
        """Execute one spec and harvest its measurements.

        A scenario that raises yields a case with ``error`` set rather
        than propagating the exception.
        """
        alloc_peak: Optional[int] = None
        if self.track_alloc:
            tracemalloc.start()
            tracemalloc.reset_peak()
        started = time.perf_counter()
        try:
            fn = scenarios.SCENARIO_FUNCTIONS[spec.scenario]
            outcome = fn(spec.system, spec.n, seed=spec.seed, **spec.params)
        except Exception as exc:
            self._log(traceback.format_exc())
            return CaseResult(
                spec=spec,
                wall_s=time.perf_counter() - started,
                error=f"{type(exc).__name__}: {exc}",
            )
        finally:
            if self.track_alloc:
                _, alloc_peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
        wall_s = time.perf_counter() - started
        peak_rss_kb: Optional[int] = None
        if resource is not None:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if sys.platform == "darwin":
                peak_rss_kb //= 1024  # ru_maxrss is bytes on macOS, KB on Linux
        harness = outcome["harness"]
        engine = harness.engine
        network = harness.network
        ledger = harness.ledger
        invariants = (
            ledger.report() if self.check_invariants and ledger is not None else None
        )
        duplicate_counts = getattr(network, "duplicate_counts", {})
        reorder_counts = getattr(network, "reorder_counts", {})
        snapshot = harness.metrics.snapshot()
        if not self.include_per_node:
            snapshot = {
                k: v for k, v in snapshot.items() if not k.startswith("node.")
            }
        return CaseResult(
            spec=spec,
            wall_s=wall_s,
            engine_wall_s=engine.wall_time_s,
            virtual_s=engine.now,
            events_processed=engine.events_processed,
            messages={
                "sent": network.sent_messages,
                "delivered": network.delivered_messages,
                "dropped": network.dropped_messages,
                "bytes_sent": network.sent_bytes,
                "bytes_received": network.received_bytes,
                # Per-message-class breakdown (deterministic): what the
                # traffic *is* — message and wire-byte totals per class —
                # so wins like "3x fewer probe events" or "join responses
                # shrank 10x" are attributable from the report alone.
                # Classes touched by a message adversary additionally
                # carry "duplicates"/"reordered" counts (absent otherwise,
                # so reports without an adversary keep their exact shape).
                "by_class": {
                    key: _class_row(
                        count,
                        network.class_bytes.get(key, 0),
                        duplicate_counts.get(key, 0),
                        reorder_counts.get(key, 0),
                    )
                    for key, count in sorted(network.class_counts.items())
                },
            },
            metrics=snapshot,
            result=_scalars(outcome),
            peak_rss_kb=peak_rss_kb,
            alloc_peak_bytes=alloc_peak,
            invariants=invariants,
            series=_series(outcome),
        )

    def run(self, specs: Iterable[BenchSpec], keep_going: bool = False) -> list:
        """Run specs in order; stop after the first failed case unless
        ``keep_going`` (the failed case is kept in the results either way).
        """
        results = []
        for spec in specs:
            self._log(f"running {spec.name} ...")
            case = self.run_case(spec)
            results.append(case)
            if case.error is not None:
                self._log(f"  ERROR {case.error}")
                if not keep_going:
                    break
                continue
            self._log(
                f"  {case.wall_s:.2f}s wall, {case.virtual_s:.0f}s virtual, "
                f"{case.events_processed} events"
            )
        return results


def _class_row(count: int, byte_total: int, duplicates: int, reordered: int) -> dict:
    """One ``messages.by_class`` entry; adversary counts only when nonzero."""
    row = {"messages": count, "bytes": byte_total}
    if duplicates:
        row["duplicates"] = duplicates
    if reordered:
        row["reordered"] = reordered
    return row


# ------------------------------------------------------------------ reporting


def build_report(suite: str, scale: float, cases: Sequence[CaseResult]) -> dict:
    return {
        "schema": SCHEMA,
        "suite": suite,
        "scale": scale,
        "config": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git": _git_describe(),
        },
        "cases": [case.to_json() for case in cases],
    }


def write_report(report: dict, path: str) -> Path:
    """Serialize a report to ``path`` (e.g. ``BENCH_quick.json``)."""
    out = Path(path)
    out.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return out


def render_report(cases: Sequence[CaseResult]) -> str:
    """The paper-shaped ASCII summary of a benchmark run."""
    rows = []
    for case in cases:
        if case.error is not None:
            rows.append([case.spec.name, f"{case.wall_s:.2f}"]
                        + ["-"] * 6 + [f"FAILED {case.error}"])
            continue
        msgs = case.messages
        rows.append(
            [
                case.spec.name,
                f"{case.wall_s:.2f}",
                f"{case.virtual_s:.0f}",
                case.events_processed,
                f"{case.events_per_wall_s:.0f}",
                msgs["sent"],
                msgs["dropped"],
                f"{msgs['bytes_sent'] / 1024.0:.0f}",
                _headline(case),
            ]
        )
    return render_table(
        [
            "case",
            "wall_s",
            "virt_s",
            "events",
            "ev/wall_s",
            "msgs",
            "dropped",
            "KB tx",
            "outcome",
        ],
        rows,
        title="benchmark summary",
    )


def _headline(case: CaseResult) -> str:
    result = case.result
    if case.spec.scenario == "bootstrap":
        t = result.get("convergence_time")
        return f"converged@{t:.1f}s" if t is not None else "no convergence"
    if case.spec.scenario == "crash":
        t = result.get("removal_time")
        return f"removed@{t:.1f}s" if t is not None else "not removed"
    if case.spec.scenario == "join_churn":
        t = result.get("churn_convergence")
        return f"churned@{t:.1f}s" if t is not None else "no convergence"
    if case.spec.scenario == "packet_loss":
        return (
            f"stability={result.get('stability_score')}"
            f" removed={result.get('removed_faulty')}"
        )
    if case.spec.scenario == "adversary":
        return (
            f"evictions={result.get('healthy_evicted_nodes')}"
            f" flaps={result.get('flap_events')}"
            f" removed={result.get('faulty_removed')}"
        )
    if case.spec.scenario == "partition_heal":
        t = result.get("reconverge_time")
        healed = f"reconverged@{t:.1f}s" if t is not None else "no reconvergence"
        return (
            f"rejoined={result.get('rejoined')}/{result.get('minority')}"
            f" splits={result.get('minority_installs_during_partition')}"
            f" {healed}"
        )
    if case.spec.scenario in ("service_discovery", "txn_platform"):
        p99 = result.get("latency_p99")
        return (
            f"goodput={result.get('goodput_rps')}"
            f" ok={result.get('success_rate')}"
            f" p99={p99 if p99 is None else format(p99, '.3f')}"
        )
    return ""


def _series(outcome: dict) -> dict:
    """Harvest the plot-ready series a scenario outcome carries.

    ``timeseries`` is the per-step ``(time, min, median, max)`` view-size
    aggregate (Figures 1, 7-10); ``per_node_times`` maps endpoints to
    first-convergence times (the Figure 6 ECDF input).
    """
    series: dict = {}
    timeseries = outcome.get("timeseries")
    if timeseries:
        series["view_size"] = [tuple(row) for row in timeseries]
    per_node = outcome.get("per_node_times")
    if per_node:
        series["node_convergence"] = {
            str(ep): t for ep, t in sorted(per_node.items())
        }
    app_latency = outcome.get("app_latency_series")
    if app_latency:
        series["app_latency"] = [tuple(row) for row in app_latency]
    app_goodput = outcome.get("app_goodput_series")
    if app_goodput:
        series["app_goodput"] = [tuple(row) for row in app_goodput]
    return series


def write_timeseries_csv(cases: Sequence[CaseResult], path: str) -> Path:
    """Write the Figure 5-10 series of every case as long-format CSV.

    Columns are ``case, series, time, value``:

    * ``view_size_min`` / ``view_size_med`` / ``view_size_max`` — the
      per-step spread of believed cluster sizes (Figures 1 and 7-10);
    * ``node_convergence_ecdf`` — ``time`` is a node's first convergence
      time, ``value`` the cumulative fraction of nodes converged by then
      (Figure 6; the maximum ``time`` is the Figure 5 bootstrap latency);
    * ``app_latency_p50`` / ``app_latency_p99`` / ``app_latency_max`` —
      per-bucket request latency through the run, keyed by *intended*
      arrival time (Figures 12/13; empty buckets are skipped);
    * ``app_goodput`` — per-bucket completed requests per second.

    Rows are emitted in case order, then time order — deterministic for
    same-seed runs, and directly consumable by any plotting tool.
    """
    out = Path(path)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "series", "time", "value"])
        for case in cases:
            name = case.spec.name
            for t, lo, med, hi in case.series.get("view_size", ()):
                writer.writerow([name, "view_size_min", t, lo])
                writer.writerow([name, "view_size_med", t, med])
                writer.writerow([name, "view_size_max", t, hi])
            times = sorted(
                t
                for t in case.series.get("node_convergence", {}).values()
                if t is not None
            )
            for i, t in enumerate(times):
                writer.writerow(
                    [name, "node_convergence_ecdf", t, (i + 1) / len(times)]
                )
            for t, p50, p99, mx in case.series.get("app_latency", ()):
                if p50 is None:
                    continue
                writer.writerow([name, "app_latency_p50", t, p50])
                writer.writerow([name, "app_latency_p99", t, p99])
                writer.writerow([name, "app_latency_max", t, mx])
            for t, rps in case.series.get("app_goodput", ()):
                writer.writerow([name, "app_goodput", t, rps])
    return out


#: Header of the long-format CSV view (:func:`csv_text`).
CSV_HEADER = "scenario,profile,system,n,seed,metric,value"

#: Result keys that duplicate a CSV row's identity columns.
_IDENTITY_KEYS = frozenset({"system", "n", "profile"})


def _csv_value(value) -> Optional[str]:
    """Canonical CSV rendering of one scalar metric, or None to skip.

    Bools become 0/1, None becomes ``NA`` (ran, no measurement — e.g.
    detection latency when nothing was evicted); floats use ``repr`` for
    shortest-roundtrip stability.  Containers and strings are skipped.
    """
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return None


def csv_rows(case: CaseResult) -> list:
    """One case as long-format rows, in sorted metric order.

    A failed case is the single row ``error,1``.  When the scenario does
    not report ``invariant_checks`` itself, the ledger's ``checked`` count
    fills it in, so every row set certifies how many view installations
    the safety monitor validated.
    """
    spec = case.spec
    identity = (
        spec.scenario,
        str(spec.params.get("profile", "-")),
        spec.system,
        str(spec.n),
        str(spec.seed),
    )
    if case.error is not None:
        return [identity + ("error", "1")]
    result = case.result
    if "invariant_checks" not in result and case.invariants is not None:
        result = {**result, "invariant_checks": case.invariants["checked"]}
    rows = []
    for metric in sorted(result):
        rendered = _csv_value(result[metric])
        if metric not in _IDENTITY_KEYS and rendered is not None:
            rows.append(identity + (metric, rendered))
    return rows


def csv_text(cases: Sequence[CaseResult]) -> str:
    """The long-format CSV of every case (header + rows, LF endings)."""
    lines = [CSV_HEADER]
    lines.extend(",".join(row) for case in cases for row in csv_rows(case))
    return "\n".join(lines) + "\n"


def csv_hash(cases: Sequence[CaseResult]) -> str:
    """sha256 over :func:`csv_text` — the determinism fingerprint."""
    return hashlib.sha256(csv_text(cases).encode("utf-8")).hexdigest()


def _scalars(outcome: dict) -> dict:
    """Scenario results filtered down to JSON-friendly scalar facts."""
    kept: dict = {}
    for key, value in outcome.items():
        if key in _RESULT_EXCLUDE:
            continue
        if isinstance(value, (int, float, bool, str)) or value is None:
            kept[key] = value
        elif isinstance(value, (list, tuple, set, frozenset)):
            items = sorted(value) if isinstance(value, (set, frozenset)) else list(value)
            if len(items) <= 16 and all(
                isinstance(item, (int, float, bool, str)) for item in items
            ):
                kept[key] = items
    return kept


def _git_describe() -> Optional[str]:
    try:
        return (
            subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
            or None
        )
    except (OSError, subprocess.SubprocessError):
        return None
