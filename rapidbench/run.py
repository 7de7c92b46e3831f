"""The repository benchmark's command.

Usage, from the root of a checkout::

    python3 rapidbench/run.py --workload crash --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  One fresh
process sets up and then runs the measured phase ``REPEATS`` times
(constants of ``rapidbench/worker.py``), each repeat in a child forked
from the same set-up state, so every repeat does the same work; between
repeats, ``SETUPS - 1`` more fresh processes only set up.  ``setup_s`` is
the median of the ``SETUPS`` set-ups, ``peak_rss_mb`` the median of the
repeats, and ``wall_refs`` the repeats' lower envelope: the phase cut into
pieces of ``MARK_EVERY`` virtual seconds, each piece divided by the
reference loop timed next to it and taken from its fastest repeat (a
slower one measured the host, not the program).  ``--trace 1``
sets up once with tracing on and, from that state, runs an untraced and a
traced phase; it reports the per-layer metrics.  ``--seconds`` is accepted
for the benchmark contract; the schedule is fixed, 35-60 s on a 2-vCPU
host, and a run is stopped once it has taken ``BUDGET_S``.

Every run checks its outputs (see ``rapidbench/README.md``), that all set-ups
and all phases of the command produced the same deterministic outputs, and
that its hashes match those recorded in ``rapidbench/hashes.json``: both for
a recorded seed, the set-up hash for any other.  Standard error gets a
table of every metric with its unit, the checks and the hashes.  The
second-to-last line of standard output is the full report as JSON; the last
line is the result object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when a check failed or the
hashes disagree, and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".rapidbench"
HASHES = Path(__file__).resolve().parent / "hashes.json"

#: Seed of every quoted measurement, and the held-out seed a claimed gain
#: must also be checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
#: A run ends well inside the 180 s a run may take.
BUDGET_S = 170.0

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_refs": "refs",
    "peak_rss_mb": "MiB",
    "converge_virtual_s.p50": "virtual_s",
    "converge_virtual_s.p99": "virtual_s",
    "view_changes_per_node": "count",
    "msgs_per_node_s": "1/s",
    "bytes_per_node_s": "B/s",
}
#: Printed and checked but left out of the result object's metrics:
#: ``healthy_evictions`` and ``failed_share`` are zero on a correct run,
#: and ``wall_s`` follows the host's speed more than ``wall_refs`` does.
NOT_LISTED = {"healthy_evictions": "count", "failed_share": "ratio", "wall_s": "s"}


def _per_layer_units() -> dict:
    units: dict[str, str] = {}

    def spans(*names: str, prefix: str = "") -> None:
        for name in names:
            units[f"{prefix}{name}.calls"] = "count"
            units[f"{prefix}{name}.self_s"] = "s"

    # The measured phase.
    units.update({"sim.engine.events": "count", "sim.engine.events_per_s": "1/s",
                  "sim.engine.self_s": "s"})
    spans("sim.network.send", "sim.network.broadcast", "sim.network.wire_size")
    units.update({"sim.network.msgs_sent": "count", "sim.network.msgs_dropped": "count"})
    for cls in ("Probe", "ProbeAck", "GossipBundle", "GossipEnvelope_BatchedAlerts",
                "VoteBundle", "Decision", "JoinResponse"):
        units[f"sim.network.bytes.{cls}"] = "B"
    spans(*(f"core.membership.on_message.{cls}" for cls in (
        "Probe", "ProbeAck", "GossipBundle", "GossipEnvelope", "VoteBundle",
        "VotePull", "Decision", "PreJoinRequest", "JoinRequest", "BatchedAlerts")))
    spans(*(f"core.membership.timer.{owner}" for owner in (
        "RapidNode._wheel_tick", "RapidNode._flush_alerts",
        "GossipBroadcaster._flush_relays", "FastPaxos._gossip_tick")))
    units.update({"detectors.probe_success": "count", "detectors.probe_failure": "count",
                  "detectors.failure_ratio": "ratio"})
    spans("core.cut_detector.receive_alert")
    units["core.cut_detector.proposals_per_alert"] = "ratio"
    spans("core.fast_paxos.handle", "core.fast_paxos.propose")
    units.update({"core.fast_paxos.decisions": "count",
                  "core.fast_paxos.fast_path_share": "ratio",
                  "core.fast_paxos.decide_virtual_s.p50": "virtual_s",
                  "core.fast_paxos.decide_virtual_s.p99": "virtual_s"})
    spans(*(f"core.broadcaster.{cls}.{method}"
            for cls in ("UnicastBroadcaster", "GossipBroadcaster", "AdaptiveBroadcaster")
            for method in ("broadcast", "handle", "set_membership")))
    spans("core.join.begin", "core.join.on_pre_join_response",
          "core.join.on_join_response")
    units["core.join.attempts_per_join"] = "ratio"
    spans("core.configuration.apply", "core.configuration.apply_delta",
          "core.configuration.view_snapshot")
    units.update({"core.configuration.live_mb": "MiB",
                  "core.configuration.objects_per_config_id": "ratio"})
    spans("obs.invariants.observe")
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.reconcile_error_s": "s"})
    # The set-up bootstrap, traced: its big add-cuts, where join, consensus
    # and view install cost the most.
    setup = "setup."
    units.update({"setup.trace.wall_s": "s", "setup.sim.engine.events": "count",
                  "setup.sim.engine.self_s": "s"})
    spans("core.join.begin", "core.join.on_join_response",
          "core.membership.on_message.JoinRequest",
          "core.membership.on_message.BatchedAlerts",
          "core.configuration.apply",
          "core.configuration.apply_delta", "core.configuration.view_snapshot",
          "core.fast_paxos.handle",
          "core.broadcaster.GossipBroadcaster.set_membership",
          prefix=setup)
    units.update({"setup.core.join.attempts_per_join": "ratio",
                  "setup.core.configuration.live_mb": "MiB",
                  "setup.core.configuration.objects_per_config_id": "ratio",
                  "setup.core.fast_paxos.decisions": "count",
                  "setup.sim.network.bytes.JoinResponse": "B",
                  "setup.sim.network.bytes.VoteBundle": "B"})
    return units


#: Per-layer metrics reported by ``--trace 1``: name -> unit.  A layer
#: that did no work in a workload reports 0.
PER_LAYER = _per_layer_units()


def _source_present() -> bool:
    return (ROOT / "src" / "repro" / "experiments" / "harness.py").is_file()


def _spawn(args, role: str, deadline: float, spans=None) -> dict:
    """Run one worker process and return its JSON report."""
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload,
        "--seed", str(args.seed), "--role", role,
    ]
    if args.n:
        cmd += ["--n", str(args.n)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"role": role, "error": "TimeoutExpired: run exceeded its time budget"}
    lines = out.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
    return {"role": role, "error": f"worker failed: {tail[0]}"}


def _phases(report: dict) -> list[dict]:
    if "repeats" in report:
        return report["repeats"]
    return [report[key].get("phase", report[key])
            for key in ("untraced", "traced") if key in report]


def evaluate(reports: list[dict], recorded: dict | None = None) -> dict:
    """Checks, determinism and counts over the worker reports of a run.

    ``recorded`` is the seed's entry in ``rapidbench/hashes.json``, if any.
    """
    phases = [phase for report in reports for phase in _phases(report)]
    errors = [p["error"] for p in [*reports, *phases] if p.get("error")]
    checks: dict[str, bool] = {}
    for phase in phases:
        for name, ok in phase.get("checks", {}).items():
            checks[name] = checks.get(name, True) and ok
    setup_hashes = sorted({r["setup_hash"] for r in reports if "setup_hash" in r})
    phase_hashes = sorted({p["phase_hash"] for p in phases if "phase_hash" in p})
    checks["deterministic_setup"] = len(setup_hashes) <= 1
    checks["deterministic_phase"] = len(phase_hashes) <= 1
    if recorded is not None:
        hashes = {"setup": setup_hashes, "phase": phase_hashes}
        checks["matches_recorded_hashes"] = all(
            hashes[key] == [value] for key, value in recorded.items()
        )
    checks["ran"] = not errors and bool(phases)
    attempted = sum(p.get("attempted", 0) for p in phases) or 1
    failed = sum(p.get("failed", 0) for p in phases)
    if errors:
        failed = attempted
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "errors": errors,
        "setup_hashes": setup_hashes,
        "phase_hashes": phase_hashes,
    }


def lower_envelope(repeats: list[dict], per_reference: bool = False) -> float:
    """Time of a phase with the host's slow spells taken out.

    Every repeat does the same work and marks its wall clock every
    ``MARK_EVERY`` virtual seconds; each piece between two marks counts
    with its fastest repeat.  With ``per_reference`` a piece is first
    divided by the reference loop timed next to it, so the result counts
    reference loops instead of seconds.
    """
    pieces = []
    for repeat in repeats:
        points = [0.0, *repeat["marks"], repeat["wall_s"]]
        piece = [b - a for a, b in zip(points, points[1:])]
        if per_reference:
            refs = repeat["refs"] + repeat["refs"][-1:]
            piece = [t / ref for t, ref in zip(piece, refs)]
        pieces.append(piece)
    return sum(min(piece) for piece in zip(*pieces))


def end_to_end(reports: list[dict], verdict: dict) -> dict:
    """End-to-end metrics of a ``--trace 0`` run.

    ``setup_s`` and ``peak_rss_mb`` are medians over the run's samples;
    ``wall_s`` and ``wall_refs`` are the repeats' :func:`lower_envelope`
    in seconds and in reference loops.
    """
    metrics: dict = {}
    setups = [r["setup_s"] for r in reports if "setup_s" in r]
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    repeats = [p for r in reports for p in r.get("repeats", []) if not p.get("error")]
    if repeats:
        metrics["wall_s"] = lower_envelope(repeats)
        metrics["wall_refs"] = lower_envelope(repeats, per_reference=True)
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in repeats)
        metrics.update(repeats[0]["virtual"])
    metrics["failed_share"] = verdict["failed"] / verdict["attempted"]
    return metrics


def per_layer(report: dict) -> dict:
    """Per-layer metrics of a ``--trace 1`` run."""
    from rapidbench.layers import bytes_metric

    traced, plain = report.get("traced", {}), report.get("untraced", {})
    if "layers" not in traced or "wall_s" not in plain:
        return {}
    layers = dict(traced["layers"])
    counts = traced["phase"]["counts"]
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_s"] = layers["trace.wall_s"] - plain["wall_s"]
    layers["sim.engine.events_per_s"] = layers["sim.engine.events"] / plain["wall_s"]
    layers["sim.network.msgs_sent"] = counts["msgs_sent"]
    layers["sim.network.msgs_dropped"] = counts["msgs_dropped"]
    for cls, (_, size) in counts["by_class"].items():
        layers[bytes_metric(cls)] = size
    layers.update(report.get("setup_layers", {}))
    return layers


def _recorded(args):
    """The recorded hashes of this workload and seed, at the default size.

    Every seed shares one set-up, so a seed with no record of its own is
    still held to the recorded set-up hash.
    """
    if args.n is not None or not HASHES.is_file():
        return None
    by_seed = json.loads(HASHES.read_text()).get(args.workload, {})
    if str(args.seed) in by_seed:
        return by_seed[str(args.seed)]
    setups = {entry["setup"] for entry in by_seed.values()}
    return {"setup": setups.pop()} if len(setups) == 1 else None


def _print_table(args, params, verdict, metrics, units) -> None:
    err = sys.stderr
    print(f"rapidbench {args.workload} seed={args.seed} trace={args.trace}", file=err)
    print(f"  params: {json.dumps(params, sort_keys=True)}", file=err)
    for name in sorted(metrics):
        print(f"  {name:<58} {metrics[name]:>16.6g} {units(name)}", file=err)
    for name, ok in sorted(verdict["checks"].items()):
        print(f"  check {name:<40} {'ok' if ok else 'FAILED'}", file=err)
    for error in verdict["errors"]:
        print(f"  error: {error}", file=err)
    hashes = {"setup": verdict["setup_hashes"], "phase": verdict["phase_hashes"]}
    print(f"  hashes: {json.dumps(hashes)}", file=err)


def main(argv=None) -> int:
    """Parse the command line, run the workload, print the result."""
    parser = argparse.ArgumentParser(description="Rapid membership benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n", type=int, default=None,
        help="cluster-size override for smoke tests; measurements use the default",
    )
    args = parser.parse_args(argv)
    if not _source_present():
        print("rapidbench: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from rapidbench.workloads import DELAY_MODEL, SETUP_SEED, WORKLOADS, params_for

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        spans = OUT_DIR / f"spans-{args.workload}.bin"
        samples = [_spawn(args, "trace", deadline, spans)]
    else:
        phase = _spawn(args, "phase", deadline)
        samples = [phase, *phase.pop("setups", [])]
    verdict = evaluate(samples, _recorded(args))
    if args.trace:
        metrics = per_layer(samples[0])
        units = PER_LAYER
        if metrics:
            metrics = {name: metrics.get(name, 0) for name in PER_LAYER} | {
                name: value for name, value in metrics.items() if name not in PER_LAYER
            }
    else:
        metrics = end_to_end(samples, verdict)
        units = {**END_TO_END, **NOT_LISTED}
    params = params_for(args.workload, args.n)
    _print_table(args, params, verdict, metrics, lambda name: units.get(name, ""))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_seed": SETUP_SEED,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "delay_model": DELAY_MODEL,
        "params": params,
        "metrics": metrics,
        **verdict,
        "samples": samples,
    }
    print(json.dumps(report, sort_keys=True))
    keep = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in keep.items() if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if verdict["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
