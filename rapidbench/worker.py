"""One benchmark process: set up a workload, then measure it.

Run by :mod:`rapidbench.run`, never by hand::

    python3 rapidbench/worker.py --workload crash --seed 1 --role phase \\
        --spawned <time.monotonic() of the parent just before spawning>

Roles:

``setup``
    Set up only.  Report ``setup_s`` (process start to end of set-up, so
    interpreter start and imports count) and the set-up hash.
``phase``
    Set up as ``setup`` does, then run the measured phase :data:`REPEATS`
    times with tracing off, each in a forked child that starts from the
    same set-up state and reports the phase outcome and its own peak RSS.
    Between repeats it runs ``SETUPS - 1`` more ``setup`` processes, one
    at a time, so the repeats spread over the whole run.
``trace``
    Set up with tracing on, then run the phase twice from the set-up
    state, each in a forked child: untraced, then traced.  Reports the
    per-layer metrics of the set-up and of the traced phase.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Measured phases per ``phase`` process, and set-ups per ``phase`` process
#: counting its own.
REPEATS = 7
SETUPS = 3


def _paths() -> None:
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _in_fork(fn) -> dict:
    """Run ``fn()`` in a forked child and return the dict it produced."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = json.dumps(fn())
        except BaseException as exc:  # report any failure to the parent
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
            code = 1
        with os.fdopen(write_fd, "w") as out:
            out.write(payload)
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as src:
        data = src.read()
    os.waitpid(pid, 0)
    return json.loads(data) if data else {"error": "forked phase died"}


def _setup_process(args) -> dict:
    """Run one ``setup`` worker and return its report."""
    cmd = [sys.executable, __file__, "--workload", args.workload,
           "--seed", str(args.seed), "--role", "setup"]
    if args.n:
        cmd += ["--n", str(args.n)]
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {"role": "setup", "error": f"setup process failed: exit code {proc.returncode}"}


def _phase_record(outcome, rss_mb=None) -> dict:
    return {
        "wall_s": outcome.wall_s,
        "marks": outcome.marks,
        "refs": outcome.refs,
        "peak_rss_mb": rss_mb,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "virtual": outcome.virtual,
        "counts": outcome.counts,
        "checks": outcome.checks,
        "error": outcome.error,
        "phase_hash": outcome.phase_hash,
    }


def _consensus_counts(harness) -> dict:
    metrics = harness.metrics
    return {
        "fast_path": metrics.counter("consensus.decisions_fast_path").value,
        "fallback": metrics.counter("consensus.decisions_fallback").value,
    }


def trace_phase(run, spans_path=None) -> dict:
    """The two phase runs of the ``trace`` role, from one set-up state."""
    from rapidbench.layers import Tracer, configuration_memory, layer_metrics, write_spans
    from rapidbench.workloads import run_phase

    def untraced():
        return _phase_record(run_phase(run))

    def traced():
        tracer = Tracer()
        tracer.install(run.harness)
        before = _consensus_counts(run.harness)
        events0 = run.harness.engine.events_processed
        outcome = run_phase(run)
        tracer.uninstall(run.harness)
        after = _consensus_counts(run.harness)
        layers = layer_metrics(
            tracer,
            outcome.wall_s,
            run.harness.engine.events_processed - events0,
            {k: after[k] - before[k] for k in after},
        )
        layers.update(configuration_memory())
        if spans_path is not None:
            write_spans(tracer, spans_path)
        return {"phase": _phase_record(outcome), "layers": layers}

    return {"untraced": _in_fork(untraced), "traced": _in_fork(traced)}


def setup_layers(tracer, run, wall: float) -> dict:
    """Per-layer metrics of a traced set-up, each name prefixed ``setup.``."""
    from rapidbench.layers import bytes_metric, configuration_memory, layer_metrics

    harness = run.harness
    layers = layer_metrics(
        tracer, wall, harness.engine.events_processed, _consensus_counts(harness)
    )
    layers.update(configuration_memory())
    for cls, size in harness.network.class_bytes.items():
        layers[bytes_metric(cls)] = size
    return {f"setup.{name}": value for name, value in layers.items()}


def main(argv=None) -> int:
    """Entry point of one benchmark process."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("setup", "phase", "trace"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    _paths()
    from rapidbench.workloads import params_for, peak_rss_mb, run_phase, setup

    out: dict = {"role": args.role}
    tracer = None
    if args.role == "trace":
        from rapidbench.layers import Tracer

        tracer = Tracer()
        tracer.install()
    began = time.perf_counter()
    try:
        run = setup(args.workload, args.seed, params_for(args.workload, args.n))
    except Exception as exc:  # a set-up that fails is reported, not raised
        out["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(out))
        return 0
    out["setup_s"] = time.monotonic() - args.spawned
    if tracer is not None:
        wall = time.perf_counter() - began
        tracer.uninstall(run.harness)
        out["setup_layers"] = setup_layers(tracer, run, wall)
    out["setup_hash"] = run.setup_hash
    out["params"] = run.params
    if args.role == "phase":
        slots = [round(REPEATS * k / SETUPS) for k in range(1, SETUPS)]
        out["repeats"], out["setups"] = [], []
        for i in range(REPEATS):
            out["setups"] += [_setup_process(args) for slot in slots if slot == i]
            out["repeats"].append(
                _in_fork(lambda: _phase_record(run_phase(run), peak_rss_mb()))
            )
    elif args.role == "trace":
        spans = Path(args.spans) if args.spans else None
        out.update(trace_phase(run, spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
