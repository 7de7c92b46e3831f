"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 rapidbench/repeat.py --seeds 1-10 --out .rapidbench/set-a.json
    python3 rapidbench/repeat.py --seeds 1-10 --out .rapidbench/set-b.json \\
        --compare .rapidbench/set-a.json

Runs ``rapidbench/run.py`` once per (seed, workload), each run a fresh
process, rotating the workload order from one seed to the next so no
workload always runs first.  A seed may be listed more than once
(``--seeds 1,1,1``) to measure the host's noise without the seed's.  For
every end-to-end metric it prints the median and the spread — the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median — next to the metric's bound in
``BENCHMARK.json``.  With ``--compare`` it also
checks that every deterministic output (virtual metrics, work counts,
hashes) of each (workload, seed) is identical to the earlier set, and that
no median got worse by more than its bound.  ``--record-hashes`` writes
the hashes of the default and held-out seeds to ``rapidbench/hashes.json``,
replacing a record the runs no longer match.
Exit code 1 when a run failed, a spread exceeds its bound, or a
comparison fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metrics that carry host noise; every other end-to-end metric is a pure
#: function of the seed.
HOST_METRICS = ("setup_s", "wall_s", "wall_refs", "peak_rss_mb")


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run; returns its full report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"workload": workload, "seed": seed, "correct": False,
                "errors": [proc.stderr.strip()[-300:]], "metrics": {}}
    return json.loads(lines[-2])


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list[dict], bench: dict) -> tuple[list[str], bool]:
    """Per workload and metric: median, spread and bound; False if out of bound."""
    ok = True
    lines = []
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name] for r in mine if name in r["metrics"]]
            if len(values) < 2:
                continue
            s = spread(values)
            flag = ""
            if s > bound:
                flag, ok = "  OVER BOUND", False
            elif s > bound / 3:
                flag = "  over bound/3"
            lines.append(
                f"{workload:<10} {name:<24} median {statistics.median(values):>14.6g} "
                f"spread {s:7.4f} bound {bound:5.3f}{flag}"
            )
    return lines, ok


def compare(runs: list[dict], earlier: list[dict], bench: dict) -> tuple[list[str], bool]:
    """Deterministic identity per (workload, seed) and median drift per metric."""
    ok = True
    lines = []
    before = {(r["workload"], r["seed"]): r for r in earlier}
    for run in runs:
        old = before.get((run["workload"], run["seed"]))
        if old is None:
            continue
        for key in ("setup_hashes", "phase_hashes"):
            if run.get(key) != old.get(key):
                ok = False
                lines.append(f"{run['workload']} seed {run['seed']}: {key} differ")
        for name, value in run["metrics"].items():
            if name not in HOST_METRICS and old["metrics"].get(name) != value:
                ok = False
                lines.append(f"{run['workload']} seed {run['seed']}: {name} differs")
    for workload in {r["workload"] for r in runs}:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            new = [r["metrics"][name] for r in runs if r["workload"] == workload and name in r["metrics"]]
            old = [r["metrics"][name] for r in earlier if r["workload"] == workload and name in r["metrics"]]
            if not new or not old:
                continue
            change = statistics.median(new) / statistics.median(old) - 1
            worse = change > bound if metric["better"] == "lower" else -change > bound
            ok = ok and not worse
            lines.append(f"{workload:<10} {name:<24} median change {change:+.4f} "
                         f"(bound {bound}){'  WORSE' if worse else ''}")
    return lines, ok


def main(argv=None) -> int:
    """Run the repeats and print the summary."""
    parser = argparse.ArgumentParser(description="Repeat the benchmark over seeds.")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '1,7,9'")
    parser.add_argument("--out", required=True, help="where to write every run's report")
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    parser.add_argument("--record-hashes", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    runs = []
    for i, seed in enumerate(_seeds(args.seeds)):
        for workload in names[i % len(names):] + names[: i % len(names)]:
            began = time.monotonic()
            report = run_once(workload, seed, bench["run_seconds"])
            report["elapsed_s"] = time.monotonic() - began
            samples = report.pop("samples", [])
            report["setups_s"] = [s["setup_s"] for s in samples if "setup_s" in s]
            report["walls_s"] = [r["wall_s"] for s in samples for r in s.get("repeats", [])]
            runs.append(report)
            print(f"{workload} seed {seed}: correct={report['correct']} "
                  f"wall_s={report['metrics'].get('wall_s')} "
                  f"elapsed_s={report['elapsed_s']:.1f}", flush=True)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(runs, indent=1, sort_keys=True))
    ok = all(r["correct"] for r in runs)
    lines, within = summarize(runs, bench)
    ok = ok and within
    if args.compare:
        more, same = compare(runs, json.loads(Path(args.compare).read_text()), bench)
        lines += more
        ok = ok and same
    print("\n".join(lines))
    if args.record_hashes:
        from run import DEFAULT_SEED, HASHES, HELD_OUT_SEED

        recorded = json.loads(HASHES.read_text()) if HASHES.is_file() else {}
        for r in runs:
            # A re-record replaces hashes that no longer match.
            passed = bool(r.get("phase_hashes")) and all(
                ok for name, ok in r["checks"].items() if name != "matches_recorded_hashes"
            )
            if r["seed"] in (DEFAULT_SEED, HELD_OUT_SEED) and passed:
                recorded.setdefault(r["workload"], {})[str(r["seed"])] = {
                    "setup": r["setup_hashes"][0], "phase": r["phase_hashes"][0],
                }
        HASHES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
