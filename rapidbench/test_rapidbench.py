"""Tests of the benchmark itself, at tiny cluster sizes.

They cover the result schema against ``BENCHMARK.json``, hash stability,
the span reconciliation sum, failure counting, and the refusal to run
without the program's source.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from rapidbench.layers import Tracer, layer_metrics
from rapidbench.run import END_TO_END, PER_LAYER, evaluate, lower_envelope
from rapidbench.workloads import params_for, run_phase, setup
from repro.sim.network import Network

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "rapidbench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_benchmark_json_is_well_formed():
    assert set(BENCH) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in BENCH["workloads"]] == ["crash", "join"]
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == PER_LAYER


def _report(*args: str) -> tuple[dict, dict]:
    proc = _run(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace, expected", [("0", END_TO_END), ("1", PER_LAYER)])
def test_result_schema(trace, expected):
    _, result = _report("--workload", "crash", "--seed", "3", "--seconds", "0",
                        "--trace", trace, "--n", "48")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_same_seed_same_hashes_other_seed_other_hash():
    # Node ids come from a process-wide counter, so a hash is only
    # reproducible in a fresh process: compare whole runs.
    args = ("--workload", "join", "--seconds", "0", "--trace", "0", "--n", "40")
    first, _ = _report("--seed", "5", *args)
    again, _ = _report("--seed", "5", *args)
    other, _ = _report("--seed", "6", *args)
    assert len(first["setup_hashes"]) == len(first["phase_hashes"]) == 1
    assert (again["setup_hashes"], again["phase_hashes"]) == (
        first["setup_hashes"], first["phase_hashes"])
    assert again["metrics"]["msgs_per_node_s"] == first["metrics"]["msgs_per_node_s"]
    assert other["phase_hashes"] != first["phase_hashes"]


def test_lower_envelope_takes_each_piece_from_its_fastest_repeat():
    # Pieces: (1.0, 2.0, 1.0) and (2.0, 1.0, 1.5); fastest of each: 1, 1, 1.
    repeats = [
        {"marks": [1.0, 3.0], "wall_s": 4.0, "refs": [1.0, 1.0]},
        {"marks": [2.0, 3.0], "wall_s": 4.5, "refs": [4.0, 1.0]},
    ]
    assert lower_envelope(repeats) == pytest.approx(3.0)
    assert lower_envelope(repeats[:1]) == pytest.approx(4.0)
    # Per reference loop, the second repeat's first piece is 2.0 / 4.0 and
    # its last piece takes the last loop's time.
    assert lower_envelope(repeats, per_reference=True) == pytest.approx(0.5 + 1.0 + 1.0)


def test_self_times_reconcile_with_the_traced_wall():
    run = setup("crash", 2, params_for("crash", 48))
    original = Network.send
    tracer = Tracer()
    tracer.install(run.harness)
    try:
        outcome = run_phase(run)
    finally:
        tracer.uninstall(run.harness)
    assert Network.send is original
    layers = layer_metrics(tracer, outcome.wall_s, 1, {"fast_path": 1, "fallback": 0})
    selfs = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert selfs == pytest.approx(outcome.wall_s, abs=1e-9)
    assert layers["trace.reconcile_error_s"] < 1e-9
    assert layers["core.membership.on_message.ProbeAck.calls"] > 0
    assert layers["detectors.probe_failure"] > 0


def test_a_failed_run_fails_every_operation():
    run = setup("crash", 1, params_for("crash", 40))
    run.params["timeout"] = 0.5  # survivors cannot converge this fast
    outcome = run_phase(run)
    assert outcome.failed == outcome.attempted == 39
    assert outcome.checks == {"no_exception": False}
    verdict = evaluate([{"setup_hash": "x", "repeats": [{
        "attempted": 39, "failed": 0, "checks": {}, "error": "TimeoutError"}]}])
    assert verdict["failed"] == verdict["attempted"] == 39
    assert not verdict["correct"]


def test_disagreeing_phases_of_one_set_up_are_not_correct():
    phase = {"attempted": 3, "failed": 0, "checks": {"ok": True}}
    verdict = evaluate([{
        "setup_hash": "a",
        "untraced": {"wall_s": 1.0, "phase": {**phase, "phase_hash": "p"}},
        "traced": {"layers": {}, "phase": {**phase, "phase_hash": "q"}},
    }])
    assert not verdict["correct"]
    assert not verdict["checks"]["deterministic_phase"]
    repeats = [{**phase, "phase_hash": "p"}, {**phase, "phase_hash": "q"}]
    assert not evaluate([{"setup_hash": "a", "repeats": repeats}])["correct"]


def test_disagreeing_set_ups_are_not_correct():
    phase = {"attempted": 3, "failed": 0, "checks": {"ok": True}, "phase_hash": "p"}
    same = [{"setup_hash": "a", "repeats": [phase, phase]}, {"setup_hash": "a"}]
    assert evaluate(same)["correct"]
    verdict = evaluate([*same, {"setup_hash": "b"}])
    assert not verdict["correct"]
    assert not verdict["checks"]["deterministic_setup"]


def test_every_joiner_reaches_the_final_view():
    run = setup("join", 4, params_for("join", 40))
    outcome = run_phase(run)
    joiners = run.params["joiners"]
    assert outcome.attempted == 40 + joiners and outcome.failed == 0
    assert all(outcome.checks.values())
    # Members install one view per join; joiner i installs joiners - i.
    views = 40 * joiners + joiners * (joiners + 1) // 2
    assert outcome.virtual["view_changes_per_node"] == pytest.approx(views / (40 + joiners))


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "rapidbench", tmp_path / "rapidbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "crash", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_run_that_differs_from_its_recorded_hashes_is_not_correct():
    reports = [{"setup_hash": "a", "repeats": [{
        "attempted": 3, "failed": 0, "checks": {"ok": True}, "phase_hash": "p"}]}]
    assert evaluate(reports, {"setup": "a", "phase": "p"})["correct"]
    assert evaluate(reports, {"setup": "a"})["correct"]
    assert not evaluate(reports, {"setup": "b"})["correct"]
    verdict = evaluate(reports, {"setup": "a", "phase": "q"})
    assert not verdict["correct"]
    assert not verdict["checks"]["matches_recorded_hashes"]
