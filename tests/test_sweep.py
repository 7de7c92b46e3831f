"""Tests for grid sweeps through repro.bench: grid parsing, the CSV view,
determinism, failure accounting and the summarize subcommand."""

import json

import pytest

from repro.analysis.stats import load_sweep_csv, summarize_sweep
from repro.bench.__main__ import main
from repro.bench.runner import (
    CSV_HEADER,
    BenchRunner,
    CaseResult,
    csv_hash,
    csv_rows,
    csv_text,
)
from repro.bench.specs import BenchSpec, grid_specs

TINY_GRID = (
    "scenario=adversary;system=rapid;profiles=flip_flop;n=16;seeds=1,2;"
    "fault_at=5;observe_for=20;settle_timeout=60"
)


class TestGridParsing:
    def test_compact_string_axes_and_typing(self):
        specs = grid_specs(
            "scenario=adversary;systems=rapid,memberlist;profiles=flip_flop;"
            "n=16,24;seeds=1,2;observe_for=30.5;fault_at=5;quiet=true"
        )
        assert len(specs) == 2 * 2 * 2  # systems x n x seeds
        assert {s.system for s in specs} == {"rapid", "memberlist"}
        assert {s.n for s in specs} == {16, 24}
        assert all(isinstance(s.n, int) for s in specs)
        assert all(
            s.params == {"observe_for": 30.5, "fault_at": 5, "quiet": True,
                         "profile": "flip_flop"}
            for s in specs
        )
        assert all(isinstance(s.params["fault_at"], int) for s in specs)

    def test_singular_and_plural_aliases_agree(self):
        singular = grid_specs("scenario=adversary;system=rapid;seed=1;n=16")
        plural = grid_specs("scenarios=adversary;systems=rapid;seeds=1;ns=16")
        assert singular == plural

    def test_json_object_and_list_blocks(self):
        block = {"scenario": "adversary", "systems": ["rapid"], "seeds": [1, 2]}
        assert len(grid_specs(json.dumps(block))) == 2
        ragged = grid_specs(json.dumps([block, {**block, "n": 32}]))
        assert len(ragged) == 4
        assert {s.n for s in ragged} == {24, 32}
        # Overlapping blocks yield each run once.
        assert grid_specs(json.dumps([block, block])) == grid_specs(json.dumps(block))

    def test_json_grid_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"systems": ["rapid"], "seeds": [7]}))
        (spec,) = grid_specs(str(path))
        assert spec.seed == 7

    def test_profile_axis_dropped_for_non_adversary_scenarios(self):
        specs = grid_specs(
            "scenario=bootstrap;system=rapid;profiles=flip_flop,slow_process;"
            "n=16;seed=1"
        )
        # Both profile values collapse to the same bootstrap run.
        assert specs == [BenchSpec("bootstrap", "rapid", 16, seed=1)]

    def test_adversary_points_pass_profile_through(self):
        (spec,) = grid_specs(
            "scenario=adversary;system=rapid;profile=egress_loss;n=16;seed=1"
        )
        assert spec.params == {"profile": "egress_loss"}
        assert spec.name == "adversary/rapid/n16/s1/profile=egress_loss"

    def test_dict_valued_params_stay_scalar_and_thaw(self):
        # Dict-valued params stay single arguments of the scenario call.
        (spec,) = grid_specs(
            json.dumps(
                {
                    "systems": ["gossip-fd"],
                    "config": {"heartbeat_interval": 2.0},
                    "profile_overrides": {"fraction": 0.05},
                }
            )
        )
        assert spec.params["config"] == {"heartbeat_interval": 2.0}
        assert spec.params["profile_overrides"] == {"fraction": 0.05}

    def test_bad_specs_fail_loudly(self):
        with pytest.raises(ValueError, match="key=value"):
            grid_specs("scenario adversary")
        with pytest.raises(ValueError, match="empty grid"):
            grid_specs("  ;  ")
        with pytest.raises(ValueError, match="must be an object"):
            grid_specs("[1]")
        with pytest.raises(ValueError, match="unknown scenario"):
            grid_specs("scenario=nope;system=rapid")


class TestRows:
    def test_point_rows_are_scalars_only(self):
        # The CSV view keeps numbers, bools and None only, minus the keys
        # that repeat its identity columns.
        spec = BenchSpec("adversary", "rapid", 16, 1, {"profile": "flip_flop"})
        result = {
            "system": "rapid",  # identity: skipped
            "n": 16,  # identity: skipped
            "flap_events": 3,
            "flap_rate": 0.5,
            "faulty_removed": True,
            "detection_latency": None,
            "faulty": ["10.0.0.2:5000"],  # container: skipped
            "label": "text",  # string: skipped
        }
        rows = csv_rows(CaseResult(spec, 0.1, result=result))
        by_metric = {r[5]: r[6] for r in rows}
        assert by_metric == {
            "detection_latency": "NA",
            "faulty_removed": "1",
            "flap_events": "3",
            "flap_rate": "0.5",
        }
        assert all(r[:5] == ("adversary", "flip_flop", "rapid", "16", "1") for r in rows)

    def test_csv_shape(self):
        spec = BenchSpec("adversary", "rapid", 16, 1, {"profile": "flip_flop"})
        text = csv_text([CaseResult(spec, 0.1, result={"flap_rate": 0.5})])
        assert text.splitlines()[0] == CSV_HEADER
        assert text.endswith("adversary,flip_flop,rapid,16,1,flap_rate,0.5\n")


class TestDeterminism:
    def test_same_grid_same_seed_byte_identical(self, tmp_path):
        runner = BenchRunner(log=None)
        specs = grid_specs(TINY_GRID)
        first = csv_text(runner.run(specs))
        second = csv_text(runner.run(specs))
        assert first == second
        out = tmp_path / "g.csv"
        assert main(["--grid", TINY_GRID, "--quiet", "--out", str(tmp_path / "g.json"),
                     "--csv", str(out)]) == 0
        assert out.read_text() == first

    def test_different_seed_changes_the_hash(self):
        runner = BenchRunner(log=None)
        base = runner.run(grid_specs(TINY_GRID))
        shifted = runner.run(grid_specs(TINY_GRID.replace("seeds=1,2", "seeds=3,4")))
        assert csv_hash(base) != csv_hash(shifted)


class TestFailureAccounting:
    # partition_heal requires a Rapid harness, so pointing it at
    # memberlist raises deterministically — a cheap stand-in for any
    # scenario failure (including a safety InvariantViolation).
    FAILING = BenchSpec("partition_heal", "memberlist", 8, seed=1)
    GOOD = BenchSpec("bootstrap", "rapid", 8, seed=1)

    def test_failed_point_yields_error_row_and_stops(self):
        cases = BenchRunner(log=None).run([self.FAILING, self.GOOD])
        assert [case.spec for case in cases] == [self.FAILING]
        assert cases[0].error
        assert cases[0].to_json()["error"] == cases[0].error
        assert csv_rows(cases[0]) == [
            ("partition_heal", "-", "memberlist", "8", "1", "error", "1")
        ]

    def test_keep_going_runs_the_remaining_points(self):
        cases = BenchRunner(log=None).run([self.FAILING, self.GOOD], keep_going=True)
        assert [case.error is None for case in cases] == [False, True]
        assert "convergence_time" in {row[5] for row in csv_rows(cases[1])}

    def test_error_rows_are_deterministic(self):
        # Error rows are simulation-derived, so they hash like any row.
        runner = BenchRunner(log=None)
        first = runner.run([self.FAILING, self.GOOD], keep_going=True)
        second = runner.run([self.FAILING, self.GOOD], keep_going=True)
        assert csv_hash(first) == csv_hash(second)

    def test_unknown_scenario_is_a_usage_error_not_an_error_row(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            grid_specs("scenario=nope;system=rapid;n=4;seed=1")
        assert main(["--grid", "scenario=nope", "--keep-going", "--list"]) == 2

    def test_invariant_checks_injected_for_rapid_points(self):
        case = BenchRunner(log=None).run_case(self.GOOD)
        by_metric = {row[5]: row[6] for row in csv_rows(case)}
        assert int(by_metric["invariant_checks"]) > 0
        assert int(by_metric["invariant_checks"]) == case.invariants["checked"]

    def test_cli_exits_nonzero_and_writes_error_rows(self, tmp_path, capsys):
        out, csv_out = tmp_path / "r.json", tmp_path / "r.csv"
        grid = "scenario=partition_heal;system=memberlist;n=8;seed=1"
        args = ["--grid", grid, "--quiet", "--out", str(out), "--csv", str(csv_out)]
        assert main(args) == 1
        assert "error,1" in csv_out.read_text()
        assert "error" in json.loads(out.read_text())["cases"][0]
        assert "failed" in capsys.readouterr().out

    def test_cli_keep_going_still_exits_nonzero(self, tmp_path):
        grid = json.dumps(
            [
                {"scenario": "partition_heal", "system": "memberlist", "n": 8},
                {"scenario": "bootstrap", "system": "rapid", "n": 8},
            ]
        )
        csv_out = tmp_path / "r.csv"
        args = ["--grid", grid, "--quiet", "--out", str(tmp_path / "r.json"),
                "--csv", str(csv_out)]
        assert main(args) == 1
        assert "convergence_time" not in csv_out.read_text()
        assert main(args + ["--keep-going"]) == 1
        text = csv_out.read_text()
        assert "error,1" in text
        assert "convergence_time" in text


class TestCli:
    def test_list_and_run_and_expect_hash(self, tmp_path, capsys):
        assert main(["--grid", TINY_GRID, "--list"]) == 0
        listed = capsys.readouterr().out.splitlines()
        assert len(listed) == 2

        csv_out, hash_out = tmp_path / "g.csv", tmp_path / "g.sha256"
        args = ["--grid", TINY_GRID, "--quiet", "--out", str(tmp_path / "g.json")]
        assert main(args + ["--csv", str(csv_out), "--hash-out", str(hash_out)]) == 0
        digest = hash_out.read_text().strip()
        assert len(digest) == 64
        assert f"csv sha256: {digest}" in capsys.readouterr().out
        assert csv_out.read_text().splitlines()[0] == CSV_HEADER

        # The recorded hash gates a second run; a wrong hash fails it.
        assert main(args + ["--expect-hash", digest]) == 0
        assert main(args + ["--expect-hash", "0" * 64]) == 1
        assert "hash mismatch" in capsys.readouterr().out

    def test_summarize_subcommand(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        main(["--grid", TINY_GRID, "--quiet", "--out", str(tmp_path / "g.json"),
              "--csv", str(out)])
        capsys.readouterr()
        assert main(["summarize", str(out), "--metric", "flap_events"]) == 0
        printed = capsys.readouterr().out
        assert "flap_events" in printed
        assert "rapid" in printed
        assert main(["summarize", str(out), "--metric", "zzz"]) == 2

    def test_bad_grid_exits_2(self, capsys):
        assert main(["--grid", ";;;"]) == 2


class TestStatsHelpers:
    def test_load_and_summarize_sweep(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text(
            "scenario,profile,system,n,seed,metric,value\n"
            "adversary,flip_flop,rapid,16,1,flap_events,0\n"
            "adversary,flip_flop,rapid,16,2,flap_events,4\n"
            "adversary,flip_flop,rapid,16,1,detection_latency,NA\n"
        )
        loaded = load_sweep_csv(str(path))
        assert len(loaded) == 3
        assert loaded[0]["n"] == 16 and loaded[0]["value"] == 0.0
        assert loaded[2]["value"] is None
        cells = summarize_sweep(loaded)
        key = ("adversary", "flip_flop", "rapid", 16, "flap_events")
        assert cells[key]["mean"] == 2.0
        assert cells[key]["seeds"] == 2
        # NA-only cells vanish rather than polluting the aggregate.
        assert len(cells) == 1
