"""Tests for the repro.bench benchmark subsystem; grid sweeps are in test_sweep.py."""

import json

import pytest

from repro.analysis.stats import load_sweep_csv
from repro.bench.__main__ import main
from repro.bench.runner import (
    NONDETERMINISTIC_FIELDS,
    BenchRunner,
    build_report,
    render_report,
    write_report,
)
from repro.bench.specs import BenchSpec, suite_specs, takes_profile
from repro.experiments.scenarios import SCENARIO_FUNCTIONS

TINY_GRID = (
    "scenario=adversary;system=rapid;profiles=flip_flop;n=16;seeds=1,2;"
    "fault_at=5;observe_for=20;settle_timeout=60"
)

# partition_heal requires a Rapid harness, so pointing it at memberlist
# raises deterministically — a cheap stand-in for any scenario failure
# (including a safety InvariantViolation).
FAILING = BenchSpec("partition_heal", "memberlist", 8, seed=1)
GOOD = BenchSpec("bootstrap", "rapid", 8, seed=1)


class TestSpecs:
    def test_quick_suite_has_enough_cases(self):
        specs = suite_specs("quick")
        assert len(specs) >= 3
        assert {spec.scenario for spec in specs} == {
            "bootstrap",
            "crash",
            "join_churn",
            "packet_loss",
            "adversary",
            "service_discovery",
            "txn_platform",
        }

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            suite_specs("nope")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            BenchSpec("warp", "rapid", 8)

    def test_scaling_grows_n_and_caps_failures(self):
        spec = BenchSpec("crash", "rapid", 16, params={"failures": 3})
        scaled = spec.scaled(4.0)
        assert scaled.n == 64
        assert scaled.params["failures"] == 3
        shrunk = spec.scaled(0.25)
        assert shrunk.n == 4
        assert shrunk.params["failures"] == 1

    def test_name_encodes_fault_profile(self):
        spec = BenchSpec("packet_loss", "rapid", 8, seed=2, params={"loss": 0.8})
        assert spec.name == "packet_loss/rapid/n8/s2/loss=0.8"

    def test_profile_scenarios_derived_from_signatures(self):
        assert set(SCENARIO_FUNCTIONS) == {
            "bootstrap", "crash", "join_churn", "packet_loss", "adversary",
            "partition_heal", "service_discovery", "txn_platform",
            "live_bootstrap",
        }
        assert {s for s in SCENARIO_FUNCTIONS if takes_profile(s)} == {
            "adversary", "service_discovery", "txn_platform",
        }


class TestRunner:
    @pytest.fixture(scope="class")
    def case(self):
        runner = BenchRunner(log=None)
        return runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1))

    def test_case_captures_required_measurements(self, case):
        payload = case.to_json()
        assert payload["wall_s"] > 0
        assert 0 < payload["engine_wall_s"] <= payload["wall_s"]
        assert payload["virtual_s"] > 0
        assert payload["events_processed"] > 0
        for key in ("sent", "delivered", "dropped", "bytes_sent", "bytes_received"):
            assert payload["messages"][key] >= 0
        assert payload["messages"]["sent"] > 0

    def test_case_metrics_include_cluster_and_consensus(self, case):
        metrics = case.metrics
        assert metrics["cluster.view_changes"] > 0
        assert metrics["consensus.decisions_fast_path"] >= 0
        assert "cluster.cut_detection_latency_s" in metrics

    def test_per_node_metrics_dropped_by_default(self, case):
        assert not any(name.startswith("node.") for name in case.metrics)

    def test_scenario_result_is_scalar_only(self, case):
        assert "harness" not in case.result
        assert "timeseries" not in case.result
        json.dumps(case.result)

    def test_same_seed_runs_identical_virtual_metrics(self):
        runner = BenchRunner(log=None)
        spec = BenchSpec("crash", "rapid", 8, seed=5, params={"failures": 2})
        a = runner.run_case(spec).to_json()
        b = runner.run_case(spec).to_json()
        for field in NONDETERMINISTIC_FIELDS:
            a.pop(field, None), b.pop(field, None)
        assert a == b

    def test_memory_fields_recorded(self):
        runner = BenchRunner(log=None, track_alloc=True)
        case = runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1)).to_json()
        assert case["alloc_peak_bytes"] > 0
        assert case["peak_rss_kb"] is None or case["peak_rss_kb"] > 0

    def test_invariants_block_certifies_checked_views(self, case):
        payload = case.to_json()
        assert payload["invariants"]["ok"] is True
        assert payload["invariants"]["checked"] > 0
        assert payload["invariants"]["nodes"] == 8

    def test_invariants_harvest_can_be_disabled(self):
        runner = BenchRunner(log=None, check_invariants=False)
        case = runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1))
        assert "invariants" not in case.to_json()

    def test_adversary_counts_surface_in_by_class(self):
        runner = BenchRunner(log=None)
        case = runner.run_case(
            BenchSpec(
                "adversary",
                "rapid",
                16,
                seed=1,
                params={"profile": "dup_reorder", "fault_at": 5.0, "observe_for": 20.0},
            )
        )
        by_class = case.messages["by_class"]
        assert sum(row.get("duplicates", 0) for row in by_class.values()) > 0
        assert sum(row.get("reordered", 0) for row in by_class.values()) > 0
        # Untouched runs keep the exact two-key row shape (schema-additive).
        clean = runner.run_case(BenchSpec("bootstrap", "rapid", 8, seed=1))
        assert all(
            set(row) == {"messages", "bytes"}
            for row in clean.messages["by_class"].values()
        )

    def test_partition_heal_case_runs_and_renders(self):
        runner = BenchRunner(log=None)
        case = runner.run_case(
            BenchSpec(
                "partition_heal",
                "rapid",
                16,
                seed=1,
                params={"fraction": 0.2, "partition_for": 30.0},
            )
        )
        assert case.result["rejoined"] == case.result["minority"]
        assert case.result["minority_installs_during_partition"] == 0
        assert case.invariants["ok"] is True
        assert "rejoined=" in render_report([case])

    def test_render_report_mentions_every_case(self):
        runner = BenchRunner(log=None)
        cases = runner.run([FAILING, GOOD], keep_going=True)
        text = render_report(cases)
        assert "bootstrap/rapid/n8/s1" in text
        assert "converged@" in text
        assert "partition_heal/memberlist/n8/s1" in text
        assert "FAILED" in text


class TestJsonOutput:
    def test_grid_json_report_and_csv_view_agree(self, tmp_path):
        grid = json.dumps(
            [
                {"scenario": "adversary", "systems": ["rapid", "memberlist"],
                 "n": 16, "fault_at": 5, "observe_for": 20},
                {"scenario": "crash", "system": "rapid", "n": 8, "failures": 2},
            ]
        )
        out, csv_out = tmp_path / "g.json", tmp_path / "g.csv"
        assert main(["--grid", grid, "--quiet", "--out", str(out),
                     "--csv", str(csv_out)]) == 0
        cases = json.loads(out.read_text())["cases"]
        rows = load_sweep_csv(str(csv_out))
        assert len(cases) == 3
        for case in cases:
            expected = {
                key: value for key, value in case["result"].items()
                if key not in ("system", "n", "profile")
                and (value is None or isinstance(value, (int, float)))
            }
            if "invariants" in case:
                expected.setdefault("invariant_checks", case["invariants"]["checked"])
            got = {
                row["metric"]: row["value"] for row in rows
                if (row["scenario"], row["system"], row["n"], row["seed"])
                == (case["scenario"], case["system"], case["n"], case["seed"])
            }
            assert got == {k: None if v is None else float(v)
                           for k, v in expected.items()}
            profile = {row["profile"] for row in rows
                       if row["system"] == case["system"]
                       and row["scenario"] == case["scenario"]}
            assert profile == {case["params"].get("profile", "-")}

    def test_report_schema_and_roundtrip(self, tmp_path):
        runner = BenchRunner(log=None)
        cases = runner.run([BenchSpec("bootstrap", "rapid", 8, seed=1)])
        report = build_report("quick", 1.0, cases)
        path = write_report(report, tmp_path / "BENCH_test.json")
        loaded = json.loads(path.read_text())
        assert loaded["schema"] == "repro.bench/v2"
        assert loaded["suite"] == "quick"
        assert loaded["config"]["python"]
        assert len(loaded["cases"]) == 1
        case = loaded["cases"][0]
        for key in (
            "name",
            "wall_s",
            "virtual_s",
            "events_processed",
            "messages",
            "metrics",
            "result",
        ):
            assert key in case


class TestCli:
    def test_quick_suite_smoke(self, tmp_path, capsys):
        # The acceptance-criteria invocation, in-process with a reduced
        # scale so the whole suite stays test-sized.
        from repro.bench.__main__ import main

        out = tmp_path / "BENCH_quick.json"
        code = main(
            ["--suite", "quick", "--scale", "0.5", "--quiet", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "repro.bench/v2"
        assert len(report["cases"]) >= 3
        for case in report["cases"]:
            assert case["wall_s"] > 0
            assert case["virtual_s"] > 0
            assert case["events_processed"] > 0
            assert case["messages"]["sent"] > 0
        assert "benchmark summary" in capsys.readouterr().out

    def test_list_and_filter(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--suite", "quick", "--filter", "bootstrap", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out and all("bootstrap" in line for line in out)
        assert main(["--grid", TINY_GRID, "--filter", "s2", "--list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["adversary/rapid/n16/s2/fault_at=5/observe_for=20/profile=flip_flop"]

    def test_selection_usage_errors_exit_2(self):
        assert main(["--grid", "scenario=warp"]) == 2
        with pytest.raises(SystemExit) as exc:  # --suite and --grid exclude
            main(["--suite", "quick", "--grid", TINY_GRID, "--list"])
        assert exc.value.code == 2

    def test_duplicate_case_names_exit_2(self, capsys):
        # Timeout params are left out of case names, so two timeouts
        # yield one name that --filter, --budget and compare cannot split.
        grid = "scenario=crash;system=rapid;n=8;seed=0;settle_timeout=30,60"
        assert main(["--grid", grid, "--list"]) == 2
        assert "duplicate case names: crash/rapid/n8/s0" in capsys.readouterr().err
        assert main(["--grid", grid.replace("30,60", "30"), "--list"]) == 0

    def test_filter_without_match_errors(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--suite", "quick", "--filter", "zzz", "--list"]) == 2

    def test_full_suite_includes_paper_operating_points(self):
        names = [spec.name for spec in suite_specs("full")]
        assert "bootstrap/rapid/n1000/s1" in names
        assert "bootstrap/rapid/n2000/s1" in names
        assert "crash/rapid/n2000/s1/failures=16" in names
        assert any(name.startswith("crash/rapid/n512") for name in names)
        assert any(name.startswith("partition_heal/rapid/n1000") for name in names)

    def test_quick_suite_gates_the_message_adversary(self):
        names = [spec.name for spec in suite_specs("quick")]
        assert any(
            name.startswith("adversary/") and "profile=dup_reorder" in name
            for name in names
        )

    def test_quick_suite_gates_gossip_consensus(self):
        names = [spec.name for spec in suite_specs("quick")]
        assert any("broadcast_mode:gossip" in name for name in names)

    def test_run_budget_breach_fails(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        out = tmp_path / "b.json"
        args = [
            "--suite", "quick", "--filter", "bootstrap/rapid/", "--quiet",
            "--out", str(out),
        ]
        assert main(args + ["--budget", "bootstrap=1000"]) == 0
        assert main(args + ["--budget", "bootstrap=0.000001"]) == 1
        assert "budget breach" in capsys.readouterr().out

    def test_run_budget_usage_errors(self, tmp_path):
        from repro.bench.__main__ import main

        assert main(["--suite", "quick", "--list", "--budget", "oops"]) == 2
        assert main(["--suite", "quick", "--list", "--budget", "a=-3"]) == 2


class TestCompare:
    def _report(self, tmp_path, name, cases):
        path = tmp_path / name
        path.write_text(
            json.dumps({"schema": "repro.bench/v2", "suite": "quick", "cases": cases})
        )
        return str(path)

    @staticmethod
    def _case(name, ev_per_s, events=100, extra=None):
        case = {
            "name": name,
            "wall_s": 0.5,
            "engine_wall_s": 0.4,
            "events_per_wall_s": ev_per_s,
            "events_processed": events,
            "virtual_s": 15.0,
            "messages": {"sent": 10, "bytes_sent": 1024},
            "metrics": {"net.messages_sent": 10},
            "result": {"convergence_time": 13.0},
        }
        case.update(extra or {})
        return case

    def test_identical_reports_pass(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0)])
        assert main(["compare", old, new, "--require-determinism"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_wall_fields_do_not_count_as_drift(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(
            tmp_path,
            "new.json",
            [self._case("a", 900.0, extra={"wall_s": 9.0, "peak_rss_kb": 1})],
        )
        assert main(["compare", old, new, "--require-determinism"]) == 0

    def test_throughput_regression_fails(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(tmp_path, "new.json", [self._case("a", 500.0)])
        assert main(["compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_regression_threshold_is_configurable(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(tmp_path, "new.json", [self._case("a", 500.0)])
        assert main(["compare", old, new, "--threshold", "0.6"]) == 0

    def test_determinism_drift_fails_only_when_required(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0, events=100)])
        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0, events=101)])
        assert main(["compare", old, new]) == 0
        assert main(["compare", old, new, "--require-determinism"]) == 1
        assert "drift" in capsys.readouterr().out

    def test_case_set_change_fails_strict_compare(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(
            tmp_path,
            "new.json",
            [self._case("a", 1000.0), self._case("b", 1000.0)],
        )
        assert main(["compare", old, new]) == 0
        assert main(["compare", old, new, "--require-determinism"]) == 1

    def test_schema_mismatch_is_usage_error(self, tmp_path, capsys):
        # Field shapes can change between schema revisions (by_class grew
        # byte totals in v2); comparing across revisions must fail with a
        # clear message, not report every reshaped field as drift.
        from repro.bench.__main__ import main

        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0)])
        old_path = tmp_path / "old.json"
        old_path.write_text(
            json.dumps(
                {
                    "schema": "repro.bench/v1",
                    "suite": "quick",
                    "cases": [self._case("a", 1000.0)],
                }
            )
        )
        assert main(["compare", str(old_path), new]) == 2
        assert "schema mismatch" in capsys.readouterr().out

    def test_unreadable_report_is_usage_error(self, tmp_path):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        assert main(["compare", old, str(tmp_path / "missing.json")]) == 2

    def test_duplicate_case_name_is_malformed(self, tmp_path, capsys):
        # compare keys cases by name; a duplicate would silently keep only
        # the last one.
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        dup = self._report(
            tmp_path, "dup.json", [self._case("a", 1000.0), self._case("a", 1000.0)]
        )
        assert main(["compare", old, dup]) == 2
        assert main(["compare", dup, old]) == 2
        assert "duplicate case name" in capsys.readouterr().out

    def test_failed_case_is_malformed(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        failed = self._case("a", 0.0, extra={"error": "ValueError: boom"})
        new = self._report(tmp_path, "new.json", [failed])
        assert main(["compare", old, new]) == 2
        assert "failed: ValueError: boom" in capsys.readouterr().out

    def test_malformed_report_is_usage_error(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        case = self._case("a", 1000.0)
        del case["name"]
        bad = self._report(tmp_path, "bad.json", [case])
        assert main(["compare", old, bad]) == 2
        assert "malformed report" in capsys.readouterr().out

    def test_missing_throughput_is_usage_error_not_silent_pass(self, tmp_path, capsys):
        # A report whose throughput field is absent or zero must not slip
        # through as "ok" — that would disarm the CI regression gate.
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        case = self._case("a", 0.0)
        del case["events_per_wall_s"]
        bad = self._report(tmp_path, "bad.json", [case])
        assert main(["compare", old, bad]) == 2
        assert "events_per_wall_s" in capsys.readouterr().out

    def test_budget_breach_fails_compare(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0)])
        assert main(["compare", old, new, "--budget", "a=1"]) == 0
        assert main(["compare", old, new, "--budget", "a=0.1"]) == 1
        assert "budget breach" in capsys.readouterr().out

    def test_budget_matching_no_case_fails(self, tmp_path, capsys):
        # A renamed case must not silently un-gate its budget.
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0)])
        assert main(["compare", old, new, "--budget", "zzz=10"]) == 1
        assert "matched no cases" in capsys.readouterr().out

    def test_budget_with_unusable_wall_time_fails(self, tmp_path, capsys):
        # A budgeted case whose wall_s is missing (schema drift, crashed
        # case) must not pass vacuously.
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        case = self._case("a", 1000.0)
        del case["wall_s"]
        new = self._report(tmp_path, "new.json", [case])
        assert main(["compare", old, new, "--budget", "a=10"]) == 1
        assert "no usable wall_s" in capsys.readouterr().out

    def test_budget_only_applies_to_new_report(self, tmp_path):
        # Budgets gate the fresh run; a slow historical baseline is fine.
        from repro.bench.__main__ import main

        old = self._report(
            tmp_path, "old.json", [self._case("a", 1000.0, extra={"wall_s": 99.0})]
        )
        new = self._report(tmp_path, "new.json", [self._case("a", 1000.0)])
        assert main(["compare", old, new, "--budget", "a=1"]) == 0

    def test_malformed_budget_is_usage_error(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        old = self._report(tmp_path, "old.json", [self._case("a", 1000.0)])
        assert main(["compare", old, old, "--budget", "a=fast"]) == 2
        assert "non-numeric" in capsys.readouterr().out

    def test_real_reports_roundtrip_through_compare(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        runner = BenchRunner(log=None)
        spec = BenchSpec("bootstrap", "rapid", 8, seed=1)
        for name in ("old.json", "new.json"):
            cases = [runner.run_case(spec)]
            write_report(build_report("quick", 1.0, cases), tmp_path / name)
        assert (
            main(
                [
                    "compare",
                    str(tmp_path / "old.json"),
                    str(tmp_path / "new.json"),
                    "--require-determinism",
                ]
            )
            == 0
        )
