"""Tests for the comparison reports and the CLI."""

import json

import pytest

from repro.cli import build_parser, main
from repro.systems import run_all_systems, run_system
from repro.systems.report import ComparisonReport, DSACoverageReport
from repro.workloads import load
from repro.workloads.synthetic import vecsum


@pytest.fixture(scope="module")
def results():
    return run_all_systems(vecsum(n=128))


class TestComparisonReport:
    def test_improvement_relative_to_baseline(self, results):
        report = ComparisonReport("vecsum", results)
        assert report.improvement("arm_original") == 0.0
        assert report.improvement("neon_autovec") > 0

    def test_table_contains_all_systems(self, results):
        text = ComparisonReport("vecsum", results).table()
        for name in results:
            assert name in text

    def test_missing_baseline_raises(self, results):
        partial = {k: v for k, v in results.items() if k != "arm_original"}
        with pytest.raises(KeyError):
            ComparisonReport("vecsum", partial)

    def test_dsa_coverage_report(self, results):
        text = DSACoverageReport(results["neon_dsa"]).table()
        assert "vectorized invocations" in text
        assert "functional verifications" in text

    def test_coverage_report_without_dsa(self, results):
        text = DSACoverageReport(results["arm_original"]).table()
        assert "no DSA" in text


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "rgb_gray", "--system", "neon_dsa"])
        assert args.workload == "rgb_gray"

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "dijkstra" in out

    def test_area_command(self, capsys):
        assert main(["area"]) == 0
        assert "2.18%" in capsys.readouterr().out

    def test_run_command(self, capsys):
        assert main(["run", "rgb_gray", "--system", "neon_dsa", "-v"]) == 0
        out = capsys.readouterr().out
        assert "neon_dsa" in out and "DSA coverage" in out

    def test_asm_command(self, capsys):
        assert main(["asm", "rgb_gray", "--system", "neon_autovec"]) == 0
        out = capsys.readouterr().out
        assert "vld1" in out  # the vectorized loop is in the listing

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--only", "art1_table3", "--paper"]) == 0
        out = capsys.readouterr().out
        assert "10.37%" in out and "paper reference" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "--only", "nope"]) == 2


class TestCLIErrorPaths:
    """Configuration mistakes exit 2 with a one-line error, not a traceback."""

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "not_a_workload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "valid choices" in err
        assert "Traceback" not in err

    def test_asm_unknown_workload(self, capsys):
        assert main(["asm", "not_a_workload"]) == 2
        err = capsys.readouterr().err
        assert "not_a_workload" in err and "rgb_gray" in err

    def test_campaign_unknown_workload(self, capsys):
        assert main(["campaign", "--workloads", "not_a_workload"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestCampaignCommand:
    def test_campaign_table(self, capsys):
        code = main(["campaign", "--workloads", "rgb_gray", "--systems", "arm_original"])
        assert code == 0
        out = capsys.readouterr().out
        assert "rgb_gray" in out and "arm_original" in out

    def test_campaign_json_schema(self, capsys):
        code = main(
            ["campaign", "--workloads", "rgb_gray", "--systems", "arm_original", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"campaign", "runs", "results", "failures"}
        (run,) = payload["runs"]
        assert {"spec", "source", "cache_hit", "wall_time_s", "cycles",
                "instructions", "stall_breakdown", "dsa_counters", "fallbacks"} <= set(run)
        assert payload["failures"] == []

    def test_campaign_second_invocation_hits_cache(self, capsys):
        argv = ["campaign", "--workloads", "rgb_gray", "--systems", "arm_original", "--json"]
        main(argv)
        first = json.loads(capsys.readouterr().out)
        main(argv)
        second = json.loads(capsys.readouterr().out)
        assert first["runs"][0]["cache_hit"] is False
        assert second["runs"][0]["cache_hit"] is True
        assert second["results"] == first["results"]


class TestReportCommand:
    CAMPAIGN = ["campaign", "--workloads", "rgb_gray", "--systems", "arm_original", "--json"]

    def test_renders_campaign_record(self, tmp_path, capsys):
        assert main(self.CAMPAIGN) == 0
        record = tmp_path / "campaign.json"
        record.write_text(capsys.readouterr().out)
        (run,) = json.loads(record.read_text())["runs"]
        assert main(["report", str(record)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "workload", "system", "stage", "cycles", "source", "wall_s", "host_s", "mips",
        ]
        spec = run["spec"]
        assert lines[1].split()[:5] == [
            "rgb_gray", "arm_original", spec["dsa_stage"], str(run["cycles"]), "computed",
        ]
        assert lines[-1].startswith("1 runs: 0 from cache, 1 computed in ")

    def test_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text('{"something": "else"}')
        assert main(["report", str(path)]) == 2
        assert "is not a campaign record" in capsys.readouterr().err

    def test_rejects_non_object(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("5")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file(self, capsys):
        assert main(["report", "/no/such/record.json"]) == 2
        assert "no such record" in capsys.readouterr().err

    def test_retired_bench_verb_is_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestRunSystemContract:
    def test_unknown_system_raises(self):
        from repro.errors import ConfigError
        from repro.systems.setups import lower_for

        with pytest.raises(ConfigError):
            lower_for("hyperthreaded_abacus", vecsum())

    def test_golden_check_catches_corruption(self):
        """A workload whose golden disagrees must fail loudly."""
        import numpy as np

        wl = vecsum(n=32)
        wl.golden = lambda args: {"out": np.zeros(32, np.int32)}  # wrong on purpose
        with pytest.raises(AssertionError):
            run_system("arm_original", wl)

    def test_dsa_stage_selection(self):
        wl = load("bitcount", "test")
        original = run_system("neon_dsa", wl, dsa_stage="original")
        full = run_system("neon_dsa", wl, dsa_stage="full")
        assert original.dsa_stats.iterations_covered == 0
        assert full.dsa_stats.iterations_covered > 0
