"""Loop-type coverage (``repro stats``) and the ``repro trace`` CLI verb."""

import json

import pytest

from repro.cli import main
from repro.observe import (
    PAPER_LOOP_CLASSES,
    LoopCoverageReport,
    check_chrome_trace,
)
from repro.systems.campaign import CampaignRunner, RunSpec
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS


@pytest.fixture(scope="module")
def coverage_results():
    """One campaign over the whole loop taxonomy, shared by this module."""
    runner = CampaignRunner(use_cache=False)
    specs = [
        RunSpec(f"micro:{kind}", "neon_dsa", "full") for kind in PAPER_LOOP_CLASSES
    ]
    outcome = runner.run(specs)
    assert outcome.ok
    return {
        spec.workload.removeprefix("micro:"): outcome.result_for(spec)
        for spec in specs
    }


class TestLoopCoverageReport:
    def test_taxonomy_matches_microkernel_registry(self):
        assert set(PAPER_LOOP_CLASSES) == set(LOOP_TYPE_MICROKERNELS)

    def test_every_class_reported(self, coverage_results):
        report = LoopCoverageReport.from_results(coverage_results)
        assert [r.loop_class for r in report.rows] == list(PAPER_LOOP_CLASSES)

    def test_vectorizable_classes_vectorize(self, coverage_results):
        report = LoopCoverageReport.from_results(coverage_results)
        outcomes = {r.loop_class: r.outcome for r in report.rows}
        # the paper's vectorizable classes all go through NEON...
        for loop_class in ("count", "conditional", "sentinel",
                           "dynamic_range", "partial", "function"):
            assert outcomes[loop_class] == "vectorized", loop_class
        # ...and the non-vectorizable control stays scalar but is detected
        assert outcomes["non_vectorizable"] == "scalar"

    def test_counts_come_from_dsa_stats(self, coverage_results):
        report = LoopCoverageReport.from_results(coverage_results)
        by_class = {r.loop_class: r for r in report.rows}
        stats = coverage_results["count"].dsa_stats
        row = by_class["count"]
        assert row.detected == stats.loops_detected
        assert row.vectorized == sum(stats.vectorized_invocations.values())
        assert row.iterations_covered == stats.iterations_covered

    def test_table_and_json_render(self, coverage_results):
        report = LoopCoverageReport.from_results(coverage_results)
        table = report.table()
        for loop_class in PAPER_LOOP_CLASSES:
            assert loop_class in table
        payload = report.to_dict()
        json.dumps(payload)
        assert len(payload["loop_coverage"]) == len(PAPER_LOOP_CLASSES)

    def test_requires_dsa_stats(self, coverage_results):
        runner = CampaignRunner(use_cache=False)
        scalar = runner.run_one(RunSpec("micro:count", "arm_original"))
        with pytest.raises(ValueError, match="dsa_stats"):
            LoopCoverageReport.from_results({"count": scalar})


class TestStatsCLI:
    def test_stats_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        for loop_class in PAPER_LOOP_CLASSES:
            assert loop_class in out
        assert "vectorized" in out

    def test_stats_json(self, capsys):
        assert main(["stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = {r["loop_class"]: r for r in payload["loop_coverage"]}
        assert set(rows) == set(PAPER_LOOP_CLASSES)
        assert rows["count"]["outcome"] == "vectorized"


class TestTraceCLI:
    def test_trace_writes_valid_chrome_json(self, tmp_path, capsys):
        out = tmp_path / "run.trace.json"
        jsonl = tmp_path / "run.jsonl"
        assert main([
            "trace", "micro:count", "neon_dsa",
            "-o", str(out), "--jsonl", str(jsonl),
        ]) == 0
        payload = json.loads(out.read_text())
        assert check_chrome_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"loop_detected", "spec_commit", "core.run"} <= names
        assert jsonl.read_text().strip()
        assert "spec_commit" in capsys.readouterr().out

    def test_trace_unknown_workload_is_config_error(self, capsys):
        assert main(["trace", "no_such_kernel", "neon_dsa"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_default_output_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "micro:count", "arm_original"]) == 0
        assert (tmp_path / "micro_count_arm_original.trace.json").exists()
