"""Self-tests of the benchmark harness; not part of the tier-1 suite.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import WRAP_POINTS, Tracer
from worker import SimRun

HERE = Path(__file__).resolve().parent


def _attribute(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


def test_self_time_of_a_nested_call_tree():
    now = [0.0]

    def tick(seconds):
        now[0] += seconds

    tracer = Tracer(clock=lambda: now[0])
    leaf = tracer.wrap(lambda: tick(2.0), "leaf", "memory", False)

    def middle_body():
        tick(1.0)
        leaf()
        tick(1.0)
        leaf()

    middle = tracer.wrap(middle_body, "middle", "timing", True)

    def top_body():
        tick(3.0)
        middle()

    top = tracer.wrap(top_body, "top", "cpu", True)
    top()
    tick(5.0)  # time outside every wrapped call

    assert tracer.self_s["cpu"] == 3.0
    assert tracer.self_s["timing"] == 2.0
    assert tracer.self_s["memory"] == 4.0
    assert tracer.calls["memory"] == 2 and tracer.calls["cpu"] == 1
    assert 14.0 - sum(tracer.self_s.values()) == 5.0  # left to `other`
    # only the span-recording layers keep spans, nested by parent
    spans = tracer.closed_spans()
    assert [(s["name"], s["parent"], s["start"], s["end"]) for s in spans] == [
        ("top", None, 0.0, 9.0),
        ("middle", 0, 3.0, 9.0),
    ]


def test_outcomes_count_truthy_returns():
    tracer = Tracer()
    hook = tracer.wrap(lambda x: x, "_cover_hook", "dsa.cover", False, "cover")
    for x in (True, False, 1, 0, None):
        hook(x)
    assert tracer.outcomes["cover"] == [5, 2]


def test_originals_restored_after_a_traced_block():
    before = [_attribute(m, p) for m, p, *_ in WRAP_POINTS]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            during = [_attribute(m, p) for m, p, *_ in WRAP_POINTS]
            raise RuntimeError("a failing traced pass")
    after = [_attribute(m, p) for m, p, *_ in WRAP_POINTS]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def test_tracing_keeps_covered_execution_and_results():
    from repro.systems import campaign
    from repro.systems.campaign import RunSpec

    spec = RunSpec("matmul", "neon_dsa", "full", "test")
    plain = campaign.execute_spec(spec)
    tracer = Tracer()
    with tracer.installed():
        traced = campaign.execute_spec(spec)
    assert plain.tier_counts.get("covered", 0) > 0
    assert traced.tier_counts == plain.tier_counts
    assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(plain.to_dict(), sort_keys=True)
    cover_calls, accepted = tracer.outcomes["cover"]
    assert accepted > 0 and tracer.calls["dsa.cover"] == cover_calls
    assert all(s["run"] == spec.label for s in tracer.closed_spans())


def test_identity_guard_flags_a_tier_change():
    guard = SimRun("static_simd", seed=None)
    guard.specs = guard.specs[:1]
    _, results = guard.one_pass()
    reference = guard.check(results, None, "")
    assert guard.failed == 0
    digest, tiers = reference[0]
    guard.check(results, [(digest, {**tiers, "covered": 1})], "tiers differ")
    assert guard.failed == 1 and guard.errors == [f"{guard.specs[0].label}: tiers differ"]


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--seed", "-1"], ["--trace", "2"]])
def test_bad_arguments_give_one_error_line_and_exit_2(argv):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_a_hung_child_is_killed_and_reaped():
    child = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], timeout=0.5)
    assert child.returncode != 0 and child.wall_s < 10


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    suite = tmp_path / "benchmarks" / "suite"
    shutil.copytree(HERE, suite, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(suite / "run.py"), "--workload", "scalar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_regressions_and_unresolved_spread():
    wall = run.END_TO_END[0]
    assert wall["name"] == "wall_s" and wall["bound"] < 0.3
    steady = run.summary([1.00, 1.01, 0.99, 1.00])
    assert run.verdict(wall, steady, run.summary([1.30, 1.31, 1.29, 1.30])).endswith("REGRESSED")
    assert run.verdict(wall, steady, run.summary([1.02, 1.03, 1.01, 1.02])).endswith("ok")
    assert run.verdict(wall, steady, run.summary([0.70, 0.71, 0.69, 0.70])).endswith("improved")
    noisy = run.summary([0.8, 1.4, 1.0, 1.3])
    assert run.verdict(wall, steady, noisy).endswith("unresolved")


def test_compare_checks_simulated_cycles_exactly_at_equal_seeds(tmp_path, capsys):
    def record(name, seed, cycles):
        path = tmp_path / name
        metrics = {"sim_cycles": {"value": cycles}, "wall_s": run.summary([1.0, 1.0])}
        path.write_text(json.dumps({"seed": seed, "workloads": {"dsa": {"metrics": metrics}}}))
        return str(path)

    base = record("a.json", 1, 1000)
    assert run.compare(base, record("b.json", 1, 1000)) == 0
    assert run.compare(base, record("c.json", 1, 999)) == 4
    assert "sim_cycles 1000 -> 999 CHANGED" in capsys.readouterr().out
    assert run.compare(base, record("d.json", 2, 990)) == 0
    assert "exact metrics not compared" in capsys.readouterr().out
