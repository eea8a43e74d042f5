"""Observer threading through the execution layers.

The two contracts under test:

1. **Observation never perturbs results** — a run with an observer attached
   produces a byte-identical ``RunResult`` to the same run without one.
2. **Zero overhead when disabled** — with no observer the core still picks
   the record-free fast loop, and no execution-layer object holds anything
   but ``None`` in its observer slot.
"""

import pytest

from repro.observe import EventKind, Observer
from repro.systems.campaign import RunSpec, execute_spec
from repro.systems.isolation import IsolatedExecutor

DSA_SPEC = RunSpec("micro:count", "neon_dsa")
SCALAR_SPEC = RunSpec("micro:count", "arm_original")
NONVEC_SPEC = RunSpec("micro:non_vectorizable", "neon_dsa")


def run_observed(spec):
    obs = Observer()
    result = execute_spec(spec, observer=obs)
    return obs, result


class TestResultIdentity:
    @pytest.mark.parametrize("spec", [DSA_SPEC, SCALAR_SPEC, NONVEC_SPEC])
    def test_observer_never_changes_the_result(self, spec):
        _, observed = run_observed(spec)
        plain = execute_spec(spec)
        assert observed.to_dict() == plain.to_dict()


class TestDsaEvents:
    def test_vectorized_loop_event_chain(self):
        obs, _ = run_observed(DSA_SPEC)
        assert obs.count(EventKind.LOOP_DETECTED) >= 1
        assert obs.count(EventKind.TEMPLATE_BUILT) >= 1
        assert obs.count(EventKind.SPEC_START) >= 1
        assert obs.count(EventKind.SPEC_COMMIT) >= 1
        assert obs.count(EventKind.NEON_DISPATCH) >= 1
        # DSA-internal cache traffic is tagged with its cache name
        miss = obs.events_of(EventKind.CACHE_MISS)[0]
        assert miss.args["cache"] == "dsa_cache"

    def test_events_ordered_and_cycle_stamped(self):
        obs, _ = run_observed(DSA_SPEC)
        detected = obs.events_of(EventKind.LOOP_DETECTED)[0]
        commit = obs.events_of(EventKind.SPEC_COMMIT)[0]
        assert detected.seq < commit.seq
        assert detected.cycle is not None and commit.cycle is not None
        assert detected.cycle <= commit.cycle

    def test_commit_covers_iterations(self):
        obs, result = run_observed(DSA_SPEC)
        covered = sum(e.args["covered"] for e in obs.events_of(EventKind.SPEC_COMMIT))
        assert covered == result.dsa_stats.iterations_covered

    def test_scalar_verdict_emitted_for_non_vectorizable(self):
        obs, _ = run_observed(NONVEC_SPEC)
        verdicts = obs.events_of(EventKind.LOOP_VERDICT)
        assert any(v.args["vectorizable"] is False for v in verdicts)
        assert obs.count(EventKind.SPEC_COMMIT) == 0

    def test_neon_dispatch_sources_distinguished(self):
        obs, _ = run_observed(DSA_SPEC)
        sources = {e.args["source"] for e in obs.events_of(EventKind.NEON_DISPATCH)}
        assert sources == {"dsa_burst"}  # DSA timing burst, not architectural
        obs_hv = Observer()
        execute_spec(RunSpec("micro:count", "neon_handvec"), observer=obs_hv)
        sources_hv = {
            e.args["source"] for e in obs_hv.events_of(EventKind.NEON_DISPATCH)
        }
        assert sources_hv == {"architectural"}


class TestCoreEvents:
    def test_run_span_and_begin_end(self):
        obs, result = run_observed(SCALAR_SPEC)
        assert obs.count(EventKind.RUN_BEGIN) == 1
        end = obs.events_of(EventKind.RUN_END)[0]
        assert end.args["cycles"] == result.cycles
        assert end.args["instructions"] == result.instructions
        (span,) = obs.spans
        assert (span.cat, span.name) == ("cpu", "core.run")
        assert span.cycles == result.cycles

    def test_path_reflects_loop_choice(self):
        obs_fast, _ = run_observed(SCALAR_SPEC)      # no hooks -> fast loop
        obs_traced, _ = run_observed(DSA_SPEC)       # DSA hook -> traced loop
        assert obs_fast.events_of(EventKind.RUN_END)[0].args["path"] == "fast"
        assert obs_traced.events_of(EventKind.RUN_END)[0].args["path"] == "traced"


class TestZeroOverheadDefaults:
    def test_no_observer_by_default_anywhere(self):
        from repro.compiler.lowering import lower
        from repro.cpu.core import Core
        from repro.memory.backing import MainMemory
        from repro.systems.campaign import build_workload

        workload = build_workload(SCALAR_SPEC)
        core = Core(lower(workload.kernel).program, MainMemory(1 << 20))
        assert core.observer is None
        assert core.vector.observer is None


class TestGuardFallback:
    def test_guard_fallback_event(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(faults=[FaultSpec(kind="lane", match="micro:count/*")])
        obs = Observer()
        result = execute_spec(DSA_SPEC, guard=True, plan=plan, observer=obs)
        assert result.dsa_stats.fallbacks >= 1
        fallback = obs.events_of(EventKind.GUARD_FALLBACK)[0]
        assert "loop_id" in fallback.args and fallback.args["cause"]


class TestWorkerEvents:
    def test_retry_and_timeout_events(self):
        def flaky(task, attempt):
            if attempt == 1:
                raise RuntimeError("first attempt fails")
            return task * 2

        obs = Observer()
        executor = IsolatedExecutor(flaky, retries=1, backoff=0.0, observer=obs)
        outcomes = executor.run([21])
        assert outcomes[0].ok and outcomes[0].value == 42
        retry = obs.events_of(EventKind.WORKER_RETRY)[0]
        assert retry.args["task"] == 0
        assert retry.args["attempt"] == 1
        assert retry.args["status"] == "error"

    def test_timeout_event(self):
        import time

        def hang(task, attempt):
            time.sleep(30)

        obs = Observer()
        executor = IsolatedExecutor(hang, timeout=0.3, observer=obs)
        outcomes = executor.run([None])
        assert outcomes[0].status == "timeout"
        timeout = obs.events_of(EventKind.WORKER_TIMEOUT)[0]
        assert timeout.args["deadline_s"] == pytest.approx(0.3)
