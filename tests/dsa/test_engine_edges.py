"""DSA edge cases: capacity pressure, mispeculation, cache reuse, stats."""

import numpy as np
import pytest

from repro.isa import DType
from repro.compiler import (
    ArrayParam,
    Binary,
    BinOp,
    CmpOp,
    Compare,
    Const,
    For,
    If,
    Kernel,
    Let,
    Load,
    ScalarParam,
    Store,
    Var,
    lower,
)
from repro.compiler.ir import add, c, mul, v
from repro.dsa import DSAConfig, DSAFeatures, DynamicSIMDAssembler, LoopKind
from repro.systems.runner import execute_kernel


def run_with(kernel, args, config=None):
    dsa = DynamicSIMDAssembler(config or DSAConfig())
    run = execute_kernel(lower(kernel), args, attach=dsa.attach)
    return run, dsa


def vecsum_kernel(n):
    return Kernel(
        "k",
        [ArrayParam("a", DType.I32), ArrayParam("out", DType.I32)],
        [For("i", c(0), c(n), [Store("out", v("i"), add(Load("a", v("i")), c(1)))])],
    )


def vecsum_args(n):
    return {"a": np.arange(n, dtype=np.int32), "out": np.zeros(n, np.int32)}


class TestVerificationCachePressure:
    def test_overflow_rejects_the_loop(self):
        """A body with more static accesses than V-cache entries cannot be
        tracked and must stay scalar (paper: the 1 KB V-cache bounds it)."""
        n = 64
        # 6 distinct access streams per iteration
        body = [
            Store("out", v("i"), add(add(Load("a", v("i")), Load("b", v("i"))),
                                     add(Load("c_", v("i")), Load("d", v("i"))))),
            Store("out2", v("i"), Load("a", v("i"))),
        ]
        kernel = Kernel(
            "wide",
            [
                ArrayParam("a", DType.I32),
                ArrayParam("b", DType.I32),
                ArrayParam("c_", DType.I32),
                ArrayParam("d", DType.I32),
                ArrayParam("out", DType.I32),
                ArrayParam("out2", DType.I32),
            ],
            [For("i", c(0), c(n), body)],
        )
        args = {
            name: np.arange(n, dtype=np.int32)
            for name in ("a", "b", "c_", "d")
        }
        args.update({"out": np.zeros(n, np.int32), "out2": np.zeros(n, np.int32)})

        tiny = DSAConfig(verification_cache_bytes=32, verification_entry_bytes=8)  # 4 pcs
        run, dsa = run_with(kernel, dict(args), tiny)
        assert dsa.stats.iterations_covered == 0
        assert dsa.stats.verdicts["non_vectorizable"] >= 1

        big = DSAConfig()
        run2, dsa2 = run_with(kernel, dict(args), big)
        assert dsa2.stats.iterations_covered > 0


class TestDSACacheEviction:
    def test_tiny_cache_still_correct(self):
        # two loops, one-entry cache: verdicts evict each other
        n = 40
        kernel = Kernel(
            "two",
            [ArrayParam("a", DType.I32), ArrayParam("out", DType.I32)],
            [
                For("i", c(0), c(n), [Store("out", v("i"), add(Load("a", v("i")), c(1)))]),
                For("j", c(0), c(n), [Store("out", v("j"), mul(Load("out", v("j")), c(2)))]),
            ],
        )
        cfg = DSAConfig(dsa_cache_bytes=64, dsa_cache_entry_bytes=64)
        run, dsa = run_with(kernel, vecsum_args(n), cfg)
        expected = (np.arange(n) + 1) * 2
        np.testing.assert_array_equal(run.array("out"), expected)
        assert dsa.cache.stats.evictions >= 1


class TestMispeculationRecovery:
    def test_address_misprediction_aborts_and_stays_correct(self):
        """A loop whose store address breaks stride mid-run (indirect jump
        in the walk) must be caught by the continuous V-cache check."""
        n = 48
        # out[idx[i]] = a[i]: idx is identity for a while, then jumps —
        # the DSA samples a regular stride, then hits the deviation
        kernel = Kernel(
            "gather",
            [ArrayParam("a", DType.I32), ArrayParam("idx", DType.I32), ArrayParam("out", DType.I32)],
            [
                For(
                    "i", c(0), c(n),
                    [Let("t", Load("idx", v("i"))), Store("out", Var("t"), Load("a", v("i")))],
                )
            ],
        )
        idx = np.arange(n, dtype=np.int32)
        idx[30:] = idx[30:][::-1]  # stride break far beyond the analysis window
        args = {"a": np.arange(n, dtype=np.int32) * 7, "idx": idx, "out": np.zeros(n, np.int32)}
        run, dsa = run_with(kernel, args)
        expected = np.zeros(n, np.int32)
        expected[idx] = np.arange(n, dtype=np.int32) * 7
        np.testing.assert_array_equal(run.array("out"), expected)
        # either rejected up front (non-affine) or aborted at the deviation —
        # never verified wrong
        assert dsa.stats.verifications == 0 or run is not None


class TestStatsAndConfig:
    def test_verify_off_skips_replay(self):
        cfg = DSAConfig(verify_functional=False)
        run, dsa = run_with(vecsum_kernel(64), vecsum_args(64), cfg)
        assert dsa.stats.verifications == 0
        assert dsa.stats.iterations_covered > 0

    def test_min_vector_iterations_gate(self):
        cfg = DSAConfig(min_vector_iterations=1000)
        run, dsa = run_with(vecsum_kernel(64), vecsum_args(64), cfg)
        assert dsa.stats.iterations_covered == 0

    def test_double_attach_rejected(self):
        from repro.errors import ReproError

        dsa = DynamicSIMDAssembler()
        lowered = lower(vecsum_kernel(16))
        execute_kernel(lowered, vecsum_args(16), attach=dsa.attach)
        assert dsa.core is None  # the first core is gone, yet the DSA stays bound
        with pytest.raises(ReproError):
            execute_kernel(lowered, vecsum_args(16), attach=dsa.attach)

    def test_stage_activation_counters(self):
        _, dsa = run_with(vecsum_kernel(64), vecsum_args(64))
        s = dsa.stats.stage_activations
        assert s["loop_detection"] == 1
        assert s["data_collection"] == 1
        assert s["dependency_analysis"] == 1
        assert s["store_id_execution"] == 1
        assert "mapping" not in s  # count loops skip the conditional stages

    def test_records_observed_counts_everything(self):
        run, dsa = run_with(vecsum_kernel(32), vecsum_args(32))
        assert dsa.stats.records_observed == run.result.instructions


class TestDynamicRangeReverification:
    def test_same_loop_different_ranges(self):
        """A DRL-A re-verifies per invocation: a range that fits one call
        and overflows another must be handled, with correct results both
        times (paper Fig. 24)."""
        kernel = Kernel(
            "drla2",
            [ArrayParam("a", DType.I32), ArrayParam("out", DType.I32), ScalarParam("n1"), ScalarParam("n2")],
            [
                For("i", c(0), v("n1"), [Store("out", v("i"), add(Load("a", v("i")), c(10)))]),
                For("j", c(0), v("n2"), [Store("out", v("j"), add(Load("out", v("j")), c(100)))]),
            ],
        )
        args = {
            "a": np.arange(64, dtype=np.int32),
            "out": np.zeros(64, np.int32),
            "n1": 60,
            "n2": 20,
        }
        run, dsa = run_with(kernel, args)
        expected = np.zeros(64, np.int32)
        expected[:60] = np.arange(60) + 10
        expected[:20] += 100
        np.testing.assert_array_equal(run.array("out"), expected)
        assert dsa.stats.vectorized_invocations["dynamic_range"] == 2


class TestLeftoverPolicy:
    def test_auto_picks_overlap_for_pure_elementwise(self):
        run, dsa = run_with(vecsum_kernel(67), vecsum_args(67))
        assert dsa.stats.leftover_used["overlapping"] == 1

    def test_auto_picks_single_for_rmw(self):
        n = 67
        kernel = Kernel(
            "rmw",
            [ArrayParam("a", DType.I32), ArrayParam("out", DType.I32)],
            [For("i", c(0), c(n), [Store("out", v("i"), add(Load("out", v("i")), Load("a", v("i"))))])],
        )
        run, dsa = run_with(kernel, vecsum_args(n))
        assert dsa.stats.leftover_used["single_elements"] == 1

    def test_forced_single_elements(self):
        cfg = DSAConfig(leftover_policy="single_elements")
        run, dsa = run_with(vecsum_kernel(67), vecsum_args(67), cfg)
        assert dsa.stats.leftover_used["single_elements"] == 1
        np.testing.assert_array_equal(run.array("out"), np.arange(67) + 1)

    def test_bad_policy_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DSAConfig(leftover_policy="larger_arrays_for_free")

    def test_policies_agree_functionally(self):
        outs = []
        for policy in ("auto", "single_elements"):
            cfg = DSAConfig(leftover_policy=policy)
            run, _ = run_with(vecsum_kernel(53), vecsum_args(53), cfg)
            outs.append(run.array("out"))
        np.testing.assert_array_equal(outs[0], outs[1])


class TestCoreLifetime:
    """The core owns its DSA (through the retire hook); the DSA must not
    own the core back, or every finished core would wait for the cyclic
    collector — peak memory would grow with the number of runs."""

    @pytest.mark.parametrize("system", ["arm_original", "neon_autovec", "neon_dsa"])
    def test_core_dies_with_its_run(self, monkeypatch, system):
        import gc
        import weakref

        import repro.systems.runner as runner
        from repro.systems.campaign import RunSpec, execute_spec

        cores = []

        class TrackedCore(runner.Core):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                cores.append(weakref.ref(self))

        monkeypatch.setattr(runner, "Core", TrackedCore)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            execute_spec(RunSpec(workload="rgb_gray", system=system))
            assert len(cores) == 1
            assert cores[0]() is None, "the core outlived its run"
        finally:
            if was_enabled:
                gc.enable()
