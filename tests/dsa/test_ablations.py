"""Ablations for the design choices DESIGN.md calls out.

Each test isolates one DSA mechanism by toggling a feature gate or
shrinking a structure, and asserts the direction of the cycle (or work)
delta the design relies on.
"""

import numpy as np

from repro.dsa import DSAConfig, DSAFeatures, DynamicSIMDAssembler
from repro.systems import run_system
from repro.systems.setups import lower_for
from repro.systems.runner import execute_kernel
from repro.workloads import load
from repro.workloads.synthetic import offset_accumulate, strcopy, threshold, vecsum


def _dsa_cycles(workload, config) -> float:
    lowered = lower_for("neon_dsa", workload)
    dsa = DynamicSIMDAssembler(config)
    run = execute_kernel(lowered, workload.fresh_args(), attach=dsa.attach)
    return run.result.cycles


def test_ablation_partial_vectorization():
    """Partial vectorization on vs off on a distance-24 dependency loop."""
    wl = offset_accumulate(n=256, distance=48)
    on = DSAConfig(features=DSAFeatures(partial=True))
    off = DSAConfig(features=DSAFeatures(partial=False))
    cycles_on = _dsa_cycles(wl, on)
    cycles_off = _dsa_cycles(wl, off)
    assert cycles_on < cycles_off


def test_ablation_conditional_coverage():
    """Conditional-loop support on vs off (Article 2's extension)."""
    wl = threshold(n=512)
    on = DSAConfig(features=DSAFeatures(conditional=True))
    off = DSAConfig(features=DSAFeatures(conditional=False))
    cycles_on = _dsa_cycles(wl, on)
    cycles_off = _dsa_cycles(wl, off)
    assert cycles_on < cycles_off


def test_ablation_sentinel_speculation():
    """Sentinel speculation on vs off — the learned speculative range pays
    off once the loop repeats (paper Fig. 23)."""
    from repro.workloads.synthetic import repeated_strcopy

    wl = repeated_strcopy(n=256, valid=200, repeats=6)
    on = DSAConfig(features=DSAFeatures(sentinel=True))
    off = DSAConfig(features=DSAFeatures(sentinel=False))
    cycles_on = _dsa_cycles(wl, on)
    cycles_off = _dsa_cycles(wl, off)
    assert cycles_on <= cycles_off


def test_ablation_dsa_cache_size():
    """A starved DSA cache forces re-analysis on every loop invocation."""
    wl = load("matmul", "test")
    big = DSAConfig(dsa_cache_bytes=8 * 1024)
    tiny = DSAConfig(dsa_cache_bytes=64)  # one entry: thrashes across loops
    cycles_big = _dsa_cycles(wl, big)
    cycles_tiny = _dsa_cycles(wl, tiny)
    assert cycles_big <= cycles_tiny


def test_ablation_functional_verification_is_timing_free():
    """The numpy replay is a host-side check: simulated cycles identical."""
    wl = vecsum(n=512)
    with_verify = DSAConfig(verify_functional=True)
    without = DSAConfig(verify_functional=False)
    c1 = _dsa_cycles(wl, with_verify)
    c2 = _dsa_cycles(wl, without)
    assert c1 == c2


def test_ablation_dsa_overhead_when_idle():
    """Running the DSA on a DLP-free program must cost (almost) nothing —
    the paper's 'no performance penalties when loops are not found'."""
    wl = load("qsort", "test")
    base = run_system("arm_original", wl)
    dsa = run_system("neon_dsa", wl, dsa_stage="original")
    ratio = dsa.cycles / base.cycles
    assert ratio < 1.02


def test_ablation_leftover_technique():
    """Single elements vs overlapping on a 16-lane (u8) loop whose trip
    count leaves 15 leftover elements — the worst case for element-wise
    handling (paper, Section 4.8 / Fig. 27-28)."""
    from repro.isa import DType
    from repro.compiler import ArrayParam, Const, For, Kernel, Load, Store, Var
    from repro.compiler.ir import add
    from repro.workloads.base import Workload

    n = 527  # 32 full 16-lane vectors + 15 leftovers
    kernel = Kernel(
        "leftover_u8",
        [ArrayParam("a", DType.U8), ArrayParam("out", DType.U8)],
        [For("i", Const(0), Const(n), [Store("out", Var("i"), add(Load("a", Var("i")), Const(1)))])],
    )

    def make_args():
        return {"a": (np.arange(n) % 100).astype(np.uint8), "out": np.zeros(n, np.uint8)}

    wl = Workload(
        name="leftover_u8",
        dlp_level="high",
        kernel=kernel,
        make_args=make_args,
        golden=lambda args: {"out": (args["a"] + 1).astype(np.uint8)},
        output_arrays=["out"],
    )
    def charged_instructions(policy):
        lowered = lower_for("neon_dsa", wl)
        dsa = DynamicSIMDAssembler(DSAConfig(leftover_policy=policy))
        run = execute_kernel(lowered, wl.fresh_args(), attach=dsa.attach)
        t = run.core.timing.stats
        return t.scalar_instructions + t.vector_instructions

    work_overlap = charged_instructions("auto")
    work_single = charged_instructions("single_elements")
    # the paper's op-count argument: one overlapped vector replaces up to 15
    # element-wise load/op/store triples (cycle deltas are within cache noise)
    assert work_overlap < work_single
