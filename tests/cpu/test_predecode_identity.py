"""Golden byte-identity: the predecoded fast path vs the legacy interpreter.

``CPUConfig.predecode`` selects between two implementations of the same
architecture; everything observable — cycles, instruction counts, cache
stats, timing stats, energy inputs, DSA behaviour, the TraceRecord stream,
error messages — must be identical bit for bit.  The legacy interpreter is
kept for one release precisely so this suite can keep comparing against
it; the committed golden snapshot additionally pins the predecoded results
so both paths cannot silently drift together.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cpu import Core
from repro.cpu.config import CPUConfig
from repro.cpu.trace import TraceRecord
from repro.errors import ExecutionError
from repro.isa import assemble
from repro.memory import MainMemory
from repro.systems.campaign import RunSpec, execute_spec
from repro.systems.runner import execute_kernel
from repro.systems.setups import SYSTEM_NAMES, lower_for
from repro.workloads import load
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS

PREDECODED = CPUConfig(predecode=True)
LEGACY = CPUConfig(predecode=False)

#: one config per execution tier above the legacy interpreter; every tier
#: must produce bit-identical RunResults (hot_threshold=2 forces the
#: compiled tiers to engage even on short test-scale workloads)
TIER_CONFIGS = {
    "interp": CPUConfig(predecode=True, compile_hot=False),
    "compiled": CPUConfig(
        predecode=True, compile_hot=True, hot_threshold=2, compile_numpy=False
    ),
    "bulk": CPUConfig(
        predecode=True, compile_hot=True, hot_threshold=2, compile_numpy=True
    ),
}

GOLDEN_PATH = Path(__file__).with_name("golden_microkernels.json")

MICRO_KINDS = sorted(LOOP_TYPE_MICROKERNELS)


def result_dict(spec: RunSpec, config: CPUConfig, guard: bool = False) -> dict:
    return execute_spec(spec, cpu_config=config, guard=guard).to_dict()


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


class TestRunResultIdentity:
    @pytest.mark.parametrize("guard", [False, True], ids=["clean", "guard"])
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_microkernel_dsa(self, kind, guard):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        a = result_dict(spec, PREDECODED, guard=guard)
        b = result_dict(spec, LEGACY, guard=guard)
        assert canonical(a) == canonical(b)

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_paper_workload_all_systems(self, system):
        spec = RunSpec("rgb_gray", system)
        a = result_dict(spec, PREDECODED)
        b = result_dict(spec, LEGACY)
        assert canonical(a) == canonical(b)


class TestCompiledTierIdentity:
    """Each tier of the execution ladder must agree with the legacy
    interpreter bit for bit — including the trace-compiled hot-loop tier
    and its numpy bulk lowering."""

    _legacy_memo: dict = {}

    @classmethod
    def _legacy(cls, spec: RunSpec) -> str:
        key = (spec.workload, spec.system, spec.seed)
        got = cls._legacy_memo.get(key)
        if got is None:
            got = cls._legacy_memo[key] = canonical(result_dict(spec, LEGACY))
        return got

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_microkernel_dsa(self, kind, tier):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        assert canonical(result_dict(spec, TIER_CONFIGS[tier])) == self._legacy(spec)

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    @pytest.mark.parametrize("workload", ["rgb_gray", "matmul"])
    def test_paper_workloads(self, workload, tier):
        for system in ("arm_original", "neon_dsa"):
            spec = RunSpec(workload, system)
            assert (
                canonical(result_dict(spec, TIER_CONFIGS[tier])) == self._legacy(spec)
            ), f"{workload}/{system} diverged on tier {tier!r}"


class TestGoldenSnapshot:
    """The committed fixture pins the predecoded results absolutely."""

    @pytest.fixture(scope="class")
    def golden(self) -> dict:
        return json.loads(GOLDEN_PATH.read_text())

    @pytest.mark.parametrize("kind", MICRO_KINDS)
    def test_microkernel_matches_fixture(self, golden, kind):
        spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
        d = result_dict(spec, PREDECODED)
        entry = golden[f"micro:{kind}"]
        assert d["cycles"] == entry["cycles"]
        assert d["instructions"] == entry["instructions"]
        digest = hashlib.sha256(canonical(d).encode()).hexdigest()
        assert digest == entry["digest"], (
            "predecoded RunResult drifted from the committed golden snapshot; "
            "if the architectural model intentionally changed, regenerate "
            "tests/cpu/golden_microkernels.json (see its '_note' field)"
        )


class TestTraceStreamIdentity:
    """Retire hooks must observe the exact same TraceRecord stream."""

    @staticmethod
    def _records(lowered, workload, config: CPUConfig) -> list:
        records = []
        execute_kernel(
            lowered,
            workload.fresh_args(),
            config=config,
            attach=lambda core: core.retire_hooks.append(records.append),
        )
        return records

    def test_streams_equal(self):
        workload = load("rgb_gray", "test")
        lowered = lower_for("arm_original", workload)
        fast = self._records(lowered, workload, PREDECODED)
        legacy = self._records(lowered, workload, LEGACY)
        assert len(fast) == len(legacy)
        for a, b in zip(fast, legacy):
            assert (a.seq, a.pc, a.next_pc, a.branch_taken) == (
                b.seq, b.pc, b.next_pc, b.branch_taken)
            assert a.accesses == b.accesses
            assert a.reg_reads == b.reg_reads
            assert a.reg_writes == b.reg_writes
            assert a.instr is b.instr  # the very same Program object

    # Every record constructor: legacy step(), the predecoded traced loop
    # and the traced compiled blocks.  The hot loop retires records with
    # zero to three register reads and one or two writes (post-index
    # load), so each explicit construction branch is compared.
    HOT_LOOP = """
            mov r0, #4096
            mov r1, #16384
            mov r2, #0
            mov r5, #3
        loop:
            ldr r4, [r0], #4
            mla r6, r4, r5, r2
            add r7, r6, r4
            str r7, [r1, r2, lsl #2]
            add r2, r2, #1
            cmp r2, #100
            blt loop
            halt
    """
    CONSTRUCTORS = {
        "legacy": LEGACY,
        "traced_loop": CPUConfig(predecode=True, compile_traced=False, hot_threshold=2),
        "traced_blocks": CPUConfig(predecode=True, compile_traced=True, hot_threshold=2),
    }

    @staticmethod
    def _assert_same_stream(streams: dict) -> None:
        names = [f.name for f in dataclasses.fields(TraceRecord)]
        reference = streams["legacy"]
        for label, records in streams.items():
            assert len(records) == len(reference), label
            for a, b in zip(records, reference):
                for name in names:
                    if name == "instr":
                        assert a.instr is b.instr, (label, b.seq)
                    else:
                        assert getattr(a, name) == getattr(b, name), (label, b.seq, name)

    def _check_tiers(self, tiers: dict) -> None:
        assert set(tiers["legacy"]) == {"legacy"}
        assert set(tiers["traced_loop"]) == {"traced"}
        assert tiers["traced_blocks"]["compiled"] > 0  # the blocks engaged

    def test_hot_loop_stream_equal_across_constructors(self):
        program = assemble(self.HOT_LOOP)
        streams, tiers = {}, {}
        for label, config in self.CONSTRUCTORS.items():
            core = Core(program, MainMemory(1 << 16), config=config)
            records = []
            core.retire_hooks.append(records.append)
            core.run()
            streams[label], tiers[label] = records, dict(core.tier_counts)
        shapes = {(len(r.reg_reads), len(r.reg_writes)) for r in streams["legacy"]}
        assert {(1, 2), (2, 1), (3, 1), (3, 0)} <= shapes
        self._check_tiers(tiers)
        self._assert_same_stream(streams)

    @pytest.mark.parametrize("system", ["arm_original", "neon_autovec"])
    def test_workload_stream_equal_across_constructors(self, system):
        workload = load("rgb_gray", "test")
        lowered = lower_for(system, workload)
        streams, tiers = {}, {}
        for label, config in self.CONSTRUCTORS.items():
            records = []
            run = execute_kernel(
                lowered,
                workload.fresh_args(),
                config=config,
                attach=lambda core: core.retire_hooks.append(records.append),
            )
            streams[label], tiers[label] = records, dict(run.core.tier_counts)
        self._check_tiers(tiers)
        self._assert_same_stream(streams)


def _run_one(source: str, config: CPUConfig, max_instructions: int):
    core = Core(assemble(source), MainMemory(1 << 16), config=config)
    try:
        result = core.run(max_instructions=max_instructions)
        return ("ok", result.cycles, result.instructions,
                tuple(core.regs), core.pc, dict(core.icounts),
                core.memory.snapshot())
    except ExecutionError as exc:
        return ("error", str(exc), core.seq, core.pc,
                tuple(core.regs), dict(core.icounts),
                core.memory.snapshot())


def _run_both(source: str, max_instructions: int = 100_000_000):
    return [_run_one(source, config, max_instructions)
            for config in (PREDECODED, LEGACY)]


class TestErrorPathIdentity:
    """Failure modes must match the legacy interpreter exactly, including
    the error message and the architected state left behind."""

    def test_fall_off_end_of_text(self):
        fast, legacy = _run_both("mov r0, #1\nadd r0, r0, #2\n")
        assert fast == legacy
        assert fast[0] == "error" and "not inside the text segment" in fast[1]

    def test_branch_outside_text(self):
        fast, legacy = _run_both("mov r0, #0\nbx r0\nhalt")
        assert fast == legacy
        assert "0x0 is not inside the text segment" in fast[1]

    def test_misaligned_branch_target(self):
        fast, legacy = _run_both("mov r0, #4098\nbx r0\nhalt")
        assert fast == legacy
        assert "0x1002 is not inside the text segment" in fast[1]

    def test_did_not_halt_within_limit(self):
        source = """
            loop:
                add r0, r0, #1
                b loop
        """
        fast, legacy = _run_both(source, max_instructions=10)
        assert fast == legacy
        assert fast[0] == "error" and "did not halt within 10" in fast[1]

    def test_architected_state_after_success(self):
        source = """
                mov r0, #0
                mov r1, #10
            loop:
                add r0, r0, #3
                subs r1, r1, #1
                bne loop
                halt
        """
        fast, legacy = _run_both(source)
        assert fast == legacy
        assert fast[0] == "ok"


class TestMaxInstructionBoundaries:
    """``max_instructions`` must cut every tier at the identical point.

    The compiled tiers retire whole loop bodies (and, with numpy lowering,
    whole batches of iterations) per host dispatch, so the limit can land
    at a block entry, mid-body, or mid-batch; the architected state and the
    error message must still match a legacy core stopped at the same seq.
    """

    # 5-op counted store loop: 2 setup ops, 200 iterations, halt => 1003
    SOURCE = """
            mov r0, #0
            mov r1, #32768
        loop:
            add r2, r0, #7
            str r2, [r1, r0, lsl #2]
            add r0, r0, #1
            cmp r0, #200
            blt loop
            halt
    """
    TOTAL = 2 + 200 * 5 + 1

    # entry-aligned, every mid-body offset, mid-batch, around completion
    LIMITS = [7, 10, 11, 12, 13, 14, 251, 252, 497,
              TOTAL - 3, TOTAL - 1, TOTAL, TOTAL + 1]

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    def test_boundary_parity(self, tier):
        config = TIER_CONFIGS[tier]
        for limit in self.LIMITS:
            want = _run_one(self.SOURCE, LEGACY, limit)
            got = _run_one(self.SOURCE, config, limit)
            assert got == want, f"tier {tier!r} diverged at limit {limit}"
        full = _run_one(self.SOURCE, config, self.TOTAL)
        assert full[0] == "ok"
        short = _run_one(self.SOURCE, config, self.TOTAL - 1)
        assert short[0] == "error" and "did not halt" in short[1]

    @pytest.mark.parametrize("tier", sorted(TIER_CONFIGS))
    def test_every_offset_within_one_iteration(self, tier):
        """Sweep a full loop body's worth of consecutive limits."""
        config = TIER_CONFIGS[tier]
        for limit in range(500, 506):
            want = _run_one(self.SOURCE, LEGACY, limit)
            got = _run_one(self.SOURCE, config, limit)
            assert got == want, f"tier {tier!r} diverged at limit {limit}"

    @pytest.mark.parametrize("tier", [*sorted(TIER_CONFIGS), "legacy"])
    def test_already_halted_core_rerun(self, tier):
        """Re-running a halted core must be a no-op on every tier."""
        config = LEGACY if tier == "legacy" else TIER_CONFIGS[tier]
        core = Core(assemble(self.SOURCE), MainMemory(1 << 16), config=config)
        first = core.run(max_instructions=self.TOTAL)
        state = (core.seq, core.pc, tuple(core.regs), dict(core.icounts))
        again = core.run(max_instructions=self.TOTAL)
        assert (again.cycles, again.instructions) == (
            first.cycles, first.instructions)
        assert (core.seq, core.pc, tuple(core.regs), dict(core.icounts)) == state
