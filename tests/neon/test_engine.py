"""Tests for the functional vector engine (register file + memory bursts).

The fixture builds ``get_backend("neon")``, the engine at VL=128; cases
that hold at any width loop over every VL through :func:`engines`.
"""

import numpy as np
import pytest

from repro.isa import DType, QReg, Reg, assemble
from repro.isa.dtypes import float_to_bits
from repro.isa.neon import (
    VBinKind,
    VBinOp,
    VBsl,
    VCmp,
    VCmpKind,
    VDup,
    VDupImm,
    VLoad,
    VLoadLane,
    VMovFromCore,
    VMovQ,
    VMovToCore,
    VStore,
    VStoreLane,
)
from repro.memory import Allocator, MainMemory
from repro.neon import lanes
from repro.vector import VALID_VECTOR_LENGTHS, get_backend


@pytest.fixture
def setup():
    memory = MainMemory(1 << 20)
    engine = get_backend("neon")
    regs = [0] * 16
    return memory, engine, regs


def engines():
    """A fresh engine per backend name and vector length."""
    yield get_backend("neon")
    for vl in VALID_VECTOR_LENGTHS:
        yield get_backend("scalable", vl)


class TestLoadsStores:
    def test_vld1_reads_16_bytes(self, setup):
        memory, engine, regs = setup
        data = np.arange(4, dtype=np.int32)
        memory.write_array(0x100, data)
        regs[5] = 0x100
        events = engine.execute(VLoad(QReg(0), Reg(5), DType.I32, writeback=True), regs, memory)
        np.testing.assert_array_equal(lanes.view(engine.q[0], DType.I32), data)
        assert regs[5] == 0x110
        assert events[0].addr == 0x100 and events[0].nbytes == 16

    def test_vst1_writes_back(self, setup):
        memory, engine, regs = setup
        engine.write_reg(2, lanes.from_lanes([9, 8, 7, 6], DType.I32))
        regs[7] = 0x200
        engine.execute(VStore(QReg(2), Reg(7), DType.I32, writeback=True), regs, memory)
        np.testing.assert_array_equal(memory.read_array(0x200, DType.I32, 4), [9, 8, 7, 6])
        assert regs[7] == 0x210

    def test_lane_load_store(self, setup):
        memory, engine, regs = setup
        memory.write_value(0x300, -5, DType.I16)
        regs[1] = 0x300
        engine.execute(VLoadLane(QReg(0), 2, Reg(1), DType.I16, writeback=True), regs, memory)
        assert lanes.lane_get(engine.q[0], 2, DType.I16) == -5
        assert regs[1] == 0x302
        regs[2] = 0x400
        engine.execute(VStoreLane(QReg(0), 2, Reg(2), DType.I16), regs, memory)
        assert memory.read_value(0x400, DType.I16) == -5
        assert regs[2] == 0x400  # no writeback requested

    def test_stats_track_bytes(self, setup):
        memory, _, regs = setup
        regs[5] = 0x100
        for engine in engines():
            engine.execute(VLoad(QReg(0), Reg(5), DType.I32), regs, memory)
            engine.execute(VStore(QReg(0), Reg(5), DType.I32), regs, memory)
            assert engine.stats.bytes_loaded == engine.width_bytes
            assert engine.stats.bytes_stored == engine.width_bytes
            assert engine.stats.mem_ops == 2


class TestArithmetic:
    def test_vadd(self, setup):
        """Arithmetic spans every lane at every VL."""
        memory, _, regs = setup
        for engine in engines():
            n = engine.lanes_for(DType.I32)
            idx = list(range(1, n + 1))
            engine.write_reg(0, lanes.from_lanes(idx, DType.I32, n))
            engine.write_reg(1, lanes.from_lanes([10 * i for i in idx], DType.I32, n))
            engine.execute(
                VBinOp(VBinKind.VADD, QReg(2), QReg(0), QReg(1), DType.I32), regs, memory
            )
            np.testing.assert_array_equal(
                lanes.view(engine.q[2], DType.I32), [11 * i for i in idx]
            )
            assert engine.stats.arith_ops == 1

    def test_vdup_from_core_int(self, setup):
        memory, engine, regs = setup
        regs[3] = 7
        engine.execute(VDup(QReg(1), Reg(3), DType.I16), regs, memory)
        np.testing.assert_array_equal(lanes.view(engine.q[1], DType.I16), [7] * 8)

    def test_vdup_from_core_float(self, setup):
        memory, engine, regs = setup
        regs[3] = float_to_bits(2.5)
        engine.execute(VDup(QReg(1), Reg(3), DType.F32), regs, memory)
        np.testing.assert_array_equal(lanes.view(engine.q[1], DType.F32), [2.5] * 4)

    def test_vdup_imm(self, setup):
        memory, _, regs = setup
        for engine in engines():
            engine.execute(VDupImm(QReg(0), -1, DType.I8), regs, memory)
            np.testing.assert_array_equal(
                lanes.view(engine.q[0], DType.I8), [-1] * engine.width_bytes
            )

    def test_conditional_select_pipeline(self, setup):
        """vcgt + vbsl implements if (a>b) out=a else out=b."""
        memory, engine, regs = setup
        engine.write_reg(0, lanes.from_lanes([1, 9, 3, 9], DType.I32))
        engine.write_reg(1, lanes.from_lanes([5, 5, 5, 5], DType.I32))
        engine.execute(VCmp(VCmpKind.VCGT, QReg(2), QReg(0), QReg(1), DType.I32), regs, memory)
        engine.execute(VBsl(QReg(2), QReg(0), QReg(1)), regs, memory)
        np.testing.assert_array_equal(lanes.view(engine.q[2], DType.I32), [5, 9, 5, 9])

    def test_vmovq_copies(self, setup):
        memory, engine, regs = setup
        engine.write_reg(4, lanes.broadcast(3, DType.I32))
        engine.execute(VMovQ(QReg(5), QReg(4)), regs, memory)
        np.testing.assert_array_equal(engine.q[5], engine.q[4])

    def test_lane_moves_between_files(self, setup):
        memory, engine, regs = setup
        regs[2] = 42
        engine.execute(VMovFromCore(QReg(0), 1, Reg(2), DType.I32), regs, memory)
        engine.execute(VMovToCore(Reg(9), QReg(0), 1, DType.I32), regs, memory)
        assert regs[9] == 42


class TestBurstsAndReset:
    def test_run_burst_from_assembly(self, setup):
        memory, engine, regs = setup
        alloc = Allocator(memory)
        a = np.arange(8, dtype=np.int32)
        pa = alloc.alloc_array(a)
        pout = alloc.alloc_zeros(DType.I32, 8)
        prog = assemble(
            """
            vld1.i32 q0, [r5]!
            vmovi.i32 q1, #100
            vadd.i32 q2, q0, q1
            vst1.i32 q2, [r7]!
            vld1.i32 q0, [r5]!
            vadd.i32 q2, q0, q1
            vst1.i32 q2, [r7]!
            """
        )
        regs[5], regs[7] = pa, pout
        events = engine.run(list(prog.instructions), regs, memory)
        np.testing.assert_array_equal(memory.read_array(pout, DType.I32, 8), a + 100)
        assert sum(1 for e in events if e.is_write) == 2

    def test_reset_clears_everything(self):
        for engine in engines():
            engine.write_reg(0, np.ones(engine.width_bytes, dtype=np.uint8))
            engine.stats.arith_ops = 5
            engine.reset()
            assert not engine.read_reg(0).any()
            assert engine.read_reg(0).nbytes == engine.width_bytes
            assert engine.stats.arith_ops == 0

    def test_snapshot_equivalence_pattern(self, setup):
        """The DSA verification pattern: burst on a clone == scalar result."""
        memory, engine, regs = setup
        alloc = Allocator(memory)
        a = np.arange(4, dtype=np.int32)
        pa = alloc.alloc_array(a)
        snapshot = memory.clone()
        # scalar-style update on the live memory
        memory.write_array(pa, a * 2)
        # vector burst on the snapshot
        prog = assemble(
            """
            vld1.i32 q0, [r5]
            vadd.i32 q0, q0, q0
            vst1.i32 q0, [r5]
            """
        )
        engine.run(list(prog.instructions), [0] * 5 + [pa] + [0] * 10, snapshot)
        assert snapshot.read_array(pa, DType.I32, 4).tolist() == memory.read_array(pa, DType.I32, 4).tolist()
