"""Unit tests for the scalable engine and the backend factory."""

import numpy as np
import pytest

from repro.cpu import Core
from repro.errors import ConfigError, ExecutionError
from repro.isa import assemble
from repro.isa.dtypes import DType
from repro.isa.neon import QReg, Reg, VBinKind, VBinOp, VDupImm, VLoad, VStore
from repro.memory import MainMemory
from repro.neon.engine import NeonEngine
from repro.vector import VALID_VECTOR_LENGTHS, ScalableEngine, get_backend


class TestGetBackend:
    def test_neon(self):
        """``neon`` is the one engine pinned at VL=128."""
        backend = get_backend("neon")
        assert isinstance(backend, NeonEngine) and isinstance(backend, ScalableEngine)
        assert (backend.name, backend.vl_bits, backend.width_bytes) == ("neon", 128, 16)

    @pytest.mark.parametrize("vl", VALID_VECTOR_LENGTHS)
    def test_scalable_all_lengths(self, vl):
        backend = get_backend("scalable", vl)
        assert isinstance(backend, ScalableEngine)
        assert (backend.vl_bits, backend.width_bytes) == (vl, vl // 8)

    def test_neon_rejects_wide_vl(self):
        with pytest.raises(ConfigError, match="fixed at VL=128"):
            get_backend("neon", 256)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown vector backend"):
            get_backend("avx512")

    def test_invalid_vector_length(self):
        with pytest.raises(ConfigError, match="vector length"):
            get_backend("scalable", 192)


class TestScalableGeometry:
    def test_lanes_scale_with_vl(self):
        assert get_backend("scalable", 128).lanes_for(DType.I32) == 4
        assert get_backend("scalable", 256).lanes_for(DType.I32) == 8
        assert get_backend("scalable", 512).lanes_for(DType.U8) == 64
        assert get_backend("scalable", 1024).lanes_for(DType.I64) == 16

    def test_register_file_is_sixteen_wide_registers(self):
        engine = get_backend("scalable", 512)
        assert engine.num_regs == 16
        assert all(engine.read_reg(i).nbytes == 64 for i in range(16))

    def test_write_reg_validates_width(self):
        engine = get_backend("scalable", 256)
        engine.write_reg(3, np.arange(32, dtype=np.uint8))
        assert engine.read_reg(3)[31] == 31
        with pytest.raises(ExecutionError, match="32 bytes"):
            engine.write_reg(3, np.zeros(16, dtype=np.uint8))


class TestScalableExecution:
    def setup_method(self):
        self.engine = ScalableEngine(256)
        self.memory = MainMemory(1 << 16)
        self.regs = [0] * 16

    def test_full_width_load_store_roundtrip(self):
        payload = bytes(range(32))
        self.memory.write(0x100, payload)
        self.regs[0], self.regs[1] = 0x100, 0x200
        events = self.engine.execute(
            VLoad(QReg(2), Reg(0), DType.U8), self.regs, self.memory
        )
        assert (events[0].addr, events[0].nbytes, events[0].is_write) == (0x100, 32, False)
        self.engine.execute(VStore(QReg(2), Reg(1), DType.U8), self.regs, self.memory)
        assert bytes(self.memory.view(0x200, 32)) == payload

    def test_writeback_advances_by_full_width(self):
        self.regs[0] = 0x100
        self.engine.execute(
            VLoad(QReg(0), Reg(0), DType.U8, writeback=True), self.regs, self.memory
        )
        assert self.regs[0] == 0x100 + 32

    def test_arithmetic_spans_every_lane(self):
        self.engine.execute(VDupImm(QReg(0), 3, DType.I32), self.regs, self.memory)
        self.engine.execute(VDupImm(QReg(1), 4, DType.I32), self.regs, self.memory)
        self.engine.execute(
            VBinOp(VBinKind.VADD, QReg(2), QReg(0), QReg(1), DType.I32),
            self.regs, self.memory,
        )
        result = self.engine.read_reg(2).view(np.int32)
        assert result.tolist() == [7] * 8

    def test_reset_restores_pristine_state(self):
        self.engine.write_reg(0, np.ones(32, dtype=np.uint8))
        self.engine.stats.arith_ops = 9
        self.engine.reset()
        assert not self.engine.read_reg(0).any()
        assert self.engine.stats.arith_ops == 0


class TestPerRunStatsReset:
    """Regression: a core reused across runs must not leak vector-op
    counters from one run (or from attach-time warm-up) into the next."""

    SOURCE = """
            mov r0, #0
        loop:
            add r0, r0, #1
            cmp r0, #5
            blt loop
            halt
    """

    def test_fresh_run_starts_from_zero(self):
        core = Core(assemble(self.SOURCE), MainMemory(1 << 16))
        core.vector.stats.arith_ops = 7  # e.g. left over from a prior probe
        core.run()
        assert core.vector.stats.arith_ops == 0

    def test_continuation_keeps_accumulating(self):
        core = Core(assemble(self.SOURCE), MainMemory(1 << 16))
        try:
            core.run(max_instructions=3)  # cut mid-run
        except Exception:
            pass
        core.vector.stats.arith_ops = 7  # stand-in for mid-run vector work
        core.run()  # resumes: must NOT reset
        assert core.vector.stats.arith_ops == 7
