"""The vector engine: a vector-length-agnostic (SVE/RVV-style) unit.

The engine is built for one configurable vector length VL ∈ {128, 256,
512, 1024} bits; the paper's NEON unit is this engine at VL=128 (see
:mod:`repro.neon.engine`).  It owns sixteen ``width_bytes`` registers and
executes every :class:`~repro.isa.neon.VInstr` against a
:class:`~repro.memory.backing.MainMemory`.  The same vector program runs
at any width: full-width loads and stores move ``width_bytes`` per
instruction and post-increment the base register by ``width_bytes``, so a
loop template built against this engine covers ``lanes_for(dtype)``
iterations per burst.  Timing lives in :class:`repro.cpu.timing.TimingModel`;
the engine is purely functional, so the DSA can also run generated bursts
against memory *snapshots* for equivalence checking.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ExecutionError
from ..isa.dtypes import DType, bits_to_float, float_to_bits, to_u32
from ..isa.neon import (
    VBinOp,
    VBsl,
    VCmp,
    VDup,
    VDupImm,
    VInstr,
    VLoad,
    VLoadLane,
    VMla,
    VMovFromCore,
    VMovQ,
    VMovToCore,
    VShiftImm,
    VShiftKind,
    VStore,
    VStoreLane,
    VUnary,
)
from ..memory.backing import MainMemory
from ..neon import lanes
from ..observe.events import EventKind
from .backend import VALID_VECTOR_LENGTHS, VectorStats, VMemEvent


class ScalableEngine:
    """Functional model of a vector unit at one configured VL.

    Construct it through :func:`repro.vector.get_backend`.
    """

    name = "scalable"
    num_regs = 16  # the QReg operand encoding spans q0..q15 on any backend

    def __init__(self, vl_bits: int = 128) -> None:
        if vl_bits not in VALID_VECTOR_LENGTHS:
            raise ConfigError(
                f"scalable backend vector length must be one of "
                f"{VALID_VECTOR_LENGTHS}, got {vl_bits}"
            )
        self.vl_bits = vl_bits
        self.width_bytes = vl_bits // 8
        self.q = [lanes.zero_register(self.width_bytes) for _ in range(self.num_regs)]
        self.stats = VectorStats()
        #: fault-injection hook: called as hook(instr, q) after each
        #: executed instruction, free to corrupt the register file — the
        #: golden check downstream is what must catch the damage
        self.fault_hook = None
        #: optional repro.observe.Observer; when set, every architecturally
        #: executed vector instruction emits a NEON_DISPATCH event
        self.observer = None

    # ------------------------------------------------------------------
    def lanes_for(self, dtype: DType) -> int:
        """Element lanes one register holds at this engine's width."""
        return self.width_bytes // dtype.size

    def read_reg(self, index: int) -> np.ndarray:
        """Copy of register ``index`` as a ``width_bytes`` uint8 image."""
        return self.q[index].copy()

    def write_reg(self, index: int, image: np.ndarray) -> None:
        """Replace register ``index``; the image must be register-width."""
        if image.nbytes != self.width_bytes:
            raise ExecutionError(
                f"register image must be {self.width_bytes} bytes at "
                f"VL={self.vl_bits}"
            )
        self.q[index] = image.astype(np.uint8, copy=True)

    def reset(self) -> None:
        """Zero the register file and the stats counters."""
        self.q = [lanes.zero_register(self.width_bytes) for _ in range(self.num_regs)]
        self.stats.reset()

    # ------------------------------------------------------------------
    # handlers (dict-dispatched; each returns its memory event or None)
    # ------------------------------------------------------------------
    def _exec_vload(self, instr: VLoad, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        n = self.width_bytes
        self.q[instr.qd.index] = memory.view(addr, n).copy()
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + n)
        self.stats.mem_ops += 1
        self.stats.bytes_loaded += n
        return VMemEvent(addr, n, False)

    def _exec_vstore(self, instr: VStore, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        n = self.width_bytes
        memory.write(addr, self.q[instr.qs.index].tobytes())
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + n)
        self.stats.mem_ops += 1
        self.stats.bytes_stored += n
        return VMemEvent(addr, n, True)

    def _exec_lane_load(self, instr: VLoadLane, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        value = memory.read_value(addr, instr.dtype)
        self.q[instr.qd.index] = lanes.lane_set(
            self.q[instr.qd.index], instr.lane, value, instr.dtype
        )
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + instr.dtype.size)
        self.stats.mem_ops += 1
        self.stats.bytes_loaded += instr.dtype.size
        return VMemEvent(addr, instr.dtype.size, False)

    def _exec_lane_store(self, instr: VStoreLane, regs, memory) -> VMemEvent:
        addr = regs[instr.base.index]
        value = lanes.lane_get(self.q[instr.qs.index], instr.lane, instr.dtype)
        memory.write_value(addr, value, instr.dtype)
        if instr.writeback:
            regs[instr.base.index] = to_u32(addr + instr.dtype.size)
        self.stats.mem_ops += 1
        self.stats.bytes_stored += instr.dtype.size
        return VMemEvent(addr, instr.dtype.size, True)

    def _exec_vbinop(self, instr: VBinOp, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.binop(
            instr.kind, self.q[instr.qn.index], self.q[instr.qm.index], instr.dtype
        )
        self.stats.arith_ops += 1

    def _exec_vmla(self, instr: VMla, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.mla(
            self.q[instr.qd.index],
            self.q[instr.qn.index],
            self.q[instr.qm.index],
            instr.dtype,
        )
        self.stats.arith_ops += 1

    def _exec_vshift(self, instr: VShiftImm, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.shift(
            instr.kind is VShiftKind.VSHL,
            self.q[instr.qn.index],
            instr.amount,
            instr.dtype,
        )
        self.stats.arith_ops += 1

    def _exec_vunary(self, instr: VUnary, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.unary(instr.kind, self.q[instr.qn.index], instr.dtype)
        self.stats.arith_ops += 1

    def _exec_vdup(self, instr: VDup, regs, memory) -> None:
        raw = regs[instr.rn.index]
        value = bits_to_float(raw) if instr.dtype.is_float else raw
        self.q[instr.qd.index] = lanes.broadcast(
            value, instr.dtype, lanes=self.lanes_for(instr.dtype)
        )
        self.stats.lane_ops += 1

    def _exec_vdup_imm(self, instr: VDupImm, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.broadcast(
            instr.value, instr.dtype, lanes=self.lanes_for(instr.dtype)
        )
        self.stats.lane_ops += 1

    def _exec_vcmp(self, instr: VCmp, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.compare(
            instr.kind, self.q[instr.qn.index], self.q[instr.qm.index], instr.dtype
        )
        self.stats.arith_ops += 1

    def _exec_vbsl(self, instr: VBsl, regs, memory) -> None:
        self.q[instr.qd.index] = lanes.bitwise_select(
            self.q[instr.qd.index], self.q[instr.qn.index], self.q[instr.qm.index]
        )
        self.stats.arith_ops += 1

    def _exec_vmovq(self, instr: VMovQ, regs, memory) -> None:
        self.q[instr.qd.index] = self.q[instr.qm.index].copy()
        self.stats.lane_ops += 1

    def _exec_vmov_to_core(self, instr: VMovToCore, regs, memory) -> None:
        value = lanes.lane_get(self.q[instr.qn.index], instr.lane, instr.dtype)
        regs[instr.rd.index] = (
            float_to_bits(value) if instr.dtype.is_float else to_u32(int(value))
        )
        self.stats.lane_ops += 1

    def _exec_vmov_from_core(self, instr: VMovFromCore, regs, memory) -> None:
        raw = regs[instr.rn.index]
        value = bits_to_float(raw) if instr.dtype.is_float else raw
        self.q[instr.qd.index] = lanes.lane_set(
            self.q[instr.qd.index], instr.lane, value, instr.dtype
        )
        self.stats.lane_ops += 1

    #: type-keyed dispatch — one dict probe replaces the isinstance ladder
    _DISPATCH = {
        VLoad: _exec_vload,
        VStore: _exec_vstore,
        VLoadLane: _exec_lane_load,
        VStoreLane: _exec_lane_store,
        VBinOp: _exec_vbinop,
        VMla: _exec_vmla,
        VShiftImm: _exec_vshift,
        VUnary: _exec_vunary,
        VDup: _exec_vdup,
        VDupImm: _exec_vdup_imm,
        VCmp: _exec_vcmp,
        VBsl: _exec_vbsl,
        VMovQ: _exec_vmovq,
        VMovToCore: _exec_vmov_to_core,
        VMovFromCore: _exec_vmov_from_core,
    }

    def execute(
        self, instr: VInstr, regs: list[int], memory: MainMemory
    ) -> list[VMemEvent]:
        """Execute one vector instruction.

        ``regs`` is the core's scalar register file (mutated on writeback and
        on vector->core moves).  Returns the memory events performed, for the
        timing model and the cache hierarchy.
        """
        handler = self._DISPATCH.get(type(instr))
        if handler is None:
            raise ExecutionError(f"unknown vector instruction {instr!r}")
        event = handler(self, instr, regs, memory)
        if self.fault_hook is not None:
            self.fault_hook(instr, self.q)
        if self.observer is not None:
            self.observer.emit(
                EventKind.NEON_DISPATCH,
                instructions=1, source="architectural", op=type(instr).__name__,
            )
        return [event] if event is not None else []

    # ------------------------------------------------------------------
    def run(
        self,
        instrs: list[VInstr],
        regs: list[int],
        memory: MainMemory,
    ) -> list[VMemEvent]:
        """Execute a burst of vector instructions; returns all memory events.

        Used by the DSA's functional-equivalence verification: the burst runs
        against a memory snapshot with a private register file.
        """
        events: list[VMemEvent] = []
        for instr in instrs:
            events.extend(self.execute(instr, regs, memory))
        return events
