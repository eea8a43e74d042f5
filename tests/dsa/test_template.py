"""Unit tests for template construction, burst emission, and numpy eval.

The windows are produced by running small assembly loops on the core and
capturing the retire records — the same inputs the DSA sees.
"""

import numpy as np
import pytest

from repro.isa import DType, assemble
from repro.memory import Allocator, MainMemory
from repro.cpu import Core, TraceBuffer
from repro.dsa import MemStream, TemplateReject, build_template
from repro.dsa.snapshot import RegionSnapshot


def window_and_streams(source, setup, iterations=(2, 3)):
    """Run a loop and return (iteration-2 window, streams built from both)."""
    program = assemble(source)
    memory = MainMemory(1 << 20)
    alloc = Allocator(memory)
    regs = setup(memory, alloc)
    core = Core(program, memory)
    for idx, val in regs.items():
        core.set_reg(idx, val)
    buf = TraceBuffer()
    core.retire_hooks.append(buf)
    core.run()

    # split records into iterations at the backward branch
    loop_pc = program.addr_of("loop")
    iters: list[list] = [[]]
    for rec in buf.records:
        if rec.pc < loop_pc:
            continue
        iters[-1].append(rec)
        if rec.is_backward_branch:
            iters.append([])
    streams: dict[int, MemStream] = {}
    for it_no in iterations:
        for rec in iters[it_no - 1]:
            if rec.accesses:
                access = rec.accesses[0]
                s = streams.setdefault(
                    rec.pc,
                    MemStream(pc=rec.pc, is_write=access.is_write, dtype=rec.instr.dtype),
                )
                s.add_sample(it_no, access.addr)
    return iters[iterations[0] - 1], streams, memory, core


VECSUM = """
    mov r3, #0
loop:
    ldr r4, [r0, r3, lsl #2]
    ldr r5, [r1, r3, lsl #2]
    add r4, r4, r5
    str r4, [r2, r3, lsl #2]
    add r3, r3, #1
    cmp r3, #16
    blt loop
    halt
"""


def vecsum_setup(memory, alloc):
    a = alloc.alloc_array(np.arange(16, dtype=np.int32))
    b = alloc.alloc_array(np.arange(16, dtype=np.int32) * 2)
    out = alloc.alloc_zeros(DType.I32, 16)
    return {0: a, 1: b, 2: out}


class TestBuildTemplate:
    def test_vecsum_shape(self):
        window, streams, _, _ = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        assert t.dtype is DType.I32
        assert len(t.load_pcs) == 2
        assert len(t.stores) == 1
        assert t.op_count == 1  # just the add; index arithmetic dropped

    def test_loop_control_not_in_dataflow(self):
        window, streams, _, _ = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        # the induction add (add r3, r3, #1) must not appear as a live op
        live_ops = [n for n in t.nodes if n.kind == "op"]
        assert len(live_ops) >= 1
        assert t.op_count == 1

    def test_invariant_scalar_becomes_broadcast(self):
        src = """
            mov r3, #0
        loop:
            ldr r4, [r0, r3, lsl #2]
            mul r4, r4, r6
            str r4, [r2, r3, lsl #2]
            add r3, r3, #1
            cmp r3, #16
            blt loop
            halt
        """

        def setup(memory, alloc):
            a = alloc.alloc_array(np.arange(16, dtype=np.int32))
            out = alloc.alloc_zeros(DType.I32, 16)
            return {0: a, 2: out, 6: 7}

        window, streams, _, _ = window_and_streams(src, setup)
        t = build_template(window, streams)
        assert 6 in t.invariant_regs

    def test_reduction_rejected(self):
        src = """
            mov r3, #0
            mov r5, #0
        loop:
            ldr r4, [r0, r3, lsl #2]
            add r5, r5, r4
            add r3, r3, #1
            cmp r3, #16
            blt loop
            str r5, [r2]
            halt
        """

        def setup(memory, alloc):
            a = alloc.alloc_array(np.arange(16, dtype=np.int32))
            out = alloc.alloc_zeros(DType.I32, 1)
            return {0: a, 2: out}

        window, streams, _, _ = window_and_streams(src, setup)
        with pytest.raises(TemplateReject, match="no store"):
            build_template(window, streams)

    def test_carried_scalar_feeding_store_rejected(self):
        src = """
            mov r3, #0
            mov r5, #0
        loop:
            add r5, r5, #1
            str r5, [r2, r3, lsl #2]
            add r3, r3, #1
            cmp r3, #16
            blt loop
            halt
        """

        def setup(memory, alloc):
            out = alloc.alloc_zeros(DType.I32, 16)
            return {2: out}

        window, streams, _, _ = window_and_streams(src, setup)
        with pytest.raises(TemplateReject, match="carry-around"):
            build_template(window, streams)

    def test_division_rejected(self):
        src = """
            mov r3, #0
        loop:
            ldr r4, [r0, r3, lsl #2]
            sdiv r4, r4, r6
            str r4, [r2, r3, lsl #2]
            add r3, r3, #1
            cmp r3, #16
            blt loop
            halt
        """

        def setup(memory, alloc):
            a = alloc.alloc_array(np.arange(16, dtype=np.int32))
            out = alloc.alloc_zeros(DType.I32, 16)
            return {0: a, 2: out, 6: 2}

        window, streams, _, _ = window_and_streams(src, setup)
        with pytest.raises(TemplateReject, match="unvectorizable"):
            build_template(window, streams)

    def test_strided_access_rejected(self):
        src = """
            mov r3, #0
        loop:
            ldr r4, [r0, r3, lsl #2]
            str r4, [r2, r3, lsl #2]
            add r3, r3, #2
            cmp r3, #32
            blt loop
            halt
        """

        def setup(memory, alloc):
            a = alloc.alloc_array(np.arange(32, dtype=np.int32))
            out = alloc.alloc_zeros(DType.I32, 32)
            return {0: a, 2: out}

        window, streams, _, _ = window_and_streams(src, setup)
        with pytest.raises(TemplateReject, match="contiguous"):
            build_template(window, streams)

    def test_mixed_widths_rejected(self):
        src = """
            mov r3, #0
        loop:
            ldr r4, [r0, r3, lsl #2]
            strh r4, [r2, r3]
            add r3, r3, #1
            cmp r3, #16
            blt loop
            halt
        """

        def setup(memory, alloc):
            a = alloc.alloc_array(np.arange(16, dtype=np.int32))
            out = alloc.alloc_zeros(DType.I16, 16)
            return {0: a, 2: out}

        window, streams, _, _ = window_and_streams(src, setup)
        # note: strh walks 2-byte elements while ldr walks 4-byte ones; the
        # store stride (2) mismatches its element size check first or the
        # width check fires — either way the template is rejected
        with pytest.raises(TemplateReject):
            build_template(window, streams)


class TestBurstEmission:
    def test_burst_covers_quads(self):
        window, streams, _, _ = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        start = {pc: s.first_addr for pc, s in t.streams.items()}
        burst = t.emit_burst(start, quads=3)
        loads = [b for b in burst if b[0].is_load]
        stores = [b for b in burst if b[0].is_store]
        assert len(loads) == 6 and len(stores) == 3
        # addresses advance 16 bytes per quad
        assert loads[2][1] == loads[0][1] + 16

    def test_burst_instructions_execute_on_engine(self):
        """The emitted burst is real NEON code: executing it against a
        memory snapshot reproduces the scalar results."""
        from repro.vector import get_backend

        window, streams, memory, core = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        # rebuild pre-loop memory: the source arrays are untouched, out was
        # zeroed, so a fresh memory with the same inputs works
        engine = get_backend("neon")
        snapshot = memory.clone()
        # zero the out region (it currently holds the scalar results)
        out_stream = t.streams[t.stores[0].stream_pc]
        for it, addr in out_stream.samples:
            pass
        start = {pc: s.addr_at(2) for pc, s in t.streams.items()}
        for addr in [start[t.stores[0].stream_pc] + i * 4 for i in range(15)]:
            snapshot.write_value(addr, 0, DType.I32)
        burst = t.emit_burst(start, quads=3)
        regs = [0] * 16
        for instr, addr in burst:
            if addr is not None:
                regs[0] = addr
            engine.execute(instr, regs, snapshot)
        got = snapshot.read_array(start[t.stores[0].stream_pc], DType.I32, 12)
        expect = memory.read_array(start[t.stores[0].stream_pc], DType.I32, 12)
        np.testing.assert_array_equal(got, expect)


class TestNumpyEvaluation:
    def test_matches_scalar_execution(self):
        window, streams, memory, core = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        snap = RegionSnapshot()
        for pc, s in t.streams.items():
            snap.capture(memory, s.first_addr - 16, 16 * 18)
        iters = np.arange(2, 17)
        results = t.evaluate(snap, iters, dict(enumerate(core.regs)))
        store_pc = t.stores[0].stream_pc
        out_stream = t.streams[store_pc]
        for k, it in enumerate(iters):
            addr = out_stream.addr_at(int(it))
            assert memory.read_value(addr, DType.I32) == results[store_pc][k]

    def test_result_registers_counts_stores(self):
        window, streams, _, _ = window_and_streams(VECSUM, vecsum_setup)
        t = build_template(window, streams)
        assert t.result_registers == 1


class TestNoReferenceCycles:
    """Template construction and evaluation leave no reference cycles: a
    cycle would keep every verification's snapshot, streams and result
    arrays alive until the cyclic collector runs, and so set peak RSS."""

    def test_dsa_cell_leaves_no_verification_garbage(self):
        import gc

        from repro.dsa.template import LoopTemplate
        from repro.systems.campaign import RunSpec, execute_spec

        spec = RunSpec("matmul", "neon_dsa", "full", "test", None)
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            result = execute_spec(spec)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [
                type(o).__name__
                for o in gc.garbage
                if isinstance(o, (RegionSnapshot, LoopTemplate, MemStream))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert result.dsa_stats.verifications > 0, "the cell must verify regions"
        assert leaked == []
