"""The scalar core: functional execution + timing + retire hooks.

Stands in for the gem5 O3CPU of the paper's methodology.  Every retired
instruction is delivered to the registered retire hooks as a
:class:`TraceRecord` — that is the interface the DSA attaches to (the paper
couples DSA to the fetch stage; retire order equals fetch order here since
the functional model executes in order).

The DSA replaces timing, never function: a registered ``timing_suppressor``
may claim an instruction, in which case the core still executes it
architecturally but charges no cycles and does not touch the cache models
(the DSA charges the equivalent NEON burst instead).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ExecutionError
from ..isa.dtypes import to_u32
from ..isa.instructions import (
    Alu,
    AluKind,
    Branch,
    BranchReg,
    Cmp,
    CmpKind,
    FloatOp,
    Halt,
    Instruction,
    Mem,
    Mov,
    Mul,
    Nop,
)
from ..isa.neon import VInstr
from ..isa.operands import Cond, LR
from ..isa.program import INSTRUCTION_BYTES, Program
from ..memory.backing import MainMemory
from ..memory.hierarchy import MemoryHierarchy
from ..observe.events import EventKind
from .config import CPUConfig, DEFAULT_CPU_CONFIG
from .executor import (
    Flags,
    alu_compute,
    cond_holds,
    effective_address,
    eval_operand2,
    flags_for_add,
    flags_for_logical,
    flags_for_sub,
    float_compute,
    load_to_register,
    mul_compute,
)
from .hotspot import FAILED as _FAILED, HotspotTable
from .predecode import DecodedProgram, predecode
from .timing import TimingModel
from .trace import MemAccess, TraceRecord

RetireHook = Callable[[TraceRecord], None]
TimingSuppressor = Callable[[TraceRecord], bool]


@dataclass
class CoreResult:
    """Summary of one simulation run."""

    cycles: int
    instructions: int
    seconds: float
    halted: bool
    icounts: Counter = field(default_factory=Counter)
    hierarchy_stats: dict = field(default_factory=dict)
    #: instructions retired per execution tier (legacy / fast / traced /
    #: compiled / bulk / covered) — diagnostic only, never serialized into
    #: the canonical RunResult payload
    tier_counts: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """Functional + timing model of the 2-wide superscalar core."""

    def __init__(
        self,
        program: Program,
        memory: MainMemory,
        config: CPUConfig | None = None,
    ):
        from ..vector import get_backend  # local import to avoid a cycle

        self.program = program
        self.memory = memory
        self.config = config or DEFAULT_CPU_CONFIG
        self.hierarchy = MemoryHierarchy(self.config.hierarchy)
        #: the vector execution engine, chosen by CPUConfig.vector_backend —
        #: NEON by default, the scalable (VLA) engine when configured
        self.vector = get_backend(
            self.config.vector_backend, self.config.vector_length
        )
        self.timing = TimingModel(self.config, num_vector_regs=self.vector.num_regs)
        self.regs: list[int] = [0] * 16
        self.flags = Flags()
        self.pc = program.base
        self.halted = False
        self.seq = 0
        self.icounts: Counter = Counter()
        self.retire_hooks: list[RetireHook] = []
        self.timing_suppressor: TimingSuppressor | None = None
        #: optional repro.observe.Observer — run() wraps the whole simulation
        #: in one "core.run" span and emits RUN_BEGIN/RUN_END; never consulted
        #: inside the retire loops, so the traced-vs-fast choice is unchanged
        self.observer = None
        self._decoded: DecodedProgram | None = None  # built lazily on first run()
        self._hotspots: HotspotTable | None = None   # with the decoded image
        #: (iterations, op-index) a faulting compiled block leaves behind so
        #: the dispatch loop can reconstruct the exact architected state
        self._block_fault: tuple[int, int] | None = None
        #: instructions retired per execution tier; every run loop folds its
        #: residency here (see CoreResult.tier_counts)
        self.tier_counts: Counter = Counter()
        #: covered-execution hand-off, installed by DSA.attach when
        #: config.covered_execution: called at every taken backward branch
        #: in the traced loop as cover_hook(head_pc, max_instructions);
        #: truthy means skip traced-block dispatch for this branch — a
        #: record-free covered stretch retired (control is wherever it left
        #: the region) or the hook is holding the loop in the interpreter
        #: while the region's verdict matures
        self.cover_hook: Callable[[int, int], bool] | None = None
        #: loop-boundary crossings of the last covered.run_scalar_region
        #: call (retirements of the region's end branch, either direction)
        self._region_boundaries: int = 0

    @property
    def neon(self):
        """Deprecated alias for :attr:`vector` (pre-backend-redesign name).

        Kept so external scripts keep working; new code should use
        ``core.vector``, which may be any :class:`repro.vector.VectorBackend`.
        """
        return self.vector

    # ------------------------------------------------------------------
    # register convenience (harness-facing)
    # ------------------------------------------------------------------
    def set_reg(self, index: int, value: int) -> None:
        self.regs[index] = to_u32(value)

    def get_reg(self, index: int) -> int:
        return self.regs[index]

    # ------------------------------------------------------------------
    def step(self) -> TraceRecord:
        """Execute and retire one instruction."""
        if self.halted:
            raise ExecutionError("core is halted")
        pc = self.pc
        instr = self.program.instr_at(pc)
        reg_reads = tuple((r.index, self.regs[r.index]) for r in sorted(instr.regs_read(), key=lambda r: r.index))

        next_pc = pc + INSTRUCTION_BYTES
        accesses: list[MemAccess] = []
        branch_taken: bool | None = None
        mispredicted = False
        reads_flags = False
        sets_flags = False

        if isinstance(instr, VInstr):
            events = self.vector.execute(instr, self.regs, self.memory)
            accesses = [MemAccess(e.addr, e.nbytes, e.is_write) for e in events]
        elif isinstance(instr, Alu):
            a = self.regs[instr.rn.index]
            b = eval_operand2(self.regs, instr.op2)
            result = alu_compute(instr.kind, a, b)
            self.regs[instr.rd.index] = result
            if instr.sets_flags:
                sets_flags = True
                if instr.kind is AluKind.ADD:
                    self.flags = flags_for_add(a, b)
                elif instr.kind is AluKind.SUB:
                    self.flags = flags_for_sub(a, b)
                elif instr.kind is AluKind.RSB:
                    self.flags = flags_for_sub(b, a)
                else:
                    self.flags = flags_for_logical(result, self.flags)
        elif isinstance(instr, Mov):
            value = eval_operand2(self.regs, instr.op2)
            self.regs[instr.rd.index] = to_u32(~value) if instr.negate else value
        elif isinstance(instr, Mul):
            ra = self.regs[instr.ra.index] if instr.ra is not None else 0
            self.regs[instr.rd.index] = mul_compute(
                instr.kind, self.regs[instr.rn.index], self.regs[instr.rm.index], ra
            )
        elif isinstance(instr, FloatOp):
            self.regs[instr.rd.index] = float_compute(
                instr.kind, self.regs[instr.rn.index], self.regs[instr.rm.index]
            )
        elif isinstance(instr, Cmp):
            sets_flags = True
            a = self.regs[instr.rn.index]
            b = eval_operand2(self.regs, instr.op2)
            if instr.kind is CmpKind.CMP:
                self.flags = flags_for_sub(a, b)
            elif instr.kind is CmpKind.CMN:
                self.flags = flags_for_add(a, b)
            else:  # TST
                self.flags = flags_for_logical(a & b, self.flags)
        elif isinstance(instr, Mem):
            ea, new_base = effective_address(self.regs, instr.addr)
            if instr.is_store:
                raw = self.regs[instr.rd.index] & ((1 << (instr.dtype.size * 8)) - 1)
                self.memory.write(ea, raw.to_bytes(instr.dtype.size, "little"))
            else:
                value = self.memory.read_value(ea, instr.dtype)
                self.regs[instr.rd.index] = load_to_register(value, instr.dtype)
            if new_base is not None:
                self.regs[instr.addr.base.index] = new_base
            accesses.append(MemAccess(ea, instr.dtype.size, instr.is_store))
        elif isinstance(instr, Branch):
            reads_flags = instr.cond is not Cond.AL
            branch_taken = cond_holds(instr.cond, self.flags)
            assert isinstance(instr.target, int), "program must be assembled"
            # ARM semantics: a conditional instruction whose condition fails
            # retires as a NOP — an untaken BL<cond> must NOT write LR
            if instr.link and branch_taken:
                self.regs[LR] = to_u32(pc + INSTRUCTION_BYTES)
            if branch_taken:
                next_pc = instr.target
            # static BTFN predictor: backward predicted taken, forward not
            predicted_taken = instr.target < pc
            mispredicted = branch_taken != predicted_taken
        elif isinstance(instr, BranchReg):
            branch_taken = True
            next_pc = self.regs[instr.rm.index]
            mispredicted = False  # return-address stack assumed perfect
        elif isinstance(instr, Halt):
            self.halted = True
            next_pc = pc
        elif isinstance(instr, Nop):
            pass
        else:
            raise ExecutionError(f"cannot execute {instr!r}")

        if branch_taken is False and isinstance(instr, Branch) and instr.link:
            # untaken conditional branch-link retired as a NOP: it wrote
            # nothing, so the record must not report a (stale) LR write
            reg_writes: tuple[tuple[int, int], ...] = ()
        else:
            reg_writes = tuple(
                (r.index, self.regs[r.index])
                for r in sorted(instr.regs_written(), key=lambda r: r.index)
            )
        record = TraceRecord(
            self.seq, pc, instr, next_pc, tuple(accesses), branch_taken,
            reg_reads, reg_writes,
        )

        suppressed = bool(self.timing_suppressor and self.timing_suppressor(record))
        if suppressed:
            self.timing.note_suppressed()
        else:
            mem_latency = sum(
                self.hierarchy.access(a.addr, a.nbytes, a.is_write) for a in accesses
            )
            if isinstance(instr, VInstr):
                self.timing.charge_vector(instr, mem_latency)
            else:
                self.timing.charge_scalar(
                    instr,
                    mem_latency=mem_latency,
                    mispredicted=mispredicted,
                    reads_flags=reads_flags,
                    sets_flags=sets_flags,
                )

        self.icounts[type(instr).__name__] += 1
        self.seq += 1
        self.pc = next_pc
        for hook in self.retire_hooks:
            hook(record)
        return record

    # ------------------------------------------------------------------
    def run(self, max_instructions: int = 100_000_000) -> CoreResult:
        """Run until HALT (or the safety limit) and return the summary."""
        if self.seq == 0:
            # A run starting from scratch must not inherit vector-op counters
            # from earlier use of the engine on this core (e.g. a previous
            # completed run, or bursts executed while attaching) — the energy
            # model reads them per run.  Continuations (seq > 0 after a
            # max_instructions cut) keep accumulating, as they must.
            self.vector.stats.reset()
        observer = self.observer
        if observer is None:
            return self._run(max_instructions)
        # Observability wraps the whole run; nothing is consulted per retired
        # instruction, so the traced-vs-fast loop choice stays unchanged.
        if self.config.predecode:
            path = (
                "traced"
                if self.retire_hooks or self.timing_suppressor is not None
                else "fast"
            )
        else:
            path = "legacy"
        observer.emit(EventKind.RUN_BEGIN, path=path)
        span = observer.begin_span("core.run", "cpu", cycle=self.timing.cycles)
        try:
            result = self._run(max_instructions)
        finally:
            observer.end_span(span, cycle=self.timing.cycles, path=path)
        observer.emit(
            EventKind.RUN_END, cycle=result.cycles,
            cycles=result.cycles, instructions=result.instructions, path=path,
        )
        return result

    def _run(self, max_instructions: int) -> CoreResult:
        if self.config.predecode:
            self._run_decoded(max_instructions)
        else:
            s0 = self.seq
            try:
                while not self.halted and self.seq < max_instructions:
                    self.step()
            finally:
                self.tier_counts["legacy"] += self.seq - s0
        if not self.halted:
            raise ExecutionError(
                f"program did not halt within {max_instructions} instructions"
            )
        cycles = self.timing.drain()
        return CoreResult(
            cycles=cycles,
            instructions=self.seq,
            seconds=self.config.seconds(cycles),
            halted=self.halted,
            icounts=self.icounts.copy(),
            hierarchy_stats=self.hierarchy.stats_dict(),
            tier_counts={k: v for k, v in self.tier_counts.items() if v},
        )

    # ------------------------------------------------------------------
    # predecoded run loops (byte-identical to repeated step(); see
    # tests/cpu/test_predecode_identity.py)
    # ------------------------------------------------------------------
    def _run_decoded(self, max_instructions: int) -> None:
        if self._decoded is None:
            self._decoded = predecode(self.program, self.config)
            if self.config.compile_hot:
                self._hotspots = HotspotTable(self._decoded, self.config)
        # Observers force the traced loop: retire hooks consume TraceRecords
        # and a suppressor is *queried* with one per instruction, so both
        # need the full record stream.  With neither attached there is no
        # reader — the fast loop skips record construction entirely.
        # (Attach observers before run(), as every current caller does.)
        if self.retire_hooks or self.timing_suppressor is not None:
            self._run_decoded_traced(self._decoded, max_instructions)
        else:
            self._run_decoded_fast(self._decoded, max_instructions)

    def _run_decoded_fast(self, dec: DecodedProgram, max_instructions: int) -> None:
        """Record-free inner loop: no TraceRecord, no per-step attribute
        traffic; per-op retire counts are aggregated into ``icounts`` on exit
        (legacy counts first-retirement insertion order, this counts program
        order — Counter equality and sorted serialization are unaffected)."""
        if self.halted:
            return
        ops = dec.ops
        base = dec.base
        n = dec.n
        timing = self.timing
        charge_scalar = timing.charge_scalar_decoded
        charge_vector = timing.charge_vector_decoded
        hierarchy_access = self.hierarchy.access
        counts = [0] * len(ops)
        hot = self._hotspots
        tier = self.tier_counts
        seq = self.seq
        seq0 = seq
        blk_ops = 0            # retired inside compiled blocks (incl. bulk)
        b0 = tier["bulk"]      # bulk batches bump their tier directly
        pc = self.pc
        idx = (pc - base) >> 2
        try:
            while seq < max_instructions:
                # same validity rule as Program.contains(): in range + aligned
                if idx < 0 or idx > n or pc != base + (idx << 2):
                    raise ExecutionError(
                        f"address 0x{pc:x} is not inside the text segment"
                    )
                op = ops[idx]  # ops[n] is the sentinel: raises the same error
                result = op.execute(self)
                counts[idx] += 1
                seq += 1
                if result is None:
                    # simple sequential scalar op (no memory, no branch)
                    charge_scalar(op)
                    idx += 1
                    pc += INSTRUCTION_BYTES
                    continue
                next_pc, accesses, branch_taken, mispredicted = result
                mem_latency = 0
                for a in accesses:
                    mem_latency += hierarchy_access(a.addr, a.nbytes, a.is_write)
                if op.is_vector:
                    charge_vector(op, mem_latency)
                else:
                    charge_scalar(op, mem_latency, mispredicted)
                pc = next_pc
                if self.halted:
                    break
                if branch_taken is None:
                    idx += 1
                    continue
                new_idx = (pc - base) >> 2
                # trace-compiled tier: a taken backward branch is a loop
                # head candidate — count it, and once a compiled block
                # exists run whole iterations through it
                if (
                    hot is not None
                    and branch_taken
                    and pc < op.pc
                    and new_idx >= 0
                    and pc == base + (new_idx << 2)
                ):
                    blk = hot.fast[new_idx]
                    if blk is None:
                        blk = hot.lookup_fast(new_idx)
                    elif blk is _FAILED:
                        blk = None
                    if blk is not None and seq + blk.n_ops <= max_instructions:
                        s_blk = seq
                        try:
                            seq, taken, iters = blk.run(self, seq, max_instructions)
                        except BaseException:
                            # reconstruct the exact architected position of
                            # the faulting op (not retired, like the
                            # interpreted loops)
                            f_iters, f_k = self._block_fault
                            d = f_iters * blk.n_ops + f_k
                            seq += d
                            blk_ops += d
                            pc = blk.head_pc + (f_k << 2)
                            h0 = blk.head_idx
                            for j in range(blk.n_ops):
                                c = f_iters + 1 if j < f_k else f_iters
                                if c:
                                    counts[h0 + j] += c
                            raise
                        blk_ops += seq - s_blk
                        if iters:
                            h0 = blk.head_idx
                            for j in range(blk.n_ops):
                                counts[h0 + j] += iters
                        if taken:
                            idx = blk.head_idx
                        else:
                            idx = blk.exit_idx
                            pc = blk.exit_pc
                        continue
                idx = new_idx
        finally:
            # exceptions (bad fetch, memory fault) leave the same architected
            # state the legacy loop would: the faulting op not yet retired
            self.seq = seq
            self.pc = pc
            icounts = self.icounts
            for i in range(n):
                c = counts[i]
                if c:
                    icounts[ops[i].kind_name] += c
            bulk_d = tier["bulk"] - b0
            tier["compiled"] += blk_ops - bulk_d
            tier["fast"] += (seq - seq0) - blk_ops

    def _run_decoded_traced(self, dec: DecodedProgram, max_instructions: int) -> None:
        """Full-fidelity loop: builds every TraceRecord and drives the
        suppressor and retire hooks exactly like step(), but executes through
        the predecoded closures and precomputed register metadata."""
        hot = self._hotspots if self.config.compile_traced else None
        tier = self.tier_counts
        seq0 = self.seq
        # the other tiers fold their own residency; traced is the residual
        c0 = tier["compiled"] + tier["bulk"] + tier["covered"]
        try:
            self._traced_loop(dec, max_instructions, hot)
        finally:
            other = tier["compiled"] + tier["bulk"] + tier["covered"] - c0
            tier["traced"] += (self.seq - seq0) - other

    def _traced_loop(self, dec: DecodedProgram, max_instructions: int, hot) -> None:
        ops = dec.ops
        base = dec.base
        n = dec.n
        regs = self.regs
        timing = self.timing
        charge_scalar = timing.charge_scalar_decoded
        charge_vector = timing.charge_vector_decoded
        hierarchy_access = self.hierarchy.access
        icounts = self.icounts
        tier = self.tier_counts
        while not self.halted and self.seq < max_instructions:
            pc = self.pc
            idx = (pc - base) >> 2
            if idx < 0 or idx > n or pc != base + (idx << 2):
                raise ExecutionError(f"address 0x{pc:x} is not inside the text segment")
            op = ops[idx]  # ops[n] is the sentinel: raises the same error
            # one- and two-register reads/writes cover nearly every op; an
            # explicit tuple costs a fraction of a generator per record
            ridx = op.read_idx
            if not ridx:
                reg_reads = ()
            elif len(ridx) == 1:
                i = ridx[0]
                reg_reads = ((i, regs[i]),)
            elif len(ridx) == 2:
                i, j = ridx
                reg_reads = ((i, regs[i]), (j, regs[j]))
            else:
                reg_reads = tuple([(i, regs[i]) for i in ridx])
            result = op.execute(self)
            if result is None:
                next_pc = pc + INSTRUCTION_BYTES
                accesses: tuple[MemAccess, ...] = ()
                branch_taken = None
                mispredicted = False
            else:
                next_pc, accesses, branch_taken, mispredicted = result
            widx = op.write_idx
            if not widx or (branch_taken is False and op.cond_link):
                # an untaken BL<cond> retired as a NOP: no (stale) LR write
                reg_writes = ()
            elif len(widx) == 1:
                i = widx[0]
                reg_writes = ((i, regs[i]),)
            elif len(widx) == 2:
                i, j = widx
                reg_writes = ((i, regs[i]), (j, regs[j]))
            else:
                reg_writes = tuple([(i, regs[i]) for i in widx])
            record = TraceRecord(
                self.seq, pc, op.instr, next_pc, accesses, branch_taken,
                reg_reads, reg_writes,
            )
            suppressor = self.timing_suppressor
            if suppressor is not None and suppressor(record):
                timing.note_suppressed()
            else:
                mem_latency = 0
                for a in accesses:
                    mem_latency += hierarchy_access(a.addr, a.nbytes, a.is_write)
                if op.is_vector:
                    charge_vector(op, mem_latency)
                else:
                    charge_scalar(op, mem_latency, mispredicted)
            icounts[op.kind_name] += 1
            self.seq += 1
            self.pc = next_pc
            for hook in self.retire_hooks:
                hook(record)
            # a taken backward branch the hooks left alone is the hand-off
            # point for the record-free tiers: first offer the region to
            # covered execution (the DSA bulk-folds its own bookkeeping),
            # else run whole iterations through the trace-compiled block
            # (records still delivered one per instruction)
            if (
                branch_taken
                and next_pc < pc
                and not self.halted
                and self.pc == next_pc
            ):
                cover = self.cover_hook
                if cover is not None and cover(next_pc, max_instructions):
                    continue
                if hot is None:
                    continue
                new_idx = (next_pc - base) >> 2
                if new_idx >= 0 and next_pc == base + (new_idx << 2):
                    blk = hot.traced[new_idx]
                    if blk is None:
                        blk = hot.lookup_traced(new_idx)
                    elif blk is _FAILED:
                        blk = None
                    if blk is not None:
                        s_blk = self.seq
                        try:
                            blk.run(self, max_instructions)
                        finally:
                            tier["compiled"] += self.seq - s_blk


def run_program(
    program: Program,
    memory: MainMemory,
    regs: dict[int, int] | None = None,
    config: CPUConfig | None = None,
    max_instructions: int = 100_000_000,
) -> CoreResult:
    """Convenience one-shot runner used by tests and examples."""
    core = Core(program, memory, config=config)
    for index, value in (regs or {}).items():
        core.set_reg(index, value)
    return core.run(max_instructions=max_instructions)
