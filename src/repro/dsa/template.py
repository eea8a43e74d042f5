"""SIMD instruction generation (paper Section 4.7, Fig. 25).

From one observed iteration window the DSA reconstructs the loop body's
dataflow: memory streams feed operation nodes, operation nodes feed stores.
Everything that never reaches a store value — index increments, address
arithmetic, compares, branches — is loop control and disappears in the
vectorized execution.

The resulting :class:`LoopTemplate` can

* generate the NEON instruction burst that replaces N iterations (for the
  timing model),
* evaluate itself with numpy over an arbitrary iteration set (for the
  functional-equivalence verification the tests run), and
* report the operation counts the energy model charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cpu.trace import TraceRecord
from ..isa.dtypes import DType, bits_to_float, to_s32
from ..isa.instructions import (
    Alu,
    AluKind,
    Branch,
    BranchReg,
    Cmp,
    FloatKind,
    FloatOp,
    Halt,
    Mem,
    Mov,
    Mul,
    MulKind,
    Nop,
)
from ..isa.neon import (
    VBinKind,
    VBinOp,
    VDup,
    VDupImm,
    VInstr,
    VLoad,
    VMla,
    VShiftImm,
    VShiftKind,
    VStore,
    VUnary,
    VUnaryKind,
)
from ..isa.operands import Imm, QReg, Reg, ShiftedReg
from .streams import MemStream

#: scalar ALU kinds with a direct lane-wise NEON equivalent
_VECTORIZABLE_ALU = {
    AluKind.ADD: "add",
    AluKind.SUB: "sub",
    AluKind.RSB: "rsb",
    AluKind.AND: "and",
    AluKind.ORR: "orr",
    AluKind.EOR: "eor",
    AluKind.LSL: "shl",
    AluKind.LSR: "shr",
    AluKind.ASR: "sar",
    AluKind.MIN: "min",
    AluKind.MAX: "max",
}

_FLOAT_OPS = {FloatKind.FADD: "fadd", FloatKind.FSUB: "fsub", FloatKind.FMUL: "fmul"}


class TemplateReject(Exception):
    """The window cannot be turned into a SIMD template; carries the reason."""


@dataclass
class TNode:
    """One dataflow node."""

    kind: str                     # 'load' | 'const' | 'invariant' | 'op'
    op: str | None = None         # operation name for kind == 'op'
    operands: tuple[int, ...] = ()
    value: int | None = None      # for 'const'
    reg: int | None = None        # source register for 'invariant'
    stream_pc: int | None = None  # for 'load'
    shift_amount: int | None = None


@dataclass
class StoreRoot:
    stream_pc: int
    node: int


@dataclass
class LoopTemplate:
    """The vectorizable essence of one loop body path."""

    dtype: DType
    nodes: list[TNode]
    stores: list[StoreRoot]
    load_pcs: list[int]                    # streams consumed as vectors
    invariant_regs: list[int]              # scalar registers broadcast once
    #: *aliases* of the engine's live per-pc streams, not copies.  Readers
    #: must consume only stride facts — the anchor sample ``samples[0]``
    #: and ``gap()``, both tolerant of iteration holes — never the sample
    #: count or per-iteration history: covered execution legitimately
    #: skips sample appends for iterations it proved stride-redundant
    #: (see ``repro.cpu.covered._stride_safe``), so the list is sparse
    #: exactly when the loop ran fastest.
    streams: dict[int, MemStream] = field(default_factory=dict)
    #: geometry of the vector backend the template lowers to — one
    #: register's width and the register-file size; set from
    #: ``backend.width_bytes`` / ``backend.num_regs`` at build time
    #: (defaults are NEON's)
    width_bytes: int = 16
    num_regs: int = 16
    #: the burst decoded for the timing model, built by the engine on first
    #: use and carried along by ``dataclasses.replace``, so every
    #: invocation a DSA-cache entry serves reuses it
    burst_plan: object = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    @property
    def op_count(self) -> int:
        return sum(1 for n in self.nodes if n.kind == "op")

    @property
    def lanes(self) -> int:
        """Iterations one vector register covers at the backend's width."""
        return self.width_bytes // self.dtype.size

    @property
    def result_registers(self) -> int:
        """Q registers needed to hold this template's results (array maps)."""
        return max(1, len(self.stores))

    # ------------------------------------------------------------------
    # NEON burst generation (timing model)
    # ------------------------------------------------------------------
    def burst_program(self) -> tuple[list[VInstr], list[tuple[VInstr, int | None]]]:
        """The burst's shape, independent of addresses and length: the
        prologue broadcasting invariants/constants once, and one vector
        iteration's body as ``(instruction, stream pc or None)`` pairs.

        Every vector iteration reuses the same registers, so the body is
        identical across iterations and a :class:`TemplateReject` (register
        file exhausted, op without a NEON mapping) does not depend on the
        burst's length."""
        qmap: dict[object, int] = {}

        def alloc(key: object) -> int:
            if key not in qmap:
                if len(qmap) >= self.num_regs:
                    raise TemplateReject(
                        "too many operations for the vector register file"
                    )
                qmap[key] = len(qmap)
            return qmap[key]

        prologue: list[VInstr] = []
        for node_id, node in enumerate(self.nodes):
            if node.kind == "invariant":
                prologue.append(VDup(QReg(alloc(("n", node_id))), Reg(node.reg or 0), self.dtype))
            elif node.kind == "const":
                prologue.append(VDupImm(QReg(alloc(("n", node_id))), int(node.value or 0), self.dtype))

        base = Reg(0)  # placeholder base register; addresses are explicit
        body: list[tuple[VInstr, int | None]] = []
        for pc in self.load_pcs:
            q = alloc(("load", pc))
            body.append((VLoad(qd=QReg(q), base=base, dtype=self.streams[pc].dtype), pc))
        for node_id, node in enumerate(self.nodes):
            if node.kind != "op":
                continue
            q = alloc(("n", node_id))
            srcs = [QReg(alloc(self._qkey(i))) for i in node.operands]
            body.append((self._vop(node, QReg(q), srcs), None))
        for root in self.stores:
            q = alloc(self._qkey(root.node))
            dtype = self.streams[root.stream_pc].dtype
            body.append((VStore(qs=QReg(q), base=base, dtype=dtype), root.stream_pc))
        return prologue, body

    def emit_burst(
        self, start_addrs: dict[int, int], quads: int
    ) -> list[tuple[VInstr, int | None]]:
        """Build the (instruction, data-address) burst covering ``quads``
        vector iterations starting at the given per-stream addresses."""
        prologue, body = self.burst_program()
        out: list[tuple[VInstr, int | None]] = [(instr, None) for instr in prologue]
        for k in range(quads):
            offset = k * self.width_bytes
            for instr, pc in body:
                out.append((instr, None if pc is None else start_addrs[pc] + offset))
        return out

    def _qkey(self, node_id: int) -> object:
        node = self.nodes[node_id]
        if node.kind == "load":
            return ("load", node.stream_pc)
        return ("n", node_id)

    def _vop(self, node: TNode, qd: QReg, srcs: list[QReg]) -> VInstr:
        op = node.op
        dt = self.dtype
        if op in ("add", "fadd"):
            return VBinOp(VBinKind.VADD, qd, srcs[0], srcs[1], dt)
        if op in ("sub", "fsub"):
            return VBinOp(VBinKind.VSUB, qd, srcs[0], srcs[1], dt)
        if op == "rsb":
            return VBinOp(VBinKind.VSUB, qd, srcs[1], srcs[0], dt)
        if op in ("mul", "fmul"):
            return VBinOp(VBinKind.VMUL, qd, srcs[0], srcs[1], dt)
        if op == "mla":
            return VMla(qd, srcs[0], srcs[1], dt)
        if op == "and":
            return VBinOp(VBinKind.VAND, qd, srcs[0], srcs[1], dt)
        if op == "orr":
            return VBinOp(VBinKind.VORR, qd, srcs[0], srcs[1], dt)
        if op == "eor":
            return VBinOp(VBinKind.VEOR, qd, srcs[0], srcs[1], dt)
        if op == "min":
            return VBinOp(VBinKind.VMIN, qd, srcs[0], srcs[1], dt)
        if op == "max":
            return VBinOp(VBinKind.VMAX, qd, srcs[0], srcs[1], dt)
        if op in ("shl", "shr", "sar"):
            kind = VShiftKind.VSHL if op == "shl" else VShiftKind.VSHR
            return VShiftImm(kind, qd, srcs[0], int(node.shift_amount or 0), dt)
        if op == "mvn":
            return VUnary(VUnaryKind.VMVN, qd, srcs[0], dt)
        if op == "mov":
            from ..isa.neon import VMovQ

            return VMovQ(qd, srcs[0])
        raise TemplateReject(f"no NEON mapping for op {op!r}")

    # ------------------------------------------------------------------
    # numpy evaluation (functional verification)
    # ------------------------------------------------------------------
    def evaluate(
        self,
        memory_snapshot,
        iterations: np.ndarray,
        invariant_values: dict[int, int],
    ) -> dict[int, np.ndarray]:
        """Evaluate the template over the given iteration indices.

        ``iterations`` holds absolute iteration numbers; each stream's
        address at iteration k is ``first_addr + gap*(k - first_iter)``.
        Returns per-store-stream result arrays (in the store's dtype).
        """
        np_dtype = self.dtype.numpy
        cache: dict[int, np.ndarray] = {}

        def gather(stream: MemStream) -> np.ndarray:
            gap = stream.gap()
            assert gap is not None
            i0, a0 = stream.samples[0]
            addrs = a0 + gap * (iterations - i0)
            if (
                len(addrs) > 1
                and gap == stream.dtype.size
                and np.all(np.diff(iterations) == 1)
                and hasattr(memory_snapshot, "read_block")
            ):
                block = memory_snapshot.read_block(int(addrs[0]), len(addrs), stream.dtype)
                return block.astype(np_dtype)
            values = np.empty(len(addrs), dtype=stream.dtype.numpy)
            for j, addr in enumerate(addrs):
                values[j] = memory_snapshot.read_value(int(addr), stream.dtype)
            return values.astype(np_dtype)

        # Post-order walk on an explicit stack, evaluating operands in the
        # order a recursive walk would.  A recursive closure would be a
        # reference cycle, keeping the snapshot, the streams and every
        # result array alive until the cyclic collector runs.
        nodes = self.nodes
        for root in self.stores:
            stack = [root.node]
            while stack:
                node_id = stack[-1]
                if node_id in cache:
                    stack.pop()
                    continue
                node = nodes[node_id]
                if node.kind == "load":
                    out = gather(self.streams[node.stream_pc])
                elif node.kind == "const":
                    out = np.full(len(iterations), node.value, dtype=np_dtype)
                elif node.kind == "invariant":
                    raw = invariant_values[node.reg or 0]
                    value = bits_to_float(raw) if self.dtype.is_float else to_s32(raw)
                    out = np.full(len(iterations), value, dtype=np_dtype)
                else:
                    pending = [i for i in node.operands if i not in cache]
                    if pending:
                        stack.extend(reversed(pending))
                        continue
                    out = self._eval_op(node, [cache[i] for i in node.operands])
                cache[node_id] = out
                stack.pop()
        return {root.stream_pc: cache[root.node] for root in self.stores}

    def _eval_op(self, node: TNode, srcs: list[np.ndarray]) -> np.ndarray:
        np_dtype = self.dtype.numpy
        with np.errstate(over="ignore", invalid="ignore"):
            if node.op in ("add", "fadd"):
                out = srcs[0] + srcs[1]
            elif node.op in ("sub", "fsub"):
                out = srcs[0] - srcs[1]
            elif node.op == "rsb":
                out = srcs[1] - srcs[0]
            elif node.op in ("mul", "fmul"):
                out = srcs[0] * srcs[1]
            elif node.op == "mla":
                out = srcs[2] + srcs[0] * srcs[1]
            elif node.op == "and":
                out = srcs[0] & srcs[1]
            elif node.op == "orr":
                out = srcs[0] | srcs[1]
            elif node.op == "eor":
                out = srcs[0] ^ srcs[1]
            elif node.op == "min":
                out = np.minimum(srcs[0], srcs[1])
            elif node.op == "max":
                out = np.maximum(srcs[0], srcs[1])
            elif node.op == "shl":
                out = srcs[0] << node.shift_amount
            elif node.op in ("shr", "sar"):
                out = srcs[0] >> node.shift_amount
            elif node.op == "mvn":
                out = ~srcs[0]
            elif node.op == "mov":
                out = srcs[0]
            else:  # pragma: no cover
                raise TemplateReject(f"cannot evaluate op {node.op!r}")
        return out.astype(np_dtype)


# ---------------------------------------------------------------------------
# template construction from an iteration window
# ---------------------------------------------------------------------------
def build_template(
    window: list[TraceRecord],
    streams: dict[int, MemStream],
    width_bytes: int = 16,
    num_regs: int = 16,
) -> LoopTemplate:
    """Reconstruct the loop body dataflow from one iteration's records.

    ``width_bytes``/``num_regs`` describe the vector backend the template
    will lower to (``backend.width_bytes`` / ``backend.num_regs``); the
    lane count per burst register and the register-file budget derive
    from them, so the same window vectorizes at any vector length.

    Raises :class:`TemplateReject` when the body cannot be vectorized:
    carry-around scalars feeding stores, irregular strides, unsupported
    operations, or mixed element widths (paper, Table 1).
    """
    nodes: list[TNode] = []
    reg_node: dict[int, int] = {}       # register -> producing node this iteration
    regs_written: set[int] = set()
    for rec in window:
        for idx, _ in rec.reg_writes:
            regs_written.add(idx)

    carried_leaves: set[int] = set()

    def operand_node(reg_idx: int, rec: TraceRecord) -> int:
        if reg_idx in reg_node:
            return reg_node[reg_idx]
        node_id = len(nodes)
        nodes.append(TNode(kind="invariant", reg=reg_idx))
        if reg_idx in regs_written:
            carried_leaves.add(node_id)
        reg_node[reg_idx] = node_id  # reuse: same leaf for repeated reads
        return node_id

    def const_node(value: int) -> int:
        nodes.append(TNode(kind="const", value=value))
        return len(nodes) - 1

    store_roots: list[StoreRoot] = []
    load_pcs: list[int] = []
    dtypes: set[DType] = set()
    is_float = False

    for rec in window:
        instr = rec.instr
        if isinstance(instr, Mem):
            stream = streams.get(rec.pc)
            if stream is None:
                raise TemplateReject("memory access without a stream")
            if instr.is_load:
                if stream.invariant():
                    # same address every iteration -> scalar broadcast
                    node_id = len(nodes)
                    nodes.append(TNode(kind="invariant", reg=instr.rd.index))
                    reg_node[instr.rd.index] = node_id
                    continue
                if not stream.contiguous():
                    raise TemplateReject("non-contiguous load stream")
                dtypes.add(stream.dtype)
                node_id = len(nodes)
                nodes.append(TNode(kind="load", stream_pc=rec.pc))
                reg_node[instr.rd.index] = node_id
                if rec.pc not in load_pcs:
                    load_pcs.append(rec.pc)
            else:
                if not stream.contiguous():
                    raise TemplateReject("non-contiguous store stream")
                dtypes.add(stream.dtype)
                root = operand_node(instr.rd.index, rec)
                store_roots.append(StoreRoot(stream_pc=rec.pc, node=root))
            # writeback of the base register is loop control: drop mapping
            if instr.addr.writes_back:
                reg_node.pop(instr.addr.base.index, None)
        elif isinstance(instr, Alu):
            node = _alu_node(instr, rec, operand_node, const_node)
            nodes.append(node)
            reg_node[instr.rd.index] = len(nodes) - 1
        elif isinstance(instr, Mov):
            if isinstance(instr.op2, Imm):
                reg_node[instr.rd.index] = const_node(
                    ~instr.op2.value if instr.negate else instr.op2.value
                )
            elif isinstance(instr.op2, Reg):
                src = operand_node(instr.op2.index, rec)
                if instr.negate:
                    nodes.append(TNode(kind="op", op="mvn", operands=(src,)))
                    reg_node[instr.rd.index] = len(nodes) - 1
                else:
                    reg_node[instr.rd.index] = src
            else:
                raise TemplateReject("shifted mov in data flow")
        elif isinstance(instr, Mul):
            if instr.kind in (MulKind.SDIV, MulKind.UDIV):
                nodes.append(TNode(kind="op", op="div", operands=()))
                reg_node[instr.rd.index] = len(nodes) - 1
                continue
            ops = [operand_node(instr.rn.index, rec), operand_node(instr.rm.index, rec)]
            if instr.kind is MulKind.MLA:
                assert instr.ra is not None
                ops.append(operand_node(instr.ra.index, rec))
                nodes.append(TNode(kind="op", op="mla", operands=tuple(ops)))
            else:
                nodes.append(TNode(kind="op", op="mul", operands=tuple(ops)))
            reg_node[instr.rd.index] = len(nodes) - 1
        elif isinstance(instr, FloatOp):
            is_float = True
            if instr.kind not in _FLOAT_OPS:
                nodes.append(TNode(kind="op", op="fdiv", operands=()))
                reg_node[instr.rd.index] = len(nodes) - 1
                continue
            ops = (operand_node(instr.rn.index, rec), operand_node(instr.rm.index, rec))
            nodes.append(TNode(kind="op", op=_FLOAT_OPS[instr.kind], operands=ops))
            reg_node[instr.rd.index] = len(nodes) - 1
        elif isinstance(instr, (Cmp, Branch, BranchReg, Nop, Halt)):
            continue  # loop control / condition evaluation
        else:
            raise TemplateReject(f"unexpected instruction {instr!r}")

    if not store_roots:
        raise TemplateReject("no store reachable (reduction or empty body)")

    # reachability: keep only nodes feeding stores; reject carried leaves
    # and unsupported ops on the live paths
    # (a pre-order walk on an explicit stack: a recursive closure would be
    # a reference cycle holding the window until the cyclic collector runs)
    live: set[int] = set()
    stack = [root.node for root in reversed(store_roots)]
    while stack:
        node_id = stack.pop()
        if node_id not in live:
            live.add(node_id)
            stack.extend(reversed(nodes[node_id].operands))

    for node_id in live:
        node = nodes[node_id]
        if node_id in carried_leaves:
            raise TemplateReject("carry-around scalar feeds a store")
        if node.kind == "op" and node.op in ("div", "fdiv"):
            raise TemplateReject(f"unvectorizable operation {node.op}")

    # prune dead nodes (index increments, compare feeds): rebuild the node
    # list with only store-reachable nodes so burst emission and op counts
    # reflect exactly the vectorized dataflow
    order = sorted(live)
    remap = {old: new for new, old in enumerate(order)}
    pruned: list[TNode] = []
    for old in order:
        node = nodes[old]
        pruned.append(
            TNode(
                kind=node.kind,
                op=node.op,
                operands=tuple(remap[i] for i in node.operands),
                value=node.value,
                reg=node.reg,
                stream_pc=node.stream_pc,
                shift_amount=node.shift_amount,
            )
        )
    nodes = pruned
    store_roots = [StoreRoot(r.stream_pc, remap[r.node]) for r in store_roots]
    live = set(range(len(nodes)))

    live_loads = [pc for pc in load_pcs if any(
        nodes[n].kind == "load" and nodes[n].stream_pc == pc for n in live
    )]

    store_dtypes = {streams[r.stream_pc].dtype for r in store_roots}
    sizes = {dt.size for dt in dtypes | store_dtypes}
    if len(sizes) > 1:
        raise TemplateReject("mixed element widths")
    element = sorted(dtypes | store_dtypes, key=lambda d: (d.size, d.is_signed))[-1]
    if is_float:
        if element.size != 4:
            raise TemplateReject("float ops on non-32-bit elements")
        element = DType.F32

    relevant = {pc: streams[pc] for pc in live_loads}
    relevant.update({r.stream_pc: streams[r.stream_pc] for r in store_roots})
    invariant_regs = sorted(
        {n.reg for i, n in enumerate(nodes) if i in live and n.kind == "invariant" and n.reg is not None}
    )
    return LoopTemplate(
        dtype=element,
        nodes=nodes,
        stores=store_roots,
        load_pcs=live_loads,
        invariant_regs=invariant_regs,
        streams=relevant,
        width_bytes=width_bytes,
        num_regs=num_regs,
    )


def _alu_node(instr: Alu, rec: TraceRecord, operand_node, const_node) -> TNode:
    if instr.kind not in _VECTORIZABLE_ALU:
        return TNode(kind="op", op="div", operands=())  # rejected later if live
    op = _VECTORIZABLE_ALU[instr.kind]
    left = operand_node(instr.rn.index, rec)
    if op in ("shl", "shr", "sar"):
        if not isinstance(instr.op2, Imm):
            return TNode(kind="op", op="div", operands=())  # variable shift
        return TNode(kind="op", op=op, operands=(left,), shift_amount=instr.op2.value)
    if isinstance(instr.op2, Imm):
        right = const_node(instr.op2.value)
    elif isinstance(instr.op2, Reg):
        right = operand_node(instr.op2.index, rec)
    elif isinstance(instr.op2, ShiftedReg):
        base = operand_node(instr.op2.reg.index, rec)
        shift_op = {"lsl": "shl", "lsr": "shr", "asr": "sar"}[instr.op2.kind.value]
        shifted = TNode(kind="op", op=shift_op, operands=(base,), shift_amount=instr.op2.amount)
        # materialise the shifted operand as its own node
        right = -1  # placeholder replaced below
        return _compose_shifted(instr, op, left, shifted, operand_node, const_node)
    else:
        raise TemplateReject("bad ALU operand")
    return TNode(kind="op", op=op, operands=(left, right))


def _compose_shifted(instr, op, left, shifted_node, operand_node, const_node) -> TNode:
    # The caller appends the returned node; we need the shifted operand to
    # be appended first.  Handled by returning a compound marker the caller
    # cannot express — so instead raise and let such loops stay scalar.
    raise TemplateReject("shifted register operand in data flow")
