"""Retired-instruction records — the stream the DSA observes.

The paper couples the DSA to the O3CPU fetch stage (Methodology, Fig. 31);
in the trace-driven model every retired instruction is delivered to the DSA
as a :class:`TraceRecord` carrying exactly what the hardware would see: the
PC, the decoded instruction, effective memory addresses, branch outcome, and
the values read from the register file.

Records are read-only by contract: nothing assigns to a field once a
record is built.  They are not frozen dataclasses because a frozen
``__init__`` sets each field through ``object.__setattr__``, which makes
every record several times dearer to build; the interpreter loops build
one per traced instruction, positionally, in the field order below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import Instruction


@dataclass(slots=True)
class MemAccess:
    """One data-memory access performed by an instruction."""

    addr: int
    nbytes: int
    is_write: bool


@dataclass(slots=True)
class TraceRecord:
    """One retired instruction (read-only by contract; see the module doc).

    The field order is part of the interface: ``Core.step``,
    ``Core._traced_loop`` and the traced compiled blocks all build
    records positionally.
    """

    seq: int
    pc: int
    instr: Instruction
    next_pc: int
    accesses: tuple[MemAccess, ...] = ()
    branch_taken: bool | None = None
    reg_reads: tuple[tuple[int, int], ...] = ()   # (register index, value)
    reg_writes: tuple[tuple[int, int], ...] = ()  # (register index, new value)

    @property
    def is_backward_branch(self) -> bool:
        return bool(self.branch_taken) and self.next_pc < self.pc

    def read_value(self, reg_index: int) -> int | None:
        for idx, value in self.reg_reads:
            if idx == reg_index:
                return value
        return None

    def written_value(self, reg_index: int) -> int | None:
        for idx, value in self.reg_writes:
            if idx == reg_index:
                return value
        return None


@dataclass
class TraceBuffer:
    """Optional in-memory trace sink (used by tests and the examples)."""

    records: list[TraceRecord] = field(default_factory=list)
    capacity: int | None = None

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)
        if self.capacity is not None and len(self.records) > self.capacity:
            self.records.pop(0)

    def __len__(self) -> int:
        return len(self.records)

    def pcs(self) -> list[int]:
        return [r.pc for r in self.records]
