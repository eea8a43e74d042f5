"""What the vector engine reports: op counters and data-memory events.

The engine (:class:`repro.vector.scalable.ScalableEngine`) is a
*functional* model; timing never lives in it.  Each executed instruction
returns the :class:`VMemEvent` records it performed, for the timing model
and the cache hierarchy, and bumps the :class:`VectorStats` counters the
energy model reads.
"""

from __future__ import annotations

from dataclasses import dataclass

#: vector lengths (bits) the engine may be configured with
VALID_VECTOR_LENGTHS = (128, 256, 512, 1024)


@dataclass
class VectorStats:
    """Operation counters for the energy model."""

    arith_ops: int = 0
    mem_ops: int = 0
    lane_ops: int = 0
    bytes_loaded: int = 0
    bytes_stored: int = 0

    def reset(self) -> None:
        self.arith_ops = self.mem_ops = self.lane_ops = 0
        self.bytes_loaded = self.bytes_stored = 0


@dataclass(frozen=True, slots=True)
class VMemEvent:
    """A data-memory access performed by a vector instruction."""

    addr: int
    nbytes: int
    is_write: bool


__all__ = ["VALID_VECTOR_LENGTHS", "VectorStats", "VMemEvent"]
