"""Element data types understood by the scalar core and the vector engine.

The NEON engine is 128 bits wide; the number of lanes available for a SIMD
operation therefore depends only on the element width (paper, Conceptual
Analysis Fig. 4 and Article 1 Fig. 11):

=========  =====  =============
data type  bits   lanes / 128b
=========  =====  =============
i8 / u8       8   16
i16 / u16    16    8
i32 / u32    32    4
i64 / u64    64    2
f32          32    4
=========  =====  =============

The 128-bit width is a property of the ``neon`` backend, not the ISA:
the vector engine at a wider VL widens its registers to VL/8 bytes and
derives its lane counts from :meth:`repro.vector.ScalableEngine.lanes_for`.
``DType.lanes`` and the module constants below keep describing the
fixed 128-bit NEON geometry for the static binaries.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

NEON_WIDTH_BITS = 128
#: .. deprecated:: use ``backend.width_bytes`` (``repro.vector``) in code that
#:    must work on any vector backend; this constant is only correct for NEON.
NEON_WIDTH_BYTES = NEON_WIDTH_BITS // 8


def _make_unpacker(bits: int, is_float: bool, is_signed: bool):
    """A precompiled little-endian reader for one element type."""
    if is_float:
        unpack_f32 = struct.Struct("<f").unpack_from
        return lambda buffer, offset=0: unpack_f32(buffer, offset)[0]
    fmt = {8: "B", 16: "H", 32: "I", 64: "Q"}[bits]
    unpack_uint = struct.Struct("<" + fmt).unpack_from
    if not is_signed:
        return lambda buffer, offset=0: unpack_uint(buffer, offset)[0]
    sign_bit = 1 << (bits - 1)
    wrap = 1 << bits

    def unpack_signed(buffer, offset=0):
        v = unpack_uint(buffer, offset)[0]
        return v - wrap if v >= sign_bit else v

    return unpack_signed


class DType(Enum):
    """An element type, named after the NEON instruction suffixes."""

    I8 = "i8"
    U8 = "u8"
    I16 = "i16"
    U16 = "u16"
    I32 = "i32"
    U32 = "u32"
    I64 = "i64"
    U64 = "u64"
    F32 = "f32"

    # ------------------------------------------------------------------
    # basic geometry: static per-member facts, computed once here because
    # the interpreter and the vector engine read them on every instruction
    # ------------------------------------------------------------------
    def __init__(self, suffix: str) -> None:
        #: element width in bits
        self.bits: int = int(suffix[1:])
        #: element size in bytes
        self.size: int = self.bits // 8
        #: how many elements fit in one 128-bit NEON register
        self.lanes: int = NEON_WIDTH_BYTES // self.size
        self.is_float: bool = suffix[0] == "f"
        self.is_signed: bool = suffix[0] in ("i", "f")
        self.numpy: np.dtype = np.dtype(f"{suffix[0]}{self.size}")  # e.g. "i4"
        #: ``unpack_from(buffer, offset=0)``: like :meth:`unpack` but straight
        #: out of a buffer, with no intermediate ``bytes`` copy — the memory
        #: model's hot read path
        self.unpack_from = _make_unpacker(self.bits, self.is_float, self.is_signed)

    # ------------------------------------------------------------------
    # scalar conversions
    # ------------------------------------------------------------------
    def wrap(self, value: int | float) -> int | float:
        """Wrap a Python number to this type's range (two's complement)."""
        if self.is_float:
            return float(np.float32(value))
        mask = (1 << self.bits) - 1
        v = int(value) & mask
        if self.is_signed and v >= (1 << (self.bits - 1)):
            v -= 1 << self.bits
        return v

    def min_value(self) -> int:
        if self.is_float:
            raise ValueError("min_value is only defined for integer types")
        return -(1 << (self.bits - 1)) if self.is_signed else 0

    def max_value(self) -> int:
        if self.is_float:
            raise ValueError("max_value is only defined for integer types")
        return (1 << (self.bits - 1)) - 1 if self.is_signed else (1 << self.bits) - 1

    # ------------------------------------------------------------------
    # byte-level conversions (little endian, like ARMv7)
    # ------------------------------------------------------------------
    def pack(self, value: int | float) -> bytes:
        if self.is_float:
            return struct.pack("<f", float(value))
        fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[self.size]
        unsigned = int(value) & ((1 << self.bits) - 1)
        return struct.pack("<" + fmt, unsigned)

    def unpack(self, raw: bytes) -> int | float:
        if len(raw) != self.size:
            raise ValueError(f"expected {self.size} bytes for {self.value}, got {len(raw)}")
        if self.is_float:
            return struct.unpack("<f", raw)[0]
        fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}[self.size]
        return self.wrap(struct.unpack("<" + fmt, raw)[0])

    @classmethod
    def from_suffix(cls, suffix: str) -> "DType":
        """Parse an instruction suffix such as ``i32`` or ``f32``."""
        try:
            return cls(suffix.lower())
        except ValueError:
            raise ValueError(f"unknown dtype suffix {suffix!r}") from None

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class LaneLayout:
    """Geometry of a 128-bit vector split into lanes of one :class:`DType`."""

    dtype: DType

    @property
    def lanes(self) -> int:
        return self.dtype.lanes

    @property
    def lane_bytes(self) -> int:
        return self.dtype.size

    def lane_slice(self, lane: int) -> slice:
        """Byte slice of one lane inside a 16-byte register image."""
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} out of range for {self.dtype}")
        return slice(lane * self.lane_bytes, (lane + 1) * self.lane_bytes)


#: 32-bit register arithmetic helpers -------------------------------------
WORD_MASK = 0xFFFFFFFF


def to_u32(value: int) -> int:
    """Interpret a Python int as an unsigned 32-bit register value."""
    return value & WORD_MASK


def to_s32(value: int) -> int:
    """Interpret a Python int as a signed 32-bit register value."""
    v = value & WORD_MASK
    return v - (1 << 32) if v >= (1 << 31) else v


def float_to_bits(value: float) -> int:
    """Reinterpret a float32 as its 32-bit pattern (for scalar registers)."""
    return struct.unpack("<I", struct.pack("<f", float(np.float32(value))))[0]


def bits_to_float(bits: int) -> float:
    """Reinterpret a 32-bit register pattern as a float32 value."""
    return struct.unpack("<f", struct.pack("<I", bits & WORD_MASK))[0]
