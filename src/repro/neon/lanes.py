"""Functional lane math for vector register images of any width.

A register image is a numpy ``uint8`` array — 16 bytes for NEON Q
registers, wider for scalable-vector registers; operations reinterpret
it as lanes of the requested :class:`DType`, with silent wraparound on
integer overflow — exactly what the hardware does.  Every operation here
is width-agnostic: the lane count falls out of ``image.nbytes``, so the
same kernels serve both the NEON and the scalable backend.
"""

from __future__ import annotations

import numpy as np

from ..isa.dtypes import DType, NEON_WIDTH_BYTES
from ..isa.neon import VBinKind, VCmpKind, VUnaryKind


def zero_register(width_bytes: int = NEON_WIDTH_BYTES) -> np.ndarray:
    return np.zeros(width_bytes, dtype=np.uint8)


def view(image: np.ndarray, dtype: DType) -> np.ndarray:
    """Reinterpret a register image as lanes of ``dtype`` (shares storage)."""
    if image.nbytes == 0 or image.nbytes % dtype.size != 0:
        raise ValueError(
            f"register image of {image.nbytes} bytes cannot hold {dtype} lanes"
        )
    return image.view(dtype.numpy)


def from_lanes(values, dtype: DType, lanes: int | None = None) -> np.ndarray:
    """Build a register image from per-lane values (wrapped to the type).

    ``lanes`` defaults to the 128-bit NEON lane count; scalable-vector
    callers pass ``backend.lanes_for(dtype)``.
    """
    expected = dtype.lanes if lanes is None else lanes
    if dtype.is_float:
        arr = np.array(values, dtype=dtype.numpy)
    else:
        # wrapped lane by lane in Python and built in the target dtype:
        # np.asarray reads a list mixing u64 values past 2**63 with
        # smaller ones as float64, which loses low bits
        arr = np.array([dtype.wrap(v) for v in values], dtype=dtype.numpy)
    if arr.size != expected:
        raise ValueError(f"{dtype} needs {expected} lanes, got {arr.size}")
    return arr.view(np.uint8)


def broadcast(value: int | float, dtype: DType, lanes: int | None = None) -> np.ndarray:
    """Register image with ``value`` in every lane (vdup semantics)."""
    n = dtype.lanes if lanes is None else lanes
    return np.full(n, dtype.wrap(value), dtype=dtype.numpy).view(np.uint8)


def _arith(kind: VBinKind, va: np.ndarray, vb: np.ndarray) -> np.ndarray:
    if kind is VBinKind.VADD:
        return va + vb
    if kind is VBinKind.VSUB:
        return va - vb
    if kind is VBinKind.VMUL:
        return va * vb
    if kind is VBinKind.VMIN:
        return np.minimum(va, vb)
    if kind is VBinKind.VMAX:
        return np.maximum(va, vb)
    raise ValueError(f"bad vector binop kind: {kind!r}")


def _abs_neg(kind: VUnaryKind, va: np.ndarray) -> np.ndarray:
    if kind is VUnaryKind.VABS:
        return np.abs(va)
    if kind is VUnaryKind.VNEG:
        return -va
    raise ValueError(f"bad vector unary kind: {kind!r}")


# Integer array arithmetic wraps without setting any FP flag, so only float
# lanes (overflow to inf, inf - inf) need the quiet error state.
def binop(kind: VBinKind, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """Lane-wise binary operation; returns a fresh image of the same width."""
    if kind is VBinKind.VAND:
        return a.view(np.uint8) & b.view(np.uint8)
    if kind is VBinKind.VORR:
        return a.view(np.uint8) | b.view(np.uint8)
    if kind is VBinKind.VEOR:
        return a.view(np.uint8) ^ b.view(np.uint8)
    va, vb = view(a, dtype), view(b, dtype)
    if dtype.is_float:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _arith(kind, va, vb)
    else:
        out = _arith(kind, va, vb)
    return out.astype(dtype.numpy).view(np.uint8).copy()


def mla(acc: np.ndarray, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """acc + a*b, lane-wise."""
    vacc, va, vb = view(acc, dtype), view(a, dtype), view(b, dtype)
    if dtype.is_float:
        with np.errstate(over="ignore", invalid="ignore"):
            out = vacc + va * vb
    else:
        out = vacc + va * vb
    return out.astype(dtype.numpy).view(np.uint8).copy()


def unary(kind: VUnaryKind, a: np.ndarray, dtype: DType) -> np.ndarray:
    if kind is VUnaryKind.VMVN:
        return ~a.view(np.uint8)
    va = view(a, dtype)
    if dtype.is_float:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _abs_neg(kind, va)
    else:
        out = _abs_neg(kind, va)
    return out.astype(dtype.numpy).view(np.uint8).copy()


def shift(left: bool, a: np.ndarray, amount: int, dtype: DType) -> np.ndarray:
    """Lane-wise shift by immediate (arithmetic right for signed types)."""
    if dtype.is_float:
        raise ValueError("cannot shift float lanes")
    va = view(a, dtype)
    out = (va << amount) if left else (va >> amount)
    return out.astype(dtype.numpy).view(np.uint8).copy()


def compare(kind: VCmpKind, a: np.ndarray, b: np.ndarray, dtype: DType) -> np.ndarray:
    """Lane-wise compare producing an all-ones / all-zeros mask per lane."""
    va, vb = view(a, dtype), view(b, dtype)
    if kind is VCmpKind.VCEQ:
        cond = va == vb
    elif kind is VCmpKind.VCGT:
        cond = va > vb
    elif kind is VCmpKind.VCGE:
        cond = va >= vb
    elif kind is VCmpKind.VCLT:
        cond = va < vb
    elif kind is VCmpKind.VCLE:
        cond = va <= vb
    else:
        raise ValueError(f"bad vector compare kind: {kind!r}")
    mask_dtype = np.dtype(f"u{dtype.size}")
    ones = np.iinfo(mask_dtype).max
    mask = np.where(cond, ones, 0).astype(mask_dtype)
    return mask.view(np.uint8).copy()


def bitwise_select(mask: np.ndarray, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """VBSL: per-bit, take ``n`` where mask is 1 and ``m`` where it is 0."""
    md = mask.view(np.uint8)
    return ((md & n.view(np.uint8)) | (~md & m.view(np.uint8))).copy()


def lane_get(a: np.ndarray, lane: int, dtype: DType) -> int | float:
    value = view(a, dtype)[lane]
    return float(value) if dtype.is_float else int(value)


def lane_set(a: np.ndarray, lane: int, value: int | float, dtype: DType) -> np.ndarray:
    out = a.copy()
    view(out, dtype)[lane] = dtype.wrap(value)
    return out
