"""Unit tests for element types and register-width helpers."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.dtypes import (
    DType,
    LaneLayout,
    NEON_WIDTH_BYTES,
    bits_to_float,
    float_to_bits,
    to_s32,
    to_u32,
)

INT_TYPES = [dt for dt in DType if not dt.is_float]


class TestGeometry:
    @pytest.mark.parametrize(
        "dtype,bits,lanes",
        [
            (DType.I8, 8, 16),
            (DType.U8, 8, 16),
            (DType.I16, 16, 8),
            (DType.U16, 16, 8),
            (DType.I32, 32, 4),
            (DType.U32, 32, 4),
            (DType.I64, 64, 2),
            (DType.U64, 64, 2),
            (DType.F32, 32, 4),
        ],
    )
    def test_lane_counts_match_paper_figure4(self, dtype, bits, lanes):
        assert dtype.bits == bits
        assert dtype.lanes == lanes
        assert dtype.size * dtype.lanes == NEON_WIDTH_BYTES

    def test_signedness(self):
        assert DType.I8.is_signed and not DType.U8.is_signed
        assert DType.F32.is_signed and DType.F32.is_float

    def test_from_suffix(self):
        assert DType.from_suffix("i32") is DType.I32
        assert DType.from_suffix("F32") is DType.F32
        with pytest.raises(ValueError):
            DType.from_suffix("i128")

    def test_numpy_mapping(self):
        assert DType.I16.numpy == np.dtype(np.int16)
        assert DType.F32.numpy == np.dtype(np.float32)


#: every member's static facts: bits, size, lanes, is_float, is_signed, numpy
FACTS = {
    DType.I8: (8, 1, 16, False, True, np.int8),
    DType.U8: (8, 1, 16, False, False, np.uint8),
    DType.I16: (16, 2, 8, False, True, np.int16),
    DType.U16: (16, 2, 8, False, False, np.uint16),
    DType.I32: (32, 4, 4, False, True, np.int32),
    DType.U32: (32, 4, 4, False, False, np.uint32),
    DType.I64: (64, 8, 2, False, True, np.int64),
    DType.U64: (64, 8, 2, False, False, np.uint64),
    DType.F32: (32, 4, 4, True, True, np.float32),
}


class TestMemberFacts:
    """The per-member facts are plain attributes fixed at class creation;
    this table pins each one, so no member can drift from the others."""

    def test_table_covers_every_member(self):
        assert set(FACTS) == set(DType)

    @pytest.mark.parametrize("dtype", list(DType), ids=str)
    def test_facts(self, dtype):
        bits, size, lanes, is_float, is_signed, np_type = FACTS[dtype]
        assert (dtype.bits, dtype.size, dtype.lanes) == (bits, size, lanes)
        assert dtype.is_float is is_float and dtype.is_signed is is_signed
        assert dtype.numpy == np.dtype(np_type)
        assert dtype.numpy.byteorder == np.dtype(np_type).byteorder
        assert dtype.numpy.itemsize == size

    @pytest.mark.parametrize("dtype", list(DType), ids=str)
    def test_unpack_from_matches_numpy(self, dtype):
        raw = bytes(range(0x80, 0x90))  # every sign bit set, no float NaN
        for offset in (0, 3, 16 - dtype.size):
            got = dtype.unpack_from(raw, offset)
            want = np.frombuffer(raw, dtype=dtype.numpy, count=1, offset=offset)[0].item()
            assert got == want
            assert got == dtype.unpack(raw[offset:offset + dtype.size])

    @pytest.mark.parametrize("dtype", list(DType), ids=str)
    def test_pickle_round_trip_is_the_member(self, dtype):
        clone = pickle.loads(pickle.dumps(dtype))
        assert clone is dtype
        assert clone.numpy == dtype.numpy and clone.unpack_from is dtype.unpack_from

    def test_hashing_is_by_member(self):
        table = {dtype: dtype.value for dtype in DType}
        assert len(table) == len(DType)
        for dtype in DType:
            assert table[DType(dtype.value)] == dtype.value
            assert hash(dtype) == hash(pickle.loads(pickle.dumps(dtype)))


class TestWrap:
    def test_signed_wraparound(self):
        assert DType.I8.wrap(128) == -128
        assert DType.I8.wrap(-129) == 127
        assert DType.I16.wrap(0x8000) == -32768

    def test_unsigned_wraparound(self):
        assert DType.U8.wrap(256) == 0
        assert DType.U8.wrap(-1) == 255

    def test_float_wrap_is_float32(self):
        # a value not representable exactly in float32 gets rounded
        assert DType.F32.wrap(0.1) == float(np.float32(0.1))

    @given(st.sampled_from(INT_TYPES), st.integers(-(2**70), 2**70))
    def test_wrap_idempotent(self, dtype, value):
        once = dtype.wrap(value)
        assert dtype.wrap(once) == once
        assert dtype.min_value() <= once <= dtype.max_value()


class TestPacking:
    @given(st.sampled_from(INT_TYPES), st.integers(-(2**63), 2**64))
    def test_pack_unpack_roundtrip(self, dtype, value):
        wrapped = dtype.wrap(value)
        assert dtype.unpack(dtype.pack(wrapped)) == wrapped

    def test_pack_is_little_endian(self):
        assert DType.U16.pack(0x1234) == b"\x34\x12"
        assert DType.U32.pack(0x11223344) == b"\x44\x33\x22\x11"

    def test_float_roundtrip(self):
        v = DType.F32.wrap(3.25)
        assert DType.F32.unpack(DType.F32.pack(v)) == v

    def test_unpack_wrong_size_raises(self):
        with pytest.raises(ValueError):
            DType.I32.unpack(b"\x00\x00")


class TestLaneLayout:
    def test_lane_slices_tile_register(self):
        layout = LaneLayout(DType.I32)
        covered = []
        for lane in range(layout.lanes):
            s = layout.lane_slice(lane)
            covered.extend(range(s.start, s.stop))
        assert covered == list(range(NEON_WIDTH_BYTES))

    def test_out_of_range_lane(self):
        with pytest.raises(IndexError):
            LaneLayout(DType.I64).lane_slice(2)


class TestRegisterHelpers:
    def test_to_u32_and_s32(self):
        assert to_u32(-1) == 0xFFFFFFFF
        assert to_s32(0xFFFFFFFF) == -1
        assert to_s32(0x7FFFFFFF) == 0x7FFFFFFF

    @given(st.integers(-(2**40), 2**40))
    def test_s32_u32_consistent(self, v):
        assert to_u32(to_s32(v)) == to_u32(v)

    @given(st.floats(width=32, allow_nan=False, allow_infinity=False))
    def test_float_bits_roundtrip(self, f):
        assert bits_to_float(float_to_bits(f)) == f
