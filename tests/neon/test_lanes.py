"""Unit and property tests for the 128-bit lane math."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.dtypes import DType
from repro.isa.neon import VBinKind, VCmpKind, VUnaryKind
from repro.neon import lanes

INT_DTYPES = [DType.I8, DType.U8, DType.I16, DType.U16, DType.I32, DType.U32]


def lane_values(dtype, **kwargs):
    if dtype.is_float:
        return st.lists(
            st.floats(width=32, allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6),
            min_size=dtype.lanes,
            max_size=dtype.lanes,
        )
    return st.lists(
        st.integers(dtype.min_value(), dtype.max_value()),
        min_size=dtype.lanes,
        max_size=dtype.lanes,
    )


class TestViews:
    def test_from_lanes_roundtrip(self):
        img = lanes.from_lanes([1, 2, 3, 4], DType.I32)
        np.testing.assert_array_equal(lanes.view(img, DType.I32), [1, 2, 3, 4])

    def test_wrong_lane_count(self):
        with pytest.raises(ValueError):
            lanes.from_lanes([1, 2, 3], DType.I32)

    def test_broadcast(self):
        img = lanes.broadcast(-1, DType.I16)
        np.testing.assert_array_equal(lanes.view(img, DType.I16), [-1] * 8)

    def test_zero_register(self):
        assert lanes.zero_register().sum() == 0


class TestBinops:
    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_add_wraps(self, dtype):
        a = lanes.broadcast(dtype.max_value(), dtype)
        b = lanes.broadcast(1, dtype)
        out = lanes.view(lanes.binop(VBinKind.VADD, a, b, dtype), dtype)
        assert out[0] == dtype.min_value()

    def test_float_add(self):
        a = lanes.from_lanes([1.5, 2.5, 3.5, 4.5], DType.F32)
        b = lanes.broadcast(0.5, DType.F32)
        out = lanes.view(lanes.binop(VBinKind.VADD, a, b, DType.F32), DType.F32)
        np.testing.assert_array_equal(out, [2.0, 3.0, 4.0, 5.0])

    def test_mul(self):
        a = lanes.from_lanes(range(16), DType.I8)
        out = lanes.view(lanes.binop(VBinKind.VMUL, a, a, DType.I8), DType.I8)
        np.testing.assert_array_equal(out, [DType.I8.wrap(i * i) for i in range(16)])

    def test_min_max(self):
        a = lanes.from_lanes([1, -2, 3, -4], DType.I32)
        b = lanes.from_lanes([0, 0, 0, 0], DType.I32)
        lo = lanes.view(lanes.binop(VBinKind.VMIN, a, b, DType.I32), DType.I32)
        hi = lanes.view(lanes.binop(VBinKind.VMAX, a, b, DType.I32), DType.I32)
        np.testing.assert_array_equal(lo, [0, -2, 0, -4])
        np.testing.assert_array_equal(hi, [1, 0, 3, 0])

    def test_bitwise_ops_ignore_dtype_lanes(self):
        a = lanes.broadcast(0b1100, DType.U8)
        b = lanes.broadcast(0b1010, DType.U8)
        assert lanes.view(lanes.binop(VBinKind.VAND, a, b, DType.U8), DType.U8)[0] == 0b1000
        assert lanes.view(lanes.binop(VBinKind.VORR, a, b, DType.U8), DType.U8)[0] == 0b1110
        assert lanes.view(lanes.binop(VBinKind.VEOR, a, b, DType.U8), DType.U8)[0] == 0b0110

    @given(st.sampled_from(INT_DTYPES), st.data())
    @settings(max_examples=40)
    def test_add_matches_scalar_wrap(self, dtype, data):
        xs = data.draw(lane_values(dtype))
        ys = data.draw(lane_values(dtype))
        out = lanes.view(
            lanes.binop(VBinKind.VADD, lanes.from_lanes(xs, dtype), lanes.from_lanes(ys, dtype), dtype),
            dtype,
        )
        for lane, (x, y) in enumerate(zip(xs, ys)):
            assert out[lane] == dtype.wrap(x + y)


class TestMlaUnaryShift:
    def test_mla(self):
        acc = lanes.broadcast(10, DType.I32)
        a = lanes.from_lanes([1, 2, 3, 4], DType.I32)
        b = lanes.broadcast(3, DType.I32)
        out = lanes.view(lanes.mla(acc, a, b, DType.I32), DType.I32)
        np.testing.assert_array_equal(out, [13, 16, 19, 22])

    def test_abs_neg(self):
        a = lanes.from_lanes([-1, 2, -3, 4], DType.I32)
        np.testing.assert_array_equal(
            lanes.view(lanes.unary(VUnaryKind.VABS, a, DType.I32), DType.I32), [1, 2, 3, 4]
        )
        np.testing.assert_array_equal(
            lanes.view(lanes.unary(VUnaryKind.VNEG, a, DType.I32), DType.I32), [1, -2, 3, -4]
        )

    def test_mvn(self):
        a = lanes.broadcast(0, DType.U32)
        out = lanes.view(lanes.unary(VUnaryKind.VMVN, a, DType.U32), DType.U32)
        assert all(v == 0xFFFFFFFF for v in out)

    def test_shift_right_arithmetic(self):
        a = lanes.from_lanes([-8, 8, -16, 16], DType.I32)
        out = lanes.view(lanes.shift(False, a, 2, DType.I32), DType.I32)
        np.testing.assert_array_equal(out, [-2, 2, -4, 4])

    def test_shift_left(self):
        a = lanes.broadcast(1, DType.U16)
        out = lanes.view(lanes.shift(True, a, 3, DType.U16), DType.U16)
        assert all(v == 8 for v in out)

    def test_float_shift_rejected(self):
        with pytest.raises(ValueError):
            lanes.shift(True, lanes.zero_register(), 1, DType.F32)


class TestCompareSelect:
    def test_compare_masks(self):
        a = lanes.from_lanes([1, 5, 3, 7], DType.I32)
        b = lanes.broadcast(4, DType.I32)
        mask = lanes.compare(VCmpKind.VCGT, a, b, DType.I32)
        np.testing.assert_array_equal(
            lanes.view(mask, DType.U32), [0, 0xFFFFFFFF, 0, 0xFFFFFFFF]
        )

    def test_bsl_selects_per_lane(self):
        a = lanes.from_lanes([1, 5, 3, 7], DType.I32)
        b = lanes.broadcast(4, DType.I32)
        mask = lanes.compare(VCmpKind.VCGT, a, b, DType.I32)
        picked = lanes.bitwise_select(mask, a, b)
        np.testing.assert_array_equal(lanes.view(picked, DType.I32), [4, 5, 4, 7])

    @given(st.data())
    @settings(max_examples=40)
    def test_compare_bsl_equals_numpy_where(self, data):
        dtype = data.draw(st.sampled_from([DType.I8, DType.I16, DType.I32]))
        xs = np.array(data.draw(lane_values(dtype)), dtype=dtype.numpy)
        ys = np.array(data.draw(lane_values(dtype)), dtype=dtype.numpy)
        mask = lanes.compare(VCmpKind.VCGE, lanes.from_lanes(xs, dtype), lanes.from_lanes(ys, dtype), dtype)
        out = lanes.bitwise_select(mask, lanes.from_lanes(xs, dtype), lanes.from_lanes(ys, dtype))
        np.testing.assert_array_equal(lanes.view(out, dtype), np.where(xs >= ys, xs, ys))


class TestLaneAccess:
    def test_get_set_roundtrip(self):
        img = lanes.zero_register()
        img = lanes.lane_set(img, 3, -9, DType.I16)
        assert lanes.lane_get(img, 3, DType.I16) == -9
        assert lanes.lane_get(img, 0, DType.I16) == 0

    def test_set_does_not_mutate_input(self):
        img = lanes.zero_register()
        out = lanes.lane_set(img, 0, 5, DType.I8)
        assert img[0] == 0 and out[0] == 5


class TestNoFloatingPointTraps:
    """Lane math never raises, whatever the caller's numpy error state:
    integer lanes wrap (numpy integer arrays set no FP flags) and float
    lanes overflow to inf or produce NaN silently, as the hardware does."""

    ALL_INT_DTYPES = [*INT_DTYPES, DType.I64, DType.U64]
    ARITH = [VBinKind.VADD, VBinKind.VSUB, VBinKind.VMUL, VBinKind.VMIN, VBinKind.VMAX]

    @staticmethod
    def extremes(dtype):
        lo, hi = dtype.min_value(), dtype.max_value()
        pattern = [hi, lo, hi - 1, lo + 1, -1 if lo else 1, 0, 2, hi // 2]
        return (pattern * dtype.lanes)[: dtype.lanes]

    @pytest.fixture(autouse=True)
    def strict(self):
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("dtype", ALL_INT_DTYPES)
    def test_integer_ops_wrap_at_overflow(self, dtype):
        xs = self.extremes(dtype)
        ys = xs[::-1]
        a, b = (lanes.from_lanes(v, dtype) for v in (xs, ys))

        def check(image, expected):
            assert lanes.view(image, dtype).tolist() == [dtype.wrap(v) for v in expected]

        check(lanes.binop(VBinKind.VADD, a, b, dtype), [x + y for x, y in zip(xs, ys)])
        check(lanes.binop(VBinKind.VSUB, a, b, dtype), [x - y for x, y in zip(xs, ys)])
        check(lanes.binop(VBinKind.VMUL, a, b, dtype), [x * y for x, y in zip(xs, ys)])
        check(lanes.binop(VBinKind.VMIN, a, b, dtype), [min(x, y) for x, y in zip(xs, ys)])
        check(lanes.binop(VBinKind.VMAX, a, b, dtype), [max(x, y) for x, y in zip(xs, ys)])
        check(lanes.mla(a, a, b, dtype), [x + x * y for x, y in zip(xs, ys)])
        check(lanes.unary(VUnaryKind.VABS, a, dtype), [abs(x) for x in xs])
        check(lanes.unary(VUnaryKind.VNEG, a, dtype), [-x for x in xs])
        for amount in (1, dtype.bits - 1):
            check(lanes.shift(True, a, amount, dtype), [x << amount for x in xs])
            check(lanes.shift(False, a, amount, dtype), [x >> amount for x in xs])

    @pytest.mark.parametrize(
        "dtype, values, lanes_out",
        [
            (DType.U64, [2**64 - 3, 1], [2**64 - 3, 1]),
            (DType.U64, [2**63, 2**63 - 1], [2**63, 2**63 - 1]),
            (DType.U64, [-1, 2**64], [2**64 - 1, 0]),  # wrapped to the type
            (DType.I64, [-(2**63), 2**63 - 1], [-(2**63), 2**63 - 1]),
            (DType.I64, [2**63, -(2**63) - 1], [-(2**63), 2**63 - 1]),
            (DType.I64, [2**64 - 1, 1], [-1, 1]),
        ],
    )
    def test_from_lanes_keeps_64_bit_extremes(self, dtype, values, lanes_out):
        assert lanes.view(lanes.from_lanes(values, dtype), dtype).tolist() == lanes_out
        wide = lanes.from_lanes(values * 2, dtype, lanes=4)  # a 256-bit register
        assert lanes.view(wide, dtype).tolist() == lanes_out * 2
        assert lanes.view(lanes.broadcast(values[0], dtype), dtype).tolist() == [lanes_out[0]] * 2

    def test_float_ops_are_silent_on_overflow_and_nan(self):
        big = float(np.finfo(np.float32).max)
        a = lanes.from_lanes([big, -big, np.inf, np.nan], DType.F32)
        b = lanes.from_lanes([big, big, np.inf, 1.0], DType.F32)
        for kind in self.ARITH:
            lanes.binop(kind, a, b, DType.F32)
        assert lanes.view(lanes.binop(VBinKind.VADD, a, b, DType.F32), DType.F32)[0] == np.inf
        assert np.isnan(lanes.view(lanes.binop(VBinKind.VSUB, b, a, DType.F32), DType.F32)[2])
        assert lanes.view(lanes.mla(a, a, b, DType.F32), DType.F32)[0] == np.inf
        for kind in (VUnaryKind.VABS, VUnaryKind.VNEG):
            out = lanes.view(lanes.unary(kind, a, DType.F32), DType.F32)
            assert np.isnan(out[3])
