"""The whole-array store check gives the per-element check's verdict.

``DynamicSIMDAssembler._compare_results`` compares a contiguous store
stream over consecutive iterations with one ``read_array``; an attached
injector forces the element-by-element loop.  A pass-through injector
(which corrupts nothing) therefore runs the same comparison the old way,
and both must accept the same inputs and reject the same inputs with the
same :class:`DSAVerificationError` text.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.compiler import ArrayParam, For, Kernel, Load, Store, lower
from repro.compiler.ir import c, v
from repro.cpu.core import Core
from repro.dsa.engine import DSAVerificationError, DynamicSIMDAssembler, _stores_match
from repro.dsa.streams import MemStream
from repro.isa.dtypes import DType
from repro.memory.backing import MainMemory

BASE = 0x2000
PC = 0x1040
FIRST = 4  # first covered iteration


class PassThrough:
    """An injector that corrupts nothing: only forces the element loop."""

    def corrupt_check(self, pc, iteration, addr, expected, stream):
        return addr, expected


@pytest.fixture(scope="module")
def kernel():
    """Any program will do: the check reads only the core's memory."""
    copy_loop = [For("i", c(0), c(4), [Store("out", v("i"), Load("a", v("i")))])]
    return lower(Kernel("k", [ArrayParam("a", DType.I32), ArrayParam("out", DType.I32)], copy_loop))


def verdict(kernel, stream_dtype, actual, expected, iters=None, injector=None):
    """Write the scalar results, compare against ``expected``; returns the
    error text, or None when the check passed."""
    memory = MainMemory(64 * 1024)
    memory.write_array(BASE, np.asarray(actual, dtype=stream_dtype.numpy))
    core = Core(kernel.program, memory)
    dsa = DynamicSIMDAssembler(injector=injector)
    dsa.attach(core)
    stream = MemStream(pc=PC, is_write=True, dtype=stream_dtype)
    stream.add_sample(FIRST, BASE)
    stream.add_sample(FIRST + 1, BASE + stream_dtype.size)
    template = SimpleNamespace(streams={PC: stream})
    if iters is None:
        iters = np.arange(FIRST, FIRST + len(expected))
    try:
        dsa._compare_results(SimpleNamespace(loop_id=0x40), template, iters, {PC: expected})
    except DSAVerificationError as exc:
        return str(exc)
    return None


def both(kernel, stream_dtype, actual, expected, iters=None):
    bulk = verdict(kernel, stream_dtype, actual, expected, iters)
    per_element = verdict(kernel, stream_dtype, actual, expected, iters, PassThrough())
    assert bulk == per_element
    return bulk


def _u64(values):
    return np.array(values, dtype=np.uint64)


CASES = [
    # (stream dtype, scalar results, vector results)
    ("signed", DType.I8, [1, -2, 127, -128], np.array([1, -2, 127, -128], np.int8)),
    ("unsigned", DType.U8, [0, 255, 128, 7], np.array([0, 255, 128, 7], np.uint8)),
    ("u8 store, i8 template", DType.U8, [1, 2, 3, 4], np.array([1, 2, 3, 4], np.int8)),
    ("i16", DType.I16, [-30000, 5, 0, 30000], np.array([-30000, 5, 0, 30000], np.int16)),
    ("u32", DType.U32, [0, 2**32 - 1, 9, 1], np.array([0, 2**32 - 1, 9, 1], np.uint32)),
    ("i64", DType.I64, [-(2**63), 2**63 - 1, 0, -1], np.array([-(2**63), 2**63 - 1, 0, -1], np.int64)),
    ("u64 past int64", DType.U64, [2**64 - 1, 2**63, 1, 0], _u64([2**64 - 1, 2**63, 1, 0])),
    ("u64 store, i64 template", DType.U64, [2**63 - 1, 5, 0, 1], np.array([2**63 - 1, 5, 0, 1], np.int64)),
    ("float", DType.F32, [1.5, -0.25, 3e38, 0.0], np.array([1.5, -0.25, 3e38, 0.0], np.float32)),
    ("nan", DType.F32, [2.5, np.nan, 1.0, np.nan], np.array([2.5, np.nan, 1.0, np.nan], np.float32)),
    ("float tolerance", DType.F32, [1.0, 1000.0, 2.0, 4.0],
     np.array([1.0 + 2**-23, 1000.0, 2.0, 4.0 - 2**-21], np.float32)),
]


@pytest.mark.parametrize("name,stream_dtype,actual,expected", CASES, ids=[c[0] for c in CASES])
def test_matching_results_pass_both_ways(kernel, name, stream_dtype, actual, expected):
    assert both(kernel, stream_dtype, actual, expected) is None


@pytest.mark.parametrize("name,stream_dtype,actual,expected", CASES, ids=[c[0] for c in CASES])
@pytest.mark.parametrize("where", [0, 2, 3])
def test_a_corrupted_element_fails_both_ways_alike(kernel, name, stream_dtype, actual, expected, where):
    corrupted = np.array(expected, copy=True)
    if corrupted.dtype.kind == "f":
        corrupted[where] = 7.0 if corrupted[where] != 7.0 else -7.0
    else:
        corrupted[where] = corrupted[where] ^ corrupted.dtype.type(0x10)
    message = both(kernel, stream_dtype, actual, corrupted)
    assert message is not None and f"iteration {FIRST + where} " in message


@pytest.mark.parametrize(
    "scalar,vector,equal",
    [
        (np.nan, np.nan, True),
        (np.nan, 1.0, False),
        (1.0, np.nan, False),
        (1.0, 1.0 + 2**-23, True),     # within 1e-6 relative
        (1.0, 1.0 + 2**-18, False),    # ~3.8e-6 relative
        (np.inf, np.inf, True),
        (np.inf, 1.0, True),           # |inf - 1| <= 1e-6 * inf
        (0.0, -0.0, True),
    ],
)
def test_float_edge_cases_agree(kernel, scalar, vector, equal):
    actual = [2.0, scalar, 3.0]
    expected = np.array([2.0, vector, 3.0], np.float32)
    assert (both(kernel, DType.F32, actual, expected) is None) is equal


def test_gapped_iterations_fall_back_and_agree(kernel):
    """A conditional path's iterations have holes: the check goes element
    by element, with the same outcome."""
    iters = np.array([FIRST, FIRST + 2, FIRST + 3])
    actual = [10, 0, 30, 40]
    assert both(kernel, DType.I32, actual, np.array([10, 30, 40], np.int32), iters) is None
    message = both(kernel, DType.I32, actual, np.array([10, 31, 40], np.int32), iters)
    assert f"iteration {FIRST + 2} " in message


def test_bulk_path_is_taken_where_it_applies():
    memory = MainMemory(64 * 1024)
    memory.write_array(BASE, np.arange(8, dtype=np.int32))
    stream = MemStream(pc=PC, is_write=True, dtype=DType.I32)
    iters = np.arange(FIRST, FIRST + 8)
    values = np.arange(8, dtype=np.int32)
    assert _stores_match(memory, stream, 4, FIRST, BASE, iters, values)
    # u64 against i64 promotes to float64 in numpy: left to the element loop
    stream64 = MemStream(pc=PC, is_write=True, dtype=DType.U64)
    memory.write_array(BASE, _u64([1, 2]))
    assert not _stores_match(memory, stream64, 8, FIRST, BASE, iters[:2], np.array([1, 2], np.int64))
    assert _stores_match(memory, stream64, 8, FIRST, BASE, iters[:2], _u64([1, 2]))
