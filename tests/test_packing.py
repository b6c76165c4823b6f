"""Unit tests for bit/byte packing helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ByteReader, ByteWriter, pack_uint, unpack_uint
from repro.algorithms.packing import (ZERO_QUINTET, pack_ternary, rle_decode,
                                      rle_encode, unpack_bits, unpack_ternary)
from tests import packing_oracles as oracle


@pytest.mark.parametrize("bitwidth", [1, 2, 3, 4, 5, 8, 12, 16])
def test_pack_unpack_roundtrip(bitwidth):
    rng = np.random.default_rng(bitwidth)
    values = rng.integers(0, 1 << bitwidth, size=100)
    packed = pack_uint(values, bitwidth)
    out = unpack_uint(packed, bitwidth, values.size)
    np.testing.assert_array_equal(out, values)


def test_pack_density():
    values = np.ones(80, dtype=np.uint32)
    assert pack_uint(values, 1).size == 10
    assert pack_uint(values, 2).size == 20
    assert pack_uint(values, 4).size == 40


def test_pack_padding_to_whole_bytes():
    # 3 values x 3 bits = 9 bits -> 2 bytes.
    assert pack_uint(np.asarray([1, 2, 3]), 3).size == 2


def test_pack_empty():
    assert pack_uint(np.empty(0, dtype=np.uint32), 4).size == 0
    assert unpack_uint(np.empty(0, dtype=np.uint8), 4, 0).size == 0


def test_pack_value_overflow_rejected():
    with pytest.raises(ValueError):
        pack_uint(np.asarray([4]), 2)
    with pytest.raises(ValueError):
        pack_uint(np.asarray([-1]), 2)


def test_pack_bitwidth_bounds():
    with pytest.raises(ValueError):
        pack_uint(np.asarray([0]), 0)
    with pytest.raises(ValueError):
        unpack_uint(np.zeros(4, dtype=np.uint8), 17, 1)


def test_unpack_underrun_rejected():
    with pytest.raises(ValueError):
        unpack_uint(np.zeros(1, dtype=np.uint8), 4, 100)


def test_byte_writer_reader_roundtrip():
    arr = np.arange(5, dtype=np.float32)
    buf = (ByteWriter()
           .scalar(7, "u4")
           .scalar(1.5, "f4")
           .scalar(200, "u1")
           .array(arr)
           .finish())
    reader = ByteReader(buf)
    assert reader.scalar("u4") == 7
    assert reader.scalar("f4") == pytest.approx(1.5)
    assert reader.scalar("u1") == 200
    np.testing.assert_array_equal(reader.array(np.float32, 5), arr)
    assert reader.remaining == 0


def test_byte_reader_rest():
    buf = ByteWriter().scalar(1, "u1").array(
        np.asarray([9, 8, 7], dtype=np.uint8)).finish()
    reader = ByteReader(buf)
    reader.scalar("u1")
    np.testing.assert_array_equal(reader.rest(), [9, 8, 7])
    assert reader.remaining == 0


def test_byte_reader_underrun():
    reader = ByteReader(np.zeros(2, dtype=np.uint8))
    with pytest.raises(ValueError):
        reader.scalar("u4")


def test_byte_writer_unknown_dtype():
    with pytest.raises(ValueError):
        ByteWriter().scalar(1, "f8")
    with pytest.raises(ValueError):
        ByteReader(np.zeros(8, dtype=np.uint8)).scalar("f8")


def test_byte_writer_empty():
    assert ByteWriter().finish().size == 0


def test_byte_reader_unaligned_offsets():
    """Reads at odd byte offsets must not trip dtype alignment."""
    buf = (ByteWriter()
           .scalar(3, "u1")
           .scalar(1.25, "f4")
           .finish())
    reader = ByteReader(buf)
    assert reader.scalar("u1") == 3
    assert reader.scalar("f4") == pytest.approx(1.25)


# ------------------------------------------------ kernels against oracles
#
# The whole-array kernels must be byte-identical to the per-element
# formulations in tests/packing_oracles.py.

def assert_identical(mine, theirs):
    assert mine.dtype == theirs.dtype
    assert mine.shape == theirs.shape
    assert mine.tobytes() == theirs.tobytes()


@st.composite
def width_and_values(draw, max_size=70):
    width = draw(st.integers(1, 16))
    values = draw(st.lists(st.integers(0, (1 << width) - 1),
                           max_size=max_size))
    return width, np.asarray(values, dtype=np.int64)


@given(case=width_and_values())
@settings(max_examples=300, deadline=None)
def test_pack_uint_matches_oracle(case):
    width, values = case
    assert_identical(pack_uint(values, width), oracle.pack_uint(values, width))


@given(width=st.integers(1, 16), count=st.integers(0, 70),
       extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_unpack_uint_matches_oracle(width, count, extra, seed):
    nbytes = (count * width + 7) // 8 + extra
    buf = np.random.default_rng(seed).integers(0, 256, nbytes, dtype=np.uint8)
    assert_identical(unpack_uint(buf, width, count),
                     oracle.unpack_uint(buf, width, count))


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_fast_widths_at_ragged_lengths(width):
    """Lengths that are not a multiple of ``8 / width`` values per byte."""
    per_byte = 8 // width
    rng = np.random.default_rng(width)
    for count in range(1, 4 * per_byte + 2):
        if per_byte > 1 and count % per_byte == 0:
            continue
        values = rng.integers(0, 1 << width, count)
        packed = pack_uint(values, width)
        assert_identical(packed, oracle.pack_uint(values, width))
        assert_identical(unpack_uint(packed, width, count),
                         values.astype(np.uint32))


@pytest.mark.parametrize("width", [1, 2, 4, 8, 3, 12])
def test_pack_uint_rejects_out_of_range(width):
    with pytest.raises(ValueError):
        pack_uint(np.asarray([0, 1 << width]), width)
    with pytest.raises(ValueError):
        pack_uint(np.asarray([0, -1]), width)


@pytest.mark.parametrize("width", [1, 2, 4, 8, 3, 12])
def test_unpack_uint_underrun_names_bytes(width):
    count = 9
    needed = (count * width + 7) // 8
    buf = np.zeros(needed - 1, dtype=np.uint8)
    with pytest.raises(ValueError,
                       match=f"need {needed} bytes, have {needed - 1}"):
        unpack_uint(buf, width, count)


@given(count=st.integers(0, 40), extra=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_unpack_bits_matches_unpackbits(count, extra, seed):
    buf = np.random.default_rng(seed).integers(
        0, 256, (count + 7) // 8 + extra, dtype=np.uint8)
    bits = unpack_bits(buf, count)
    assert bits.dtype == np.bool_
    np.testing.assert_array_equal(bits, np.unpackbits(buf)[:count] == 1)


def test_unpack_bits_underrun_raises():
    with pytest.raises(ValueError, match="need 2 bytes, have 1"):
        unpack_bits(np.zeros(1, dtype=np.uint8), 9)


@given(digits=st.lists(st.integers(0, 2), max_size=60))
@settings(max_examples=200, deadline=None)
def test_pack_ternary_matches_oracle(digits):
    digits = np.asarray(digits, dtype=np.uint8)
    packed = pack_ternary(digits)
    assert_identical(packed, oracle.pack_ternary(digits))
    assert_identical(unpack_ternary(packed, digits.size), digits)


@given(body=st.lists(st.integers(0, 255), max_size=40),
       trim=st.integers(0, 4))
@settings(max_examples=200, deadline=None)
def test_unpack_ternary_matches_oracle(body, trim):
    body = np.asarray(body, dtype=np.uint8)
    count = max(0, 5 * body.size - trim)
    assert_identical(unpack_ternary(body, count),
                     oracle.unpack_ternary(body, count))


def test_unpack_ternary_maps_through_values():
    body = pack_ternary(np.asarray([0, 1, 2, 2, 1, 0, 1], dtype=np.uint8))
    values = np.asarray([-1.5, 0.0, 1.5], dtype=np.float32)
    out = unpack_ternary(body, 7, values)
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out, [-1.5, 0, 1.5, 1.5, 0, -1.5, 0])


#: Zero-quintet run lengths around the 14-quintet chunk boundary.
RUN_LENGTHS = (1, 2, 13, 14, 15, 28, 29)
literals = st.lists(st.integers(0, 242).filter(lambda b: b != ZERO_QUINTET),
                    min_size=1, max_size=4)


@st.composite
def quintet_bodies(draw):
    """Alternating literal stretches and zero runs, in either order."""
    parts = []
    zero_next = draw(st.booleans())
    for _ in range(draw(st.integers(0, 6))):
        if zero_next:
            run = draw(st.sampled_from(RUN_LENGTHS) | st.integers(1, 45))
            parts.append([ZERO_QUINTET] * run)
        else:
            parts.append(draw(literals))
        zero_next = not zero_next
    return np.asarray([b for part in parts for b in part], dtype=np.uint8)


def check_rle(body):
    encoded = rle_encode(body)
    assert_identical(encoded, oracle.rle_encode(body))
    assert_identical(rle_decode(encoded), body)
    assert_identical(oracle.rle_decode(encoded), body)


@given(body=quintet_bodies())
@settings(max_examples=300, deadline=None)
def test_rle_matches_oracle(body):
    check_rle(body)


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("run", RUN_LENGTHS)
def test_rle_runs_at_chunk_boundaries(run, where):
    zeros = [ZERO_QUINTET] * run
    body = {"start": zeros + [7, 200],
            "middle": [7] + zeros + [200],
            "end": [7, 200] + zeros}[where]
    check_rle(np.asarray(body, dtype=np.uint8))


def test_rle_chunking_rule():
    """Runs split into 14-quintet chunks; a 1-quintet remainder stays 121."""
    expect = {1: [121], 2: [243], 13: [254], 14: [255], 15: [255, 121],
              28: [255, 255], 29: [255, 255, 121], 30: [255, 255, 243]}
    for run, codes in expect.items():
        body = np.full(run, ZERO_QUINTET, dtype=np.uint8)
        np.testing.assert_array_equal(rle_encode(body), codes)


@pytest.mark.parametrize("size", [0, 1, 2, 13, 14, 15, 27, 28, 29, 100])
def test_rle_all_zero_and_zero_free_bodies(size):
    check_rle(np.full(size, ZERO_QUINTET, dtype=np.uint8))
    rng = np.random.default_rng(size)
    free = rng.integers(0, 242, size, dtype=np.uint8)
    free[free == ZERO_QUINTET] = 0
    check_rle(free)
    assert_identical(rle_encode(free), free)


@given(stream=st.lists(st.integers(0, 255), max_size=40))
@settings(max_examples=200, deadline=None)
def test_rle_decode_matches_oracle_on_any_stream(stream):
    stream = np.asarray(stream, dtype=np.uint8)
    assert_identical(rle_decode(stream), oracle.rle_decode(stream))
