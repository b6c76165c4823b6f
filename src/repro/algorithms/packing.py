"""Bit- and byte-packing kernels shared by all compression codecs.

The paper's CompLL packs sub-byte types (uint1/uint2/uint4) into consecutive
bits "with the minimal zero padding to ensure the total number of bits is a
multiple of 8" (§4.3).  These helpers implement exactly that contract on
NumPy arrays, plus 3LC's base-3^5 quintet packing and zero-run encoding, and
a tiny sequential byte-stream writer/reader used to build the
self-describing compressed buffers (metadata + payload, mirroring the DSL's
``concat``).

Every kernel is a whole-array NumPy scan: the hand-written codecs and the
CompLL runtime operators (:mod:`repro.compll.operators`) both call this one
module, so a generated codec and the codec it replaces share their bytes.
Decoding goes through small lookup tables built once at import.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "pack_uint", "unpack_uint", "unpack_bits",
    "pack_ternary", "unpack_ternary", "rle_encode", "rle_decode",
    "ZERO_QUINTET", "RUN_BASE", "MAX_RUN", "ByteWriter", "ByteReader",
]

_SCALAR_DTYPES = {
    "f4": np.float32,
    "u4": np.uint32,
    "u1": np.uint8,
    "i4": np.int32,
}

# -- sub-byte integers --------------------------------------------------------

#: For each width dividing 8: row ``b`` holds the ``8 // width`` values packed
#: MSB-first into byte ``b``.
_UNPACK_TABLES = {
    width: ((np.arange(256, dtype=np.uint32)[:, None]
             >> np.arange(8 - width, -1, -width, dtype=np.uint32))
            & ((1 << width) - 1))
    for width in (1, 2, 4)
}


def _check_bitwidth(bitwidth: int) -> None:
    if not 1 <= bitwidth <= 16:
        raise ValueError(f"bitwidth must be in [1, 16], got {bitwidth}")


def _check_payload(buffer: np.ndarray, needed: int, what: str) -> None:
    if buffer.size < needed:
        raise ValueError(
            f"buffer too short for {what}: need {needed} bytes, "
            f"have {buffer.size}")


def pack_uint(values: np.ndarray, bitwidth: int) -> np.ndarray:
    """Pack non-negative integers < 2**bitwidth into a dense uint8 buffer.

    Values are laid out MSB-first, zero-padded to a whole number of bytes.
    """
    _check_bitwidth(bitwidth)
    values = np.ascontiguousarray(values).ravel()
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if values.min() < 0 or values.max() >= (1 << bitwidth):
        raise ValueError(f"values do not fit in {bitwidth} bits")
    if 8 % bitwidth:
        vals = values.astype(np.uint32)
        shifts = np.arange(bitwidth - 1, -1, -1, dtype=np.uint32)
        bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8).ravel()
        return np.packbits(bits)
    per_byte = 8 // bitwidth
    vals = values.astype(np.uint8)
    pad = (-vals.size) % per_byte
    if pad:
        vals = np.concatenate([vals, np.zeros(pad, dtype=np.uint8)])
    grouped = vals.reshape(-1, per_byte)
    packed = grouped[:, 0] << (8 - bitwidth)
    for slot in range(1, per_byte):
        packed |= grouped[:, slot] << (8 - bitwidth * (slot + 1))
    return packed


def unpack_uint(buffer: np.ndarray, bitwidth: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_uint`; returns ``count`` uint32 values."""
    _check_bitwidth(bitwidth)
    if count < 0:
        raise ValueError(f"negative count {count}")
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    buffer = np.ascontiguousarray(buffer, dtype=np.uint8).ravel()
    nbytes = (count * bitwidth + 7) // 8
    _check_payload(buffer, nbytes, f"{count} x {bitwidth}-bit values")
    if bitwidth == 8:
        return buffer[:count].astype(np.uint32)
    table = _UNPACK_TABLES.get(bitwidth)
    if table is not None:
        return table[buffer[:nbytes]].reshape(-1)[:count]
    bits = np.unpackbits(buffer)[:count * bitwidth].astype(np.uint32)
    bits = bits.reshape(count, bitwidth)
    shifts = np.arange(bitwidth - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts).sum(axis=1, dtype=np.uint32)


def unpack_bits(buffer: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of ``buffer`` (MSB-first) as a bool array."""
    buffer = np.ascontiguousarray(buffer, dtype=np.uint8).ravel()
    nbytes = (count + 7) // 8
    _check_payload(buffer, nbytes, f"{count} bits")
    return np.unpackbits(buffer[:nbytes], count=count).view(np.bool_)


# -- 3LC: base-3^5 quintets and zero-run encoding -----------------------------

_POWERS = np.asarray([81, 27, 9, 3, 1], dtype=np.uint8)
#: The byte value of a quintet of ternary digit 1 (= quantized zero).
ZERO_QUINTET = int(_POWERS.sum(dtype=np.int64))  # 121
#: Bytes RUN_BASE..255 stand for runs of 2..MAX_RUN zero quintets.
RUN_BASE = 243
MAX_RUN = 255 - RUN_BASE + 2  # 14

#: Row ``b``: the five ternary digits byte ``b`` decodes to.
_QUINTET_DIGITS = ((np.arange(256, dtype=np.uint32)[:, None]
                    // _POWERS.astype(np.uint32)) % 3).astype(np.uint8)
#: Per stream byte: the quintet it expands to, and how many times.
_RUN_VALUES = np.arange(256, dtype=np.uint8)
_RUN_VALUES[RUN_BASE:] = ZERO_QUINTET
_RUN_LENGTHS = np.ones(256, dtype=np.intp)
_RUN_LENGTHS[RUN_BASE:] = np.arange(2, MAX_RUN + 1)


def pack_ternary(digits: np.ndarray) -> np.ndarray:
    """Pack ternary digits (0/1/2) five per byte, padding with 1s."""
    digits = np.asarray(digits, dtype=np.uint8).ravel()
    pad = (-digits.size) % 5
    if pad:
        digits = np.concatenate([digits, np.full(pad, 1, dtype=np.uint8)])
    quintets = digits.reshape(-1, 5)
    packed = quintets[:, 0] * _POWERS[0]
    for slot in range(1, 5):
        packed += quintets[:, slot] * _POWERS[slot]
    return packed


def unpack_ternary(body: np.ndarray, count: int,
                   values: Optional[np.ndarray] = None) -> np.ndarray:
    """Inverse of :func:`pack_ternary`: the first ``count`` digits.

    With ``values`` (three entries), digit ``d`` comes out as ``values[d]``
    in ``values``' dtype; without, as a uint8 digit.
    """
    body = np.ascontiguousarray(body, dtype=np.uint8).ravel()
    _check_payload(body, (count + 4) // 5, f"{count} ternary digits")
    table = (_QUINTET_DIGITS if values is None
             else np.asarray(values)[_QUINTET_DIGITS])
    return table[body].reshape(-1)[:count]


def rle_encode(body: np.ndarray) -> np.ndarray:
    """Zero-run encode a quintet stream.

    Each maximal run of :data:`ZERO_QUINTET` bytes splits greedily into
    chunks of :data:`MAX_RUN` quintets from its start.  A chunk of ``c >= 2``
    quintets becomes the single byte ``RUN_BASE + c - 2``; a one-quintet
    remainder stays the literal ``ZERO_QUINTET``.  Other bytes pass through.
    """
    body = np.ascontiguousarray(body, dtype=np.uint8).ravel()
    zero = body == ZERO_QUINTET
    edges = np.diff(zero.view(np.int8), prepend=np.int8(0),
                    append=np.int8(0))
    starts = np.flatnonzero(edges == 1)
    lengths = np.flatnonzero(edges == -1) - starts
    chunks = (lengths + MAX_RUN - 1) // MAX_RUN
    # Offset of each chunk from the start of its run, then its position.
    first = np.repeat(np.cumsum(chunks) - chunks, chunks)
    offset = (np.arange(first.size) - first) * MAX_RUN
    position = np.repeat(starts, chunks) + offset
    size = np.minimum(np.repeat(lengths, chunks) - offset, MAX_RUN)
    out = body.copy()
    out[position] = np.where(size >= 2, size + (RUN_BASE - 2), ZERO_QUINTET)
    keep = ~zero
    keep[position] = True
    return out[keep]


def rle_decode(stream: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rle_encode`: expand every run byte."""
    stream = np.ascontiguousarray(stream, dtype=np.uint8).ravel()
    return np.repeat(_RUN_VALUES[stream], _RUN_LENGTHS[stream])


# -- self-describing buffers --------------------------------------------------


class ByteWriter:
    """Builds a flat uint8 buffer from scalars and arrays, in order."""

    def __init__(self):
        self._chunks = []

    def scalar(self, value, dtype: str) -> "ByteWriter":
        np_dtype = _SCALAR_DTYPES.get(dtype)
        if np_dtype is None:
            raise ValueError(f"unsupported scalar dtype {dtype!r}")
        self._chunks.append(np.asarray([value], dtype=np_dtype).view(np.uint8))
        return self

    def array(self, values: np.ndarray) -> "ByteWriter":
        arr = np.ascontiguousarray(values)
        self._chunks.append(arr.view(np.uint8).ravel())
        return self

    def finish(self) -> np.ndarray:
        if not self._chunks:
            return np.empty(0, dtype=np.uint8)
        return np.concatenate(self._chunks)


class ByteReader:
    """Sequentially decodes a buffer produced by :class:`ByteWriter`."""

    def __init__(self, buffer: np.ndarray):
        self._buf = np.ascontiguousarray(buffer, dtype=np.uint8)
        self._pos = 0

    @property
    def remaining(self) -> int:
        return self._buf.size - self._pos

    def scalar(self, dtype: str):
        np_dtype = _SCALAR_DTYPES.get(dtype)
        if np_dtype is None:
            raise ValueError(f"unsupported scalar dtype {dtype!r}")
        nbytes = np.dtype(np_dtype).itemsize
        raw = self._take(nbytes)
        return raw.copy().view(np_dtype)[0]

    def array(self, dtype: Union[str, np.dtype], count: int) -> np.ndarray:
        np_dtype = np.dtype(dtype)
        raw = self._take(np_dtype.itemsize * count)
        return raw.copy().view(np_dtype)

    def rest(self) -> np.ndarray:
        raw = self._buf[self._pos:]
        self._pos = self._buf.size
        return raw

    def _take(self, nbytes: int) -> np.ndarray:
        if self._pos + nbytes > self._buf.size:
            raise ValueError(
                f"buffer underrun: need {nbytes} bytes, have {self.remaining}")
        raw = self._buf[self._pos:self._pos + nbytes]
        self._pos += nbytes
        return raw
