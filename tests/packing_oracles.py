"""Per-element reference versions of the packing kernels, for tests only.

These are the straightforward loop and bit-matrix formulations the
whole-array kernels in :mod:`repro.algorithms.packing` replaced.  They are
slow and obviously correct; the property tests check the kernels against
them byte for byte.
"""

from __future__ import annotations

import numpy as np

POWERS = np.asarray([81, 27, 9, 3, 1], dtype=np.uint32)
ZERO_QUINTET = 121
RUN_BASE = 243
MAX_RUN = 14


def pack_uint(values: np.ndarray, bitwidth: int) -> np.ndarray:
    """One row of ``bitwidth`` bits per value, MSB-first, then packbits."""
    values = np.ascontiguousarray(values)
    if values.size == 0:
        return np.empty(0, dtype=np.uint8)
    if np.any(values < 0) or np.any(values >= (1 << bitwidth)):
        raise ValueError(f"values do not fit in {bitwidth} bits")
    vals = values.astype(np.uint32).ravel()
    shifts = np.arange(bitwidth - 1, -1, -1, dtype=np.uint32)
    bits = ((vals[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits)


def unpack_uint(buffer: np.ndarray, bitwidth: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.uint32)
    needed_bits = count * bitwidth
    buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
    if buffer.size * 8 < needed_bits:
        raise ValueError(
            f"buffer has {buffer.size * 8} bits, need {needed_bits}")
    bits = np.unpackbits(buffer)[:needed_bits].astype(np.uint32)
    bits = bits.reshape(count, bitwidth)
    shifts = np.arange(bitwidth - 1, -1, -1, dtype=np.uint32)
    return (bits << shifts).sum(axis=1, dtype=np.uint32)


def pack_ternary(digits: np.ndarray) -> np.ndarray:
    arr = np.asarray(digits, dtype=np.uint8)
    pad = (-arr.size) % 5
    if pad:
        arr = np.concatenate([arr, np.full(pad, 1, dtype=np.uint8)])
    quintets = arr.reshape(-1, 5).astype(np.uint32)
    return (quintets * POWERS).sum(axis=1).astype(np.uint8)


def unpack_ternary(body: np.ndarray, count: int) -> np.ndarray:
    quintets = np.asarray(body, dtype=np.uint32)[:, None]
    digits = (quintets // POWERS) % 3
    return digits.ravel()[:count].astype(np.uint8)


def rle_encode(body: np.ndarray) -> np.ndarray:
    """Greedy scan: a zero-quintet run of 2..14 becomes one run byte."""
    out = []
    i = 0
    n = body.size
    while i < n:
        byte = int(body[i])
        if byte == ZERO_QUINTET:
            run = 1
            while (i + run < n and run < MAX_RUN
                   and int(body[i + run]) == ZERO_QUINTET):
                run += 1
            if run >= 2:
                out.append(RUN_BASE + run - 2)
                i += run
                continue
        out.append(byte)
        i += 1
    return np.asarray(out, dtype=np.uint8)


def rle_decode(stream: np.ndarray) -> np.ndarray:
    out = []
    for byte in stream:
        byte = int(byte)
        if byte >= RUN_BASE:
            out.extend([ZERO_QUINTET] * (byte - RUN_BASE + 2))
        else:
            out.append(byte)
    return np.asarray(out, dtype=np.uint8)
