"""Threshold Binary Quantization (Strom, 2015) -- the paper's "TBQ".

Elements whose magnitude exceeds a fixed threshold ``tau`` are transmitted
as (index, sign) pairs and reconstructed as ``+/- tau``; everything else is
dropped.  The quantization residual is meant to be carried to the next
iteration (see :class:`repro.algorithms.feedback.ErrorFeedback`).

Buffer layout: ``count:u4 | tau:f4 | nsel:u4 | indices:u4[nsel] | signbits``.

The compressed size is data-dependent; for planning, the codec reports the
size at its ``expected_density`` (fraction of elements above threshold),
mirroring how the paper profiles the compression rate ``r``.
"""

from __future__ import annotations

import numpy as np

from .base import CompressionAlgorithm, KernelProfile
from .packing import ByteReader, ByteWriter, unpack_bits

__all__ = ["TBQ"]


class TBQ(CompressionAlgorithm):
    """Fixed-threshold ternarization transmitted sparsely."""

    name = "tbq"
    category = "quantization"
    # Encode: threshold scan + compaction.  Decode: sparse scatter.
    profile = KernelProfile(encode_passes=2, decode_passes=1,
                            encode_kernels=2, decode_kernels=1)

    METADATA_BYTES = 12

    def __init__(self, threshold: float = 0.01,
                 expected_density: float = 0.01):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if not 0 < expected_density <= 1:
            raise ValueError(
                f"expected_density must be in (0, 1], got {expected_density}")
        self.threshold = float(threshold)
        self.expected_density = float(expected_density)

    def encode(self, gradient: np.ndarray) -> np.ndarray:
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        if grad.size == 0:
            raise ValueError("cannot compress an empty gradient")
        selected = np.nonzero(np.abs(grad) >= self.threshold)[0]
        signs = grad[selected] > 0
        return (ByteWriter()
                .scalar(grad.size, "u4")
                .scalar(self.threshold, "f4")
                .scalar(selected.size, "u4")
                .array(selected.astype(np.uint32))
                .array(np.packbits(signs))
                .finish())

    def decode(self, compressed: np.ndarray) -> np.ndarray:
        reader = ByteReader(compressed)
        count = int(reader.scalar("u4"))
        tau = float(reader.scalar("f4"))
        nsel = int(reader.scalar("u4"))
        indices = reader.array(np.uint32, nsel)
        signs = unpack_bits(reader.rest(), nsel)
        out = np.zeros(count, dtype=np.float32)
        out[indices] = np.where(signs, np.float32(tau), np.float32(-tau))
        return out

    def compressed_nbytes(self, num_elements: int) -> int:
        if num_elements <= 0:
            raise ValueError(f"need positive element count, got {num_elements}")
        nsel = max(1, int(num_elements * self.expected_density))
        return self.METADATA_BYTES + 4 * nsel + (nsel + 7) // 8
