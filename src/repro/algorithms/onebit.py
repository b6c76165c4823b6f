"""1-bit SGD quantization (Seide et al., 2014) -- the paper's "onebit".

Every gradient element is reduced to its sign bit; two per-tensor scales
(the mean of the positive elements and the mean of the negative elements)
let decode reconstruct an unbiased-ish estimate.  A 1-bit representation
reduces transmitted volume by 96.9 % (paper §2.4): 1 bit + 12 bytes of
metadata versus 32 bits per element.

In the original algorithm the quantization error is fed back into the next
iteration's gradient; that residual state lives in
:class:`repro.algorithms.feedback.ErrorFeedback`, keeping this codec pure.
"""

from __future__ import annotations

import numpy as np

from .base import CompressionAlgorithm, KernelProfile
from .packing import ByteReader, ByteWriter, unpack_bits

__all__ = ["OneBit"]


class OneBit(CompressionAlgorithm):
    """Sign quantization with per-sign mean scales.

    Buffer layout: ``count:u4 | scale_pos:f4 | scale_neg:f4 | signbits``.
    """

    name = "onebit"
    category = "quantization"
    # Encode: one fused reduction pass (positive/negative sums + counts) and
    # one pack pass.  Decode: a single scatter from bits.
    profile = KernelProfile(encode_passes=2, decode_passes=1,
                            encode_kernels=2, decode_kernels=1)

    METADATA_BYTES = 12

    def encode(self, gradient: np.ndarray) -> np.ndarray:
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        if grad.size == 0:
            raise ValueError("cannot compress an empty gradient")
        positive = grad >= 0
        npos = int(positive.sum())
        nneg = grad.size - npos
        scale_pos = float(grad[positive].sum() / npos) if npos else 0.0
        scale_neg = float(grad[~positive].sum() / nneg) if nneg else 0.0
        bits = np.packbits(positive)
        return (ByteWriter()
                .scalar(grad.size, "u4")
                .scalar(scale_pos, "f4")
                .scalar(scale_neg, "f4")
                .array(bits)
                .finish())

    def decode(self, compressed: np.ndarray) -> np.ndarray:
        reader = ByteReader(compressed)
        count = int(reader.scalar("u4"))
        scale_pos = float(reader.scalar("f4"))
        scale_neg = float(reader.scalar("f4"))
        bits = unpack_bits(reader.rest(), count)
        return np.where(bits, np.float32(scale_pos), np.float32(scale_neg))

    def compressed_nbytes(self, num_elements: int) -> int:
        if num_elements <= 0:
            raise ValueError(f"need positive element count, got {num_elements}")
        return self.METADATA_BYTES + (num_elements + 7) // 8
