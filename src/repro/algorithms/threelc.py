"""3LC (Lim et al., 2018) -- ternary quantization with zero-run encoding.

The paper's second §4.4 extensibility case study.  3LC quantizes each
element to {-1, 0, +1} scaled by the tensor's max magnitude, packs five
ternary digits per byte (3**5 = 243 <= 256), and then run-length-encodes
runs of the all-zero byte -- gradient tensors are mostly near-zero, so the
all-zero quintet dominates and the stream shrinks well below the 1.6
bits/element of plain base-3 packing.

Buffer layout: ``count:u4 | scale:f4 | body_len:u4 | rle bytes``.
Bytes 0..242 are literal quintets; bytes 243..255 encode a run of
2..14 all-zero quintets.
"""

from __future__ import annotations

import numpy as np

from .base import CompressionAlgorithm, KernelProfile
from .packing import (ByteReader, ByteWriter, pack_ternary, rle_decode,
                      rle_encode, unpack_ternary)

__all__ = ["ThreeLC"]

#: Decoded value of ternary digits 0/1/2, before scaling.
_LEVELS = np.asarray([-1, 0, 1], dtype=np.float32)


class ThreeLC(CompressionAlgorithm):
    """Ternary quantization + base-3^5 packing + zero-run encoding."""

    name = "3lc"
    category = "quantization"
    profile = KernelProfile(encode_passes=3, decode_passes=2,
                            encode_kernels=4, decode_kernels=2)

    METADATA_BYTES = 12

    def __init__(self, sparsity_multiplier: float = 1.0):
        if sparsity_multiplier <= 0:
            raise ValueError(
                f"sparsity_multiplier must be positive, got {sparsity_multiplier}")
        self.sparsity_multiplier = float(sparsity_multiplier)

    # -- quantization -------------------------------------------------------

    def _quantize(self, grad: np.ndarray) -> tuple:
        scale = float(np.abs(grad).max()) * self.sparsity_multiplier
        if scale == 0.0:
            return np.full(grad.size, 1, dtype=np.uint8), 0.0
        digits = np.rint(grad / scale).astype(np.int8)
        np.clip(digits, -1, 1, out=digits)
        return (digits + 1).astype(np.uint8), scale  # ternary digits 0/1/2

    # -- codec --------------------------------------------------------------

    def encode(self, gradient: np.ndarray) -> np.ndarray:
        grad = np.ascontiguousarray(gradient, dtype=np.float32).ravel()
        if grad.size == 0:
            raise ValueError("cannot compress an empty gradient")
        digits, scale = self._quantize(grad)
        rle = rle_encode(pack_ternary(digits))
        return (ByteWriter()
                .scalar(grad.size, "u4")
                .scalar(scale, "f4")
                .scalar(rle.size, "u4")
                .array(rle)
                .finish())

    def decode(self, compressed: np.ndarray) -> np.ndarray:
        reader = ByteReader(compressed)
        count = int(reader.scalar("u4"))
        scale = float(reader.scalar("f4"))
        body_len = int(reader.scalar("u4"))
        body = rle_decode(reader.array(np.uint8, body_len))
        return unpack_ternary(body, count, _LEVELS * np.float32(scale))

    def compressed_nbytes(self, num_elements: int) -> int:
        """Planning estimate: assume ~60 % of quintet bytes RLE away."""
        if num_elements <= 0:
            raise ValueError(f"need positive element count, got {num_elements}")
        quintet_bytes = (num_elements + 4) // 5
        return self.METADATA_BYTES + max(1, int(quintet_bytes * 0.4))
