"""CompLL common-operator library (Table 4) -- the runtime for generated code.

The paper's CompLL exposes a library of "highly-optimized common operators"
(sort, filter, map, reduce, random, concat, extract) that compression
algorithms are composed from; its code generator substitutes calls to them
with optimized CUDA.  Here the backend target is NumPy: the generated
Python code calls into this module, which implements the same operator
contracts.  Beyond Table 4, a few operators are *registered extensions*
(scatter, gather, argfilter, sample, quantile, argmax) -- the paper
explicitly supports registering new operators into the library (§4.4).

Builtin user-defined functions (``smaller``, ``greater``, ``add``,
``maxAbs``) and order keys (``ascending``, ``descending``) are provided,
as used in Fig. 5 (``reduce(gradient, smaller)``).
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..algorithms import packing
from ..algorithms.packing import ByteReader, ByteWriter, pack_uint, unpack_uint

__all__ = ["Runtime", "Cursor", "BUILTIN_UDFS", "BUILTIN_ORDERS"]

#: Named binary reduce functions with NumPy fast paths.
BUILTIN_UDFS = {
    "smaller": np.minimum.reduce,
    "greater": np.maximum.reduce,
    "add": np.add.reduce,
    "maxAbs": lambda arr: np.abs(arr).max(),
}

#: Named sort orders for ``sort(G, order)``.
BUILTIN_ORDERS = {"ascending", "descending"}

_DTYPE_TAGS = {
    "u1": np.uint8,
    "u2": np.uint16,
    "u4": np.uint32,
    "i4": np.int32,
    "f4": np.float32,
}


def _dtype_for(tag: str) -> np.dtype:
    try:
        return np.dtype(_DTYPE_TAGS[tag])
    except KeyError:
        raise ValueError(f"unknown serialization tag {tag!r}") from None


class Cursor:
    """Sequential reader over a compressed buffer (the ``extract`` operator)."""

    def __init__(self, buffer: np.ndarray):
        self._reader = ByteReader(buffer)

    def extract_scalar(self, tag: str):
        value = self._reader.scalar(tag if tag in ("u1", "u4", "f4", "i4")
                                    else "u1")
        return value

    def extract_array(self, tag: str, count: int) -> np.ndarray:
        count = int(count)
        if tag.startswith("b"):  # sub-byte packed: b1 / b2 / b4
            bitwidth = int(tag[1:])
            nbytes = (count * bitwidth + 7) // 8
            raw = self._reader.array(np.uint8, nbytes)
            return unpack_uint(raw, bitwidth, count)
        return self._reader.array(_dtype_for(tag), count)


class Runtime:
    """Operator implementations bound to one generated algorithm instance.

    Holds the RNG (so stochastic codecs are reproducible) and exposes every
    operator and scalar builtin the code generator may emit.
    """

    def __init__(self, seed: Optional[int] = 0):
        self._rng = np.random.default_rng(seed)

    # -- Table 4 operators --------------------------------------------------

    def sort(self, values: np.ndarray, order: str) -> np.ndarray:
        """sort(G, udf): order elements by a named order key."""
        arr = np.sort(np.asarray(values))
        if order == "descending":
            return arr[::-1].copy()
        if order == "ascending":
            return arr
        raise ValueError(f"unknown sort order {order!r}")

    def map(self, values: np.ndarray, udf: Callable,
            result_tag: str = "f4") -> np.ndarray:
        """map(G, udf): elementwise application; result dtype from the udf's
        declared return type."""
        arr = np.asarray(values)
        applied = np.frompyfunc(udf, 1, 1)(arr)
        if result_tag == "f4":
            return applied.astype(np.float32)
        if result_tag.startswith("b"):
            bitwidth = int(result_tag[1:])
            out = applied.astype(np.int64)
            return np.clip(out, 0, (1 << bitwidth) - 1)
        return applied.astype(_dtype_for(result_tag))

    def filter(self, values: np.ndarray, udf: Callable) -> np.ndarray:
        """filter(G, udf): keep elements where udf is truthy."""
        arr = np.asarray(values)
        mask = np.frompyfunc(udf, 1, 1)(arr).astype(bool)
        return arr[mask]

    def reduce(self, values: np.ndarray, udf) -> float:
        """reduce(G, udf): fold to a single value.

        Builtin names hit NumPy fast paths; arbitrary binary callables fold
        left-to-right.
        """
        arr = np.asarray(values)
        if arr.size == 0:
            raise ValueError("cannot reduce an empty array")
        if callable(udf) and getattr(udf, "__compll_builtin__", None):
            return float(BUILTIN_UDFS[udf.__compll_builtin__](arr))
        if isinstance(udf, str):
            return float(BUILTIN_UDFS[udf](arr))
        acc = arr[0]
        for item in arr[1:]:
            acc = udf(acc, item)
        return float(acc)

    def random(self, lo: float, hi: float) -> float:
        """random(a, b): one float in [a, b)."""
        return float(self._rng.uniform(lo, hi))

    def random_int(self, lo: int, hi: int) -> int:
        return int(self._rng.integers(lo, hi))

    def concat(self, parts) -> np.ndarray:
        """concat(a, ...): serialize tagged scalars/arrays into one buffer."""
        writer = ByteWriter()
        for value, tag in parts:
            if tag.startswith("a:"):
                elem_tag = tag[2:]
                arr = np.asarray(value)
                if elem_tag.startswith("b"):
                    bitwidth = int(elem_tag[1:])
                    clipped = np.clip(arr.astype(np.int64), 0,
                                      (1 << bitwidth) - 1)
                    writer.array(pack_uint(clipped, bitwidth))
                else:
                    writer.array(arr.astype(_dtype_for(elem_tag)))
            elif tag.startswith("b"):  # sub-byte scalar: stored in one byte
                writer.scalar(int(value), "u1")
            else:
                writer.scalar(value, tag)
        return writer.finish()

    def cursor(self, buffer: np.ndarray) -> Cursor:
        """extract(G') support: open a sequential metadata reader."""
        return Cursor(buffer)

    # -- registered extension operators --------------------------------------

    def argfilter(self, values: np.ndarray, udf: Callable) -> np.ndarray:
        """Indices (ascending) of elements where udf is truthy."""
        arr = np.asarray(values)
        mask = np.frompyfunc(udf, 1, 1)(arr).astype(bool)
        return np.nonzero(mask)[0].astype(np.uint32)

    def scatter(self, size: int, indices: np.ndarray,
                values: np.ndarray) -> np.ndarray:
        """Dense float32 output of ``size`` with values at indices."""
        out = np.zeros(int(size), dtype=np.float32)
        out[np.asarray(indices, dtype=np.int64)] = np.asarray(
            values, dtype=np.float32)
        return out

    def gather(self, values: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return np.asarray(values)[np.asarray(indices, dtype=np.int64)]

    def sample(self, values: np.ndarray, rate: float,
               min_count: int) -> np.ndarray:
        """Strided deterministic subsample of at least ``min_count`` elements."""
        arr = np.asarray(values)
        n = arr.size
        sample_size = max(int(min_count), int(n * rate))
        if sample_size >= n:
            return arr
        stride = n // sample_size
        return arr[::stride]

    def quantile(self, values: np.ndarray, q: float) -> float:
        return float(np.quantile(np.asarray(values), q))

    def argmax(self, values: np.ndarray) -> np.ndarray:
        """Index of the maximum, as a 1-element uint32 array."""
        return np.asarray([int(np.argmax(np.asarray(values)))],
                          dtype=np.uint32)

    # Registered for AdaComp (§4.4): bin-local adaptive thresholds.

    def bin_threshold(self, values: np.ndarray, bin_size: int) -> np.ndarray:
        """Per-element threshold: half the max magnitude of its bin."""
        arr = np.abs(np.asarray(values, dtype=np.float32))
        n = arr.size
        bin_size = int(bin_size)
        if bin_size < 1:
            raise ValueError(f"bin_size must be >= 1, got {bin_size}")
        nbins = (n + bin_size - 1) // bin_size
        padded = np.zeros(nbins * bin_size, dtype=np.float32)
        padded[:n] = arr
        bin_max = padded.reshape(nbins, bin_size).max(axis=1)
        return np.repeat(bin_max / 2.0, bin_size)[:n]

    def argfilter_ge_abs(self, values: np.ndarray,
                         thresholds: np.ndarray) -> np.ndarray:
        """Indices where |values| >= max(thresholds, tiny), ascending."""
        mags = np.abs(np.asarray(values))
        thr = np.maximum(np.asarray(thresholds), 1e-30)
        return np.nonzero(mags >= thr)[0].astype(np.uint32)

    # Registered for 3LC (§4.4): base-3^5 packing and zero-run encoding,
    # sharing the hand-written codec's kernels.

    def pack_ternary(self, digits: np.ndarray) -> np.ndarray:
        """Pack ternary digits (0/1/2) five-per-byte, padding with 1s."""
        return packing.pack_ternary(digits)

    def unpack_ternary(self, body: np.ndarray, count: int) -> np.ndarray:
        """Inverse of :meth:`pack_ternary`; returns ``count`` digits."""
        # int32, not uint8: scalar udfs subtract from these digits, and
        # unsigned wrap-around would corrupt the sign.
        return packing.unpack_ternary(body, int(count)).astype(np.int32)

    def rle(self, body: np.ndarray) -> np.ndarray:
        """Zero-run encode the all-zero-quintet byte (3LC's trick)."""
        return packing.rle_encode(body)

    def unrle(self, stream: np.ndarray) -> np.ndarray:
        return packing.rle_decode(stream)

    # -- scalar builtins usable inside udf bodies ----------------------------

    @staticmethod
    def floor(x):
        return math.floor(x)

    @staticmethod
    def ceil(x):
        return math.ceil(x)

    @staticmethod
    def abs(x):
        return abs(x)

    @staticmethod
    def sqrt(x):
        return math.sqrt(x)

    @staticmethod
    def exp(x):
        return math.exp(x)

    @staticmethod
    def max2(a, b):
        return a if a >= b else b

    @staticmethod
    def min2(a, b):
        return a if a <= b else b

    @staticmethod
    def size(values) -> int:
        return int(np.asarray(values).size)

    # -- named builtin udf handles (passed to reduce) -------------------------

    def builtin_udf(self, name: str):
        if name not in BUILTIN_UDFS:
            raise ValueError(f"unknown builtin udf {name!r}")

        def handle(*args):
            raise TypeError(
                f"builtin udf {name!r} can only be passed to reduce()")

        handle.__compll_builtin__ = name
        return handle
