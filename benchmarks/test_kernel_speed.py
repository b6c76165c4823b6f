"""Bench: §4.4 kernel-speed claims, plus real wall-clock codec timings.

The first part regenerates the paper's CompLL-vs-OSS comparisons from the
GPU cost model; the second measures the *actual* NumPy encode/decode
wall-clock of every codec on this machine (true pytest-benchmark usage,
useful for tracking regressions in the reference implementations).
"""

import numpy as np
import pytest

from repro.algorithms import (DGC, AdaComp, GradDrop, OneBit, TBQ, TernGrad,
                              ThreeLC)
from repro.experiments import kernel_speed

GRADIENT = (np.random.default_rng(0).standard_normal(1_000_000) * 0.1
            ).astype(np.float32)


def test_kernel_speed_model(benchmark, report):
    rows = benchmark(kernel_speed.run)
    report("kernel_speed", kernel_speed.render(rows))
    by_algo = {r.algorithm: r for r in rows}
    assert by_algo["onebit"].speedup == pytest.approx(35.6, rel=0.01)
    assert by_algo["dgc"].speedup > 2


#: Every registry codec.
WALLCLOCK_CODECS = [
    OneBit(), TBQ(threshold=0.25), TernGrad(bitwidth=2), DGC(rate=0.001),
    GradDrop(keep_rate=0.01), AdaComp(), ThreeLC(),
]


@pytest.mark.parametrize("algo", WALLCLOCK_CODECS, ids=lambda a: a.name)
def test_encode_wallclock(benchmark, algo):
    buf = benchmark(algo.encode, GRADIENT)
    assert buf.size < GRADIENT.nbytes


@pytest.mark.parametrize("algo", WALLCLOCK_CODECS, ids=lambda a: a.name)
def test_decode_wallclock(benchmark, algo):
    buf = algo.encode(GRADIENT)
    out = benchmark(algo.decode, buf)
    assert out.size == GRADIENT.size
