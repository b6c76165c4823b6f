"""Tests for CompLL's §4.4 extensibility case studies (AdaComp, 3LC) and
the registered extension operators they rely on."""

import numpy as np
import pytest

from repro.algorithms import AdaComp, ThreeLC
from repro.compll import build, dsl_source, loc_stats
from repro.compll.operators import Runtime


def random_gradient(n=2000, seed=0, scale=0.1):
    return (np.random.default_rng(seed).standard_normal(n) * scale
            ).astype(np.float32)


# ------------------------------------------------------ registered operators

def test_bin_threshold_operator():
    rt = Runtime()
    values = np.asarray([1.0, 0.2, -4.0, 0.1,   0.5, 0.5, 0.5, 0.5],
                        dtype=np.float32)
    thr = rt.bin_threshold(values, 4)
    np.testing.assert_allclose(thr, [2.0] * 4 + [0.25] * 4)


def test_bin_threshold_partial_last_bin():
    rt = Runtime()
    thr = rt.bin_threshold(np.asarray([2.0, 1.0, 8.0], dtype=np.float32), 2)
    assert thr.shape == (3,)
    np.testing.assert_allclose(thr, [1.0, 1.0, 4.0])


def test_bin_threshold_validation():
    with pytest.raises(ValueError):
        Runtime().bin_threshold(np.ones(4), 0)


def test_argfilter_ge_abs_operator():
    rt = Runtime()
    values = np.asarray([1.0, -3.0, 0.1], dtype=np.float32)
    thr = np.asarray([0.5, 5.0, 0.05])
    np.testing.assert_array_equal(rt.argfilter_ge_abs(values, thr), [0, 2])


def test_argfilter_ge_abs_zero_threshold_excludes_zeros():
    rt = Runtime()
    values = np.zeros(4, dtype=np.float32)
    thr = np.zeros(4)
    assert rt.argfilter_ge_abs(values, thr).size == 0


def test_pack_unpack_ternary_roundtrip():
    rt = Runtime()
    digits = np.asarray([0, 1, 2, 2, 1, 0, 0, 1], dtype=np.uint8)
    packed = rt.pack_ternary(digits)
    assert packed.size == 2  # ceil(8/5) quintet bytes
    out = rt.unpack_ternary(packed, 8)
    np.testing.assert_array_equal(out, digits)


def test_rle_unrle_roundtrip():
    rt = Runtime()
    # 121 is the all-zero-quintet byte; runs of it must compress.
    body = np.asarray([7, 121, 121, 121, 121, 9, 121], dtype=np.uint8)
    encoded = rt.rle(body)
    assert encoded.size < body.size
    np.testing.assert_array_equal(rt.unrle(encoded), body)


# ------------------------------------------------------ DSL-built algorithms

def test_adacomp_dsl_compiles_and_roundtrips():
    algo = build("adacomp")
    grad = random_gradient(1500, seed=1)
    out = algo.roundtrip(grad)
    assert out.shape == grad.shape
    kept = np.nonzero(out)[0]
    np.testing.assert_array_equal(out[kept], grad[kept])


def test_adacomp_dsl_equivalent_to_handwritten():
    grad = random_gradient(4096, seed=2)
    ours = AdaComp(bin_size=512).roundtrip(grad)
    generated = build("adacomp", params={"bin_size": 512}).roundtrip(grad)
    np.testing.assert_array_equal(generated, ours)


def test_adacomp_dsl_respects_bin_size_param():
    grad = random_gradient(4096, seed=3)
    fine = build("adacomp", params={"bin_size": 64}).roundtrip(grad)
    coarse = build("adacomp", params={"bin_size": 2048}).roundtrip(grad)
    # Smaller bins adapt locally and keep more elements.
    assert np.count_nonzero(fine) > np.count_nonzero(coarse)


def test_threelc_dsl_compiles_and_roundtrips():
    algo = build("threelc")
    grad = random_gradient(777, seed=4)
    out = algo.roundtrip(grad)
    assert out.shape == grad.shape
    scale = np.abs(grad).max()
    for v in np.unique(out):
        assert min(abs(v - s) for s in (-scale, 0.0, scale)) < 1e-5


def test_threelc_dsl_equivalent_to_handwritten():
    grad = random_gradient(2000, seed=5)
    ours = ThreeLC().roundtrip(grad)
    generated = build("threelc").roundtrip(grad)
    np.testing.assert_allclose(generated, ours, atol=1e-6)


def test_threelc_dsl_bytes_identical_to_handwritten():
    """Both call the same packing kernels, so the wire bytes match."""
    sparse = np.zeros(3000, dtype=np.float32)
    sparse[::97] = 1.0
    generated, ours = build("threelc"), ThreeLC()
    for grad in (random_gradient(2000, seed=5), sparse):
        buf = ours.encode(grad)
        assert generated.encode(grad).tobytes() == buf.tobytes()
        np.testing.assert_array_equal(generated.decode(buf), ours.decode(buf))


def test_threelc_dsl_compresses_sparse_input():
    algo = build("threelc")
    grad = np.zeros(10_000, dtype=np.float32)
    grad[5] = 1.0
    buf = algo.encode(grad)
    assert buf.size < 10_000 / 5 / 2


def test_threelc_dsl_zero_gradient():
    algo = build("threelc")
    out = algo.roundtrip(np.zeros(64, dtype=np.float32))
    np.testing.assert_allclose(out, 0.0)


def test_case_study_loc_matches_paper_scale():
    """§4.4: 3LC's encode takes ~69 DSL lines in the paper; our rendition
    (with its packing logic as registered operators) is well under that,
    and AdaComp stays in the tens of lines too."""
    for name in ("adacomp", "threelc"):
        stats = loc_stats(dsl_source(name))
        assert stats.logic_lines + stats.udf_lines < 69
        assert stats.integration_lines == 0


def test_case_studies_work_inside_hipress():
    from repro.cluster import ec2_v100_cluster
    from repro.hipress import TrainingJob
    job = TrainingJob(model="resnet50", algorithm=build("adacomp"),
                      cluster=ec2_v100_cluster(2))
    result = job.run()
    assert result.iteration_time > 0
