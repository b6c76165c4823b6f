"""Unit tests for the gradient compression algorithms."""

import numpy as np
import pytest

from repro.algorithms import (
    DGC,
    AdaComp,
    ByteWriter,
    GradDrop,
    OneBit,
    TBQ,
    TernGrad,
    ThreeLC,
    available_algorithms,
    get_algorithm,
    register_algorithm,
)

# TBQ's absolute threshold is tuned to the test gradients' N(0, 0.1) scale
# so it selects ~1% of elements, as in its published configuration.
ALL_ALGORITHMS = [OneBit(), TBQ(threshold=0.25), TernGrad(), DGC(),
                  GradDrop(), AdaComp(), ThreeLC()]


def random_gradient(n=1000, seed=0, scale=0.1):
    return (np.random.default_rng(seed).standard_normal(n) * scale
            ).astype(np.float32)


# --------------------------------------------------------------- generic

@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_decode_shape_and_dtype(algo):
    grad = random_gradient(777)
    out = algo.roundtrip(grad)
    assert out.shape == grad.shape
    assert out.dtype == np.float32


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_encode_produces_uint8(algo):
    buf = algo.encode(random_gradient(100))
    assert buf.dtype == np.uint8


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_empty_gradient_rejected(algo):
    with pytest.raises(ValueError):
        algo.encode(np.empty(0, dtype=np.float32))


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_compression_actually_shrinks(algo):
    n = 100_000
    grad = random_gradient(n)
    buf = algo.encode(grad)
    assert buf.size < n * 4 * 0.5, f"{algo.name} failed to shrink"


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_compression_rate_estimate_positive(algo):
    r = algo.compression_rate(1_000_000)
    assert 0 < r < 1


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_single_element_gradient(algo):
    grad = np.asarray([0.5], dtype=np.float32)
    out = algo.roundtrip(grad)
    assert out.shape == (1,)


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_all_zero_gradient(algo):
    grad = np.zeros(64, dtype=np.float32)
    out = algo.roundtrip(grad)
    np.testing.assert_allclose(out, 0.0, atol=1e-7)


@pytest.mark.parametrize("algo", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_cost_model_times_positive_and_monotonic(algo):
    from repro.gpu import V100
    t_small = algo.encode_time(1e6, V100)
    t_big = algo.encode_time(1e9, V100)
    assert 0 < t_small < t_big
    d_small = algo.decode_time(1e6, V100)
    d_big = algo.decode_time(1e9, V100)
    assert 0 < d_small < d_big


# --------------------------------------------------------------- onebit

def test_onebit_reduction_matches_paper():
    """1-bit quantization reduces volume by ~96.9% (paper, §2.4)."""
    algo = OneBit()
    n = 1_000_000
    reduction = 1 - algo.compressed_nbytes(n) / (4 * n)
    assert reduction == pytest.approx(0.969, abs=0.002)


def test_onebit_decode_values_are_sign_means():
    algo = OneBit()
    grad = np.asarray([1.0, 3.0, -2.0, -4.0], dtype=np.float32)
    out = algo.roundtrip(grad)
    np.testing.assert_allclose(out, [2.0, 2.0, -3.0, -3.0])


def test_onebit_preserves_signs():
    algo = OneBit()
    grad = random_gradient(999)
    out = algo.roundtrip(grad)
    np.testing.assert_array_equal(out >= 0, grad >= 0)


def test_onebit_all_positive():
    algo = OneBit()
    grad = np.asarray([1.0, 2.0, 3.0], dtype=np.float32)
    out = algo.roundtrip(grad)
    np.testing.assert_allclose(out, 2.0)


def test_onebit_mean_preserved():
    """Sign-mean reconstruction preserves the overall mean exactly."""
    algo = OneBit()
    grad = random_gradient(10_000, seed=3)
    out = algo.roundtrip(grad)
    assert out.mean() == pytest.approx(grad.mean(), abs=1e-6)


# --------------------------------------------------------------- tbq

def test_tbq_thresholding():
    algo = TBQ(threshold=1.0)
    grad = np.asarray([0.5, 1.5, -2.0, -0.1, 1.0], dtype=np.float32)
    out = algo.roundtrip(grad)
    np.testing.assert_allclose(out, [0.0, 1.0, -1.0, 0.0, 1.0])


def test_tbq_nothing_selected():
    algo = TBQ(threshold=100.0)
    out = algo.roundtrip(random_gradient(50))
    np.testing.assert_allclose(out, 0.0)


def test_tbq_validation():
    with pytest.raises(ValueError):
        TBQ(threshold=0)
    with pytest.raises(ValueError):
        TBQ(expected_density=0)


# --------------------------------------------------------------- terngrad

def test_terngrad_values_on_grid():
    algo = TernGrad(bitwidth=2)
    grad = random_gradient(500, seed=1)
    out = algo.roundtrip(grad)
    lo, hi = grad.min(), grad.max()
    gap = (hi - lo) / 3
    levels = lo + gap * np.arange(4)
    for v in np.unique(out):
        assert np.min(np.abs(levels - v)) < 1e-5


def test_terngrad_error_bounded_by_gap():
    algo = TernGrad(bitwidth=4, seed=7)
    grad = random_gradient(2000, seed=2)
    out = algo.roundtrip(grad)
    gap = algo.quantization_gap(grad)
    assert np.max(np.abs(out - grad)) <= gap + 1e-6


def test_terngrad_unbiased():
    """Stochastic rounding: averaging many encodes converges to the input."""
    grad = np.asarray([0.3, -0.7, 0.05, 0.9, -1.0, 1.0], dtype=np.float32)
    algo = TernGrad(bitwidth=2, seed=42)
    mean = np.mean([algo.roundtrip(grad) for _ in range(3000)], axis=0)
    gap = algo.quantization_gap(grad)
    np.testing.assert_allclose(mean, grad, atol=gap * 0.05)


def test_terngrad_constant_gradient():
    algo = TernGrad()
    grad = np.full(100, 0.25, dtype=np.float32)
    np.testing.assert_allclose(algo.roundtrip(grad), 0.25)


def test_terngrad_higher_bitwidth_less_error():
    grad = random_gradient(5000, seed=5)
    err2 = np.abs(TernGrad(bitwidth=2, seed=0).roundtrip(grad) - grad).mean()
    err8 = np.abs(TernGrad(bitwidth=8, seed=0).roundtrip(grad) - grad).mean()
    assert err8 < err2 / 10


def test_terngrad_compressed_size_scales_with_bitwidth():
    n = 10_000
    assert (TernGrad(bitwidth=2).compressed_nbytes(n)
            < TernGrad(bitwidth=4).compressed_nbytes(n)
            < TernGrad(bitwidth=8).compressed_nbytes(n))


def test_terngrad_bitwidth_validation():
    with pytest.raises(ValueError):
        TernGrad(bitwidth=0)
    with pytest.raises(ValueError):
        TernGrad(bitwidth=9)


# --------------------------------------------------------------- dgc

def test_dgc_keeps_exactly_top_k():
    algo = DGC(rate=0.01)
    grad = random_gradient(1000, seed=4)
    out = algo.roundtrip(grad)
    nonzero = np.nonzero(out)[0]
    assert nonzero.size == 10
    # Kept values are exact.
    np.testing.assert_array_equal(out[nonzero], grad[nonzero])
    # They are the largest magnitudes.
    kept_min = np.abs(grad[nonzero]).min()
    dropped = np.setdiff1d(np.arange(1000), nonzero)
    assert np.abs(grad[dropped]).max() <= kept_min + 1e-7


def test_dgc_rate_one_is_lossless():
    algo = DGC(rate=1.0)
    grad = random_gradient(128)
    np.testing.assert_array_equal(algo.roundtrip(grad), grad)


def test_dgc_tiny_gradient_keeps_one():
    algo = DGC(rate=0.001)
    grad = np.asarray([0.1, -0.9, 0.5], dtype=np.float32)
    out = algo.roundtrip(grad)
    np.testing.assert_allclose(out, [0.0, -0.9, 0.0])


def test_dgc_compressed_size_tracks_rate():
    n = 1_000_000
    assert DGC(rate=0.001).compressed_nbytes(n) < DGC(rate=0.01).compressed_nbytes(n)
    # 0.1% of elements at 8 bytes each ~ 0.2% of original size.
    assert DGC(rate=0.001).compression_rate(n) == pytest.approx(0.002, rel=0.01)


def test_dgc_rate_validation():
    with pytest.raises(ValueError):
        DGC(rate=0)
    with pytest.raises(ValueError):
        DGC(rate=1.5)


# --------------------------------------------------------------- graddrop

def test_graddrop_keeps_approximately_rate():
    algo = GradDrop(keep_rate=0.05)
    grad = random_gradient(20_000, seed=6)
    out = algo.roundtrip(grad)
    kept = np.count_nonzero(out)
    assert 0.5 * 1000 <= kept <= 2 * 1000  # ~5% of 20k, loose band


def test_graddrop_kept_values_exact():
    algo = GradDrop(keep_rate=0.1)
    grad = random_gradient(5000, seed=8)
    out = algo.roundtrip(grad)
    kept = np.nonzero(out)[0]
    np.testing.assert_array_equal(out[kept], grad[kept])


def test_graddrop_keeps_largest():
    algo = GradDrop(keep_rate=0.01)
    grad = random_gradient(10_000, seed=9)
    out = algo.roundtrip(grad)
    kept_min = np.abs(out[np.nonzero(out)]).min()
    # The single largest element must always survive.
    assert out[np.argmax(np.abs(grad))] != 0
    assert kept_min > 0


def test_graddrop_constant_gradient_degenerate():
    algo = GradDrop(keep_rate=0.01)
    grad = np.full(1000, 0.5, dtype=np.float32)
    out = algo.roundtrip(grad)
    assert np.count_nonzero(out) >= 1


# --------------------------------------------------------------- adacomp

def test_adacomp_selects_bin_maxima():
    algo = AdaComp(bin_size=4)
    grad = np.asarray([0.1, 0.2, 1.0, 0.1,   # bin 1: max 1.0
                       0.01, 0.02, 0.03, 0.8],  # bin 2: max 0.8
                      dtype=np.float32)
    out = algo.roundtrip(grad)
    assert out[2] == pytest.approx(1.0)
    assert out[7] == pytest.approx(0.8)
    # Elements far below half the bin max are dropped.
    assert out[0] == 0.0 and out[4] == 0.0


def test_adacomp_adapts_per_bin():
    """A uniform bin keeps everything; a peaked bin keeps the peak."""
    algo = AdaComp(bin_size=4)
    grad = np.asarray([0.5, 0.5, 0.5, 0.5,
                       0.01, 0.01, 0.01, 1.0], dtype=np.float32)
    out = algo.roundtrip(grad)
    assert np.count_nonzero(out[:4]) == 4
    assert np.count_nonzero(out[4:]) == 1


def test_adacomp_validation():
    with pytest.raises(ValueError):
        AdaComp(bin_size=0)


# --------------------------------------------------------------- 3lc

def test_threelc_values_ternary():
    algo = ThreeLC()
    grad = random_gradient(501, seed=10)
    out = algo.roundtrip(grad)
    scale = np.abs(grad).max()
    for v in np.unique(out):
        assert min(abs(v - s) for s in (-scale, 0.0, scale)) < 1e-6


def test_threelc_zero_runs_compress():
    algo = ThreeLC()
    grad = np.zeros(10_000, dtype=np.float32)
    grad[0] = 1.0
    buf = algo.encode(grad)
    # Mostly-zero input must compress far below 1.6 bits/element.
    assert buf.size < 10_000 / 5 / 2


def test_threelc_roundtrip_error_bounded():
    algo = ThreeLC()
    grad = random_gradient(1000, seed=11)
    out = algo.roundtrip(grad)
    scale = np.abs(grad).max()
    assert np.max(np.abs(out - grad)) <= scale / 2 + 1e-6


def test_threelc_padding_lengths():
    algo = ThreeLC()
    for n in (1, 4, 5, 6, 9, 10, 11):
        grad = random_gradient(n, seed=n)
        assert algo.roundtrip(grad).size == n


# ------------------------------------------------------- short payloads
#
# A header promising more elements than the payload carries must raise,
# naming the bytes needed and the bytes present, never decode short.

def test_onebit_short_payload_raises():
    buf = (ByteWriter().scalar(100, "u4").scalar(1.0, "f4")
           .scalar(-1.0, "f4").array(np.asarray([0xFF], dtype=np.uint8))
           .finish())
    with pytest.raises(ValueError, match="need 13 bytes, have 1"):
        OneBit().decode(buf)


def test_threelc_short_payload_raises():
    buf = (ByteWriter().scalar(100, "u4").scalar(1.0, "f4").scalar(1, "u4")
           .array(np.asarray([5], dtype=np.uint8)).finish())
    with pytest.raises(ValueError, match="need 20 bytes, have 1"):
        ThreeLC().decode(buf)


def test_threelc_short_run_payload_raises():
    # One run byte expands to 14 quintets: still short of the 20 needed.
    buf = (ByteWriter().scalar(100, "u4").scalar(1.0, "f4").scalar(1, "u4")
           .array(np.asarray([255], dtype=np.uint8)).finish())
    with pytest.raises(ValueError, match="need 20 bytes, have 14"):
        ThreeLC().decode(buf)


def test_tbq_short_sign_field_raises():
    buf = (ByteWriter().scalar(100, "u4").scalar(0.1, "f4").scalar(20, "u4")
           .array(np.arange(20, dtype=np.uint32))
           .array(np.asarray([1, 2], dtype=np.uint8)).finish())
    with pytest.raises(ValueError, match="need 3 bytes, have 2"):
        TBQ().decode(buf)


@pytest.mark.parametrize("algo", [OneBit(), ThreeLC(), TBQ(threshold=0.05)],
                         ids=lambda a: a.name)
def test_truncated_buffers_raise(algo):
    grad = random_gradient(403, seed=5)
    buf = algo.encode(grad)
    np.testing.assert_array_equal(algo.decode(buf), algo.roundtrip(grad))
    with pytest.raises(ValueError):
        algo.decode(buf[:-1])


# --------------------------------------------------------------- registry

def test_registry_contains_all():
    names = available_algorithms()
    for expected in ("onebit", "tbq", "terngrad", "dgc", "graddrop",
                     "adacomp", "3lc"):
        assert expected in names


def test_get_algorithm_with_params():
    algo = get_algorithm("dgc", rate=0.05)
    assert isinstance(algo, DGC)
    assert algo.rate == 0.05


def test_get_algorithm_unknown():
    with pytest.raises(KeyError):
        get_algorithm("nope")


def test_register_duplicate_rejected():
    with pytest.raises(ValueError):
        register_algorithm("onebit", OneBit)
