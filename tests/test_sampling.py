"""Tests for random-variate sampling and seed-stream management."""

import numpy as np
import pytest

from mmwchan.sampling import (
    RAY_COUNT_MAX,
    RAY_COUNT_MIN,
    RngStream,
    ar1_complex_sequence,
    sample_cluster_count,
    sample_complex_gain,
    sample_laplacian,
    sample_ray_count,
)

# Mean of max{Poisson(1.9), 1}, from summing the exact pmf:
#   E = sum_{k>=1} k * P[N=k] + 1 * P[N=0].
CLAMPED_POISSON_MEAN = 2.049568619222635
MEAN_RTOL = 0.02
LAPLACE_STD_RTOL = 0.01


def test_rng_stream_is_reproducible():
    a = RngStream(123, 4).generator().standard_normal(8)
    b = RngStream(123, 4).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_id():
    a = RngStream(123, 0).generator().standard_normal(8)
    b = RngStream(123, 1).generator().standard_normal(8)
    assert not np.array_equal(a, b)


def test_rng_substream_keeps_seed():
    child = RngStream(9, 2).substream(5)
    assert child.seed == 9
    assert child.stream_id == 5


def test_cluster_count_never_below_one():
    rng = np.random.default_rng(0)
    counts = sample_cluster_count(1.9, rng, size=20_000)
    assert counts.min() >= 1
    assert counts.dtype.kind == "i"


def test_cluster_count_mean_matches_clamped_poisson():
    rng = np.random.default_rng(7)
    counts = sample_cluster_count(1.9, rng, size=1_000_000)
    assert np.mean(counts) == pytest.approx(CLAMPED_POISSON_MEAN, rel=MEAN_RTOL)


def test_cluster_count_pmf_matches_poisson_tail():
    # P[N=k] for k >= 2 must equal the plain Poisson pmf; the k=1 bin
    # absorbs the k=0 mass.
    rng = np.random.default_rng(21)
    lam = 1.9
    counts = sample_cluster_count(lam, rng, size=500_000)
    p1 = np.exp(-lam) * (1.0 + lam)
    p2 = np.exp(-lam) * lam**2 / 2.0
    assert np.mean(counts == 1) == pytest.approx(p1, rel=0.02)
    assert np.mean(counts == 2) == pytest.approx(p2, rel=0.02)


def test_cluster_count_scalar_form():
    rng = np.random.default_rng(3)
    value = sample_cluster_count(1.9, rng)
    assert isinstance(value, int)
    assert value >= 1


def test_cluster_count_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_cluster_count(0.0, rng)


def test_ray_count_covers_full_range():
    rng = np.random.default_rng(11)
    rays = sample_ray_count(rng, size=200_000)
    assert rays.min() == RAY_COUNT_MIN
    assert rays.max() == RAY_COUNT_MAX
    # Uniform over 30 integers: each bin close to 1/30.
    hist = np.bincount(rays, minlength=RAY_COUNT_MAX + 1)[1:]
    assert np.all(np.abs(hist / rays.size - 1.0 / 30.0) < 0.002)


def test_ray_count_without_size_is_an_int():
    count = sample_ray_count(np.random.default_rng(11))
    assert type(count) is int
    assert 1 <= count <= 30


def test_laplacian_moments():
    rng = np.random.default_rng(5)
    std = np.deg2rad(5.0)
    draws = sample_laplacian(0.3, std, rng, size=1_000_000)
    assert np.mean(draws) == pytest.approx(0.3, abs=5e-4)
    assert np.std(draws) == pytest.approx(std, rel=LAPLACE_STD_RTOL)
    # Laplace excess kurtosis is 3 (Gaussian would be 0).
    centered = draws - np.mean(draws)
    kurt = np.mean(centered**4) / np.mean(centered**2) ** 2 - 3.0
    assert kurt == pytest.approx(3.0, abs=0.15)


def test_complex_gain_is_unit_variance():
    rng = np.random.default_rng(9)
    g = sample_complex_gain(rng, size=500_000)
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.01)
    assert np.mean(g.real * g.imag) == pytest.approx(0.0, abs=0.01)


def test_ar1_initial_value_is_pinned():
    rng = np.random.default_rng(2)
    x0 = 0.7 - 0.2j
    seq = ar1_complex_sequence(0.9, 5, rng=rng, initial=x0)
    assert seq[0] == x0


def test_ar1_rho_one_freezes_sequence():
    rng = np.random.default_rng(2)
    x0 = 0.7 - 0.2j
    seq = ar1_complex_sequence(1.0, 6, rng=rng, initial=x0)
    assert np.all(seq == x0)
    # No draws may be consumed when the innovation scale is zero.
    probe = rng.standard_normal()
    rng2 = np.random.default_rng(2)
    assert probe == rng2.standard_normal()


def test_vector_ar1_draws_match_time_split_draws():
    # One vector call draws step by step, each step one sample_complex_gain
    # of the sequences' shape, so a sequence continued from its last value in
    # later calls, of any lengths, sees the same variates and gets the same bits.
    initial = np.exp(1j * np.arange(7.0))
    whole = np.random.default_rng(3)
    got = ar1_complex_sequence(0.8, 16, rng=whole, initial=initial)
    rng = np.random.default_rng(3)
    parts = [ar1_complex_sequence(0.8, 1, rng=rng, initial=initial)]
    for n in (5, 1, 9):
        parts.append(ar1_complex_sequence(0.8, n + 1, rng=rng, initial=parts[-1][-1])[1:])
    np.testing.assert_array_equal(got, np.concatenate(parts))
    assert rng.random() == whole.random()
    first_step = sample_complex_gain(np.random.default_rng(3), size=7)
    np.testing.assert_allclose(got[1], 0.8 * initial + 0.6 * first_step, rtol=1e-15)
    frozen_rng = np.random.default_rng(3)
    frozen = ar1_complex_sequence(1.0, 5, rng=frozen_rng, initial=initial)
    np.testing.assert_array_equal(frozen, np.broadcast_to(initial, (5, 7)))
    assert frozen_rng.random() == np.random.default_rng(3).random()


def test_ar1_autocorrelation_tracks_rho():
    for rho in (0.5, 0.9, 0.99):
        rng = np.random.default_rng(int(rho * 100))
        seq = ar1_complex_sequence(rho, 100_000, rng=rng)
        for lag in (1, 2, 5):
            num = np.mean(seq[lag:] * np.conj(seq[:-lag])).real
            den = np.mean(np.abs(seq) ** 2)
            assert num / den == pytest.approx(rho**lag, abs=0.02)


def test_ar1_is_stationary_unit_variance():
    rng = np.random.default_rng(31)
    seq = ar1_complex_sequence(0.95, 200_000, rng=rng)
    assert np.mean(np.abs(seq) ** 2) == pytest.approx(1.0, rel=0.05)


def test_ar1_rejects_bad_rho():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        ar1_complex_sequence(1.5, 4, rng=rng)
