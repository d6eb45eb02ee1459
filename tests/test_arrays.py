"""Tests for planar-array geometry and steering vectors."""

import numpy as np
import pytest

from mmwchan.arrays import ArrayPair, PlanarArray, steering_vector


def test_element_count():
    assert PlanarArray(5, 4).n_elements == 20
    assert PlanarArray(1, 1).n_elements == 1


def test_validation():
    with pytest.raises(ValueError):
        PlanarArray(0, 4)
    with pytest.raises(ValueError):
        PlanarArray(4, -1)
    with pytest.raises(ValueError):
        PlanarArray(4, 4, spacing_wavelengths=0.0)


def test_steering_vector_is_unit_norm():
    arr = PlanarArray(6, 5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        a = steering_vector(arr, az, el)
        assert a.shape == (30,)
        assert np.linalg.norm(a) == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.abs(np.abs(a) - 1.0 / np.sqrt(30.0)) < 1e-12)


def test_broadside_steering_is_uniform():
    # At azimuth 0 the horizontal phase term vanishes; at elevation 0 the
    # vertical term is the same for every row, so the vector is a constant
    # phase ramp over vertical index only.
    arr = PlanarArray(4, 3)
    a = steering_vector(arr, 0.0, 0.0)
    # elevation 0: vertical phase -2 pi * 0.5 * n * cos(0) = -pi n.
    expected_col = np.exp(-1j * np.pi * np.arange(3))
    expected = np.tile(expected_col, 4) / np.sqrt(12.0)
    np.testing.assert_allclose(a, expected, atol=1e-14)


def test_horizontal_index_is_major():
    # Element (m, n) sits at flat index m * vertical + n.
    arr = PlanarArray(3, 2)
    az, el = 0.7, 0.25
    a = steering_vector(arr, az, el)
    kd = 2.0 * np.pi * arr.spacing_wavelengths
    for m in range(3):
        for n in range(2):
            phase = -kd * (m * np.sin(az) * np.sin(el) + n * np.cos(el))
            expected = np.exp(1j * phase) / np.sqrt(6.0)
            assert a[m * 2 + n] == pytest.approx(expected, abs=1e-14)


def test_kron_structure():
    # The full vector factors as kron(horizontal, vertical).
    arr = PlanarArray(4, 3)
    az, el = -0.6, 0.35
    a = steering_vector(arr, az, el)
    kd = 2.0 * np.pi * arr.spacing_wavelengths
    ah = np.exp(-1j * kd * np.arange(4) * np.sin(az) * np.sin(el))
    av = np.exp(-1j * kd * np.arange(3) * np.cos(el))
    np.testing.assert_allclose(a, np.kron(ah, av) / np.sqrt(12.0), atol=1e-14)


def test_array_pair_holds_both_ends():
    pair = ArrayPair(tx=PlanarArray(6, 5), rx=PlanarArray(5, 4))
    assert pair.tx.n_elements == 30
    assert pair.rx.n_elements == 20


def test_steering_matrix_matches_scalar_calls():
    # Angle arrays give one response per row, equal to the scalar call.
    arr = PlanarArray(6, 5)
    rng = np.random.default_rng(7)
    az = rng.uniform(-np.pi, np.pi, 40)
    el = rng.uniform(-np.pi / 2, np.pi / 2, 40)
    a = steering_vector(arr, az, el)
    assert a.shape == (40, 30)
    stacked = np.array([steering_vector(arr, p, q) for p, q in zip(az, el)])
    np.testing.assert_allclose(a, stacked, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, rtol=1e-12)


def test_steering_matrix_broadcasts_angle_shapes():
    arr = PlanarArray(3, 2)
    az = np.linspace(-1.0, 1.0, 4)[:, None]
    el = np.linspace(-0.5, 0.5, 3)[None, :]
    a = steering_vector(arr, az, el)
    assert a.shape == (4, 3, 6)
    np.testing.assert_allclose(
        a[2, 1], steering_vector(arr, az[2, 0], el[0, 1]), rtol=1e-14, atol=0.0
    )
