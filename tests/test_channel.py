"""Tests for channel realization draws and tap-domain sampling."""

import numpy as np
import pytest

from conftest import DYADIC_SYMBOL_PERIOD, dyadic_pulse
from mmwchan import (
    ArrayPair,
    PlanarArray,
    ScenarioConfig,
    realize_channel,
    sample_channel,
    steering_vector,
    total_tap_energy,
)
from mmwchan.channel import (
    ChannelRealization,
    ClusterRealization,
    LosComponent,
    total_tap_energy as _total_tap_energy,
)
from mmwchan.geometry import SPEED_OF_LIGHT, LinkGeometry, RayAngles, los_geometry
from mmwchan.propagation import path_loss_db, scenario_parameters

T = DYADIC_SYMBOL_PERIOD


def small_arrays(n=2):
    return ArrayPair(tx=PlanarArray(n, 1), rx=PlanarArray(n, 1))


def delta_realization(
    tau_symbols,
    attenuation_db,
    gains=None,
    los=False,
    los_attenuation_db=-90.0,
    los_phase=0.7,
):
    """Cluster with rays at exact tap offsets ``tau_symbols`` (in symbols)."""
    geom = LinkGeometry(30.0, 7.0, 1.0)
    direct = los_geometry(geom)
    tau_symbols = np.asarray(tau_symbols, dtype=float)
    n_rays = len(tau_symbols)
    if gains is None:
        gains = np.ones(n_rays, dtype=np.complex128)
    delays = direct.delay + tau_symbols * T
    angles = RayAngles(0.4, -0.15, 1.2, 0.1)
    cluster = ClusterRealization(
        distance=8.0,
        mean_angles=angles,
        aod_azimuth=np.full(n_rays, angles.aod_azimuth),
        aod_elevation=np.full(n_rays, angles.aod_elevation),
        aoa_azimuth=np.full(n_rays, angles.aoa_azimuth),
        aoa_elevation=np.full(n_rays, angles.aoa_elevation),
        gains=np.asarray(gains, dtype=np.complex128),
        shadow_db=np.zeros(n_rays),
        attenuation_db=np.asarray(attenuation_db, dtype=float),
        path_lengths=delays * SPEED_OF_LIGHT,
        delays=delays,
    )
    los_state = LosComponent(
        present=los,
        angles=direct.angles,
        path_length=direct.path_length,
        delay=direct.delay,
        attenuation_db=los_attenuation_db,
        shadow_db=0.0,
        phase=los_phase,
    )
    return ChannelRealization(
        scenario="umi-street-canyon",
        carrier_frequency=73e9,
        geometry=geom,
        clusters=[cluster],
        los=los_state,
        gain_normalization=1.0,
    )


def expected_outer(real, arrays, use_los=False):
    if use_los:
        ang = real.los.angles
        az_r, el_r = ang.aoa_azimuth, ang.aoa_elevation
        az_t, el_t = ang.aod_azimuth, ang.aod_elevation
    else:
        c = real.clusters[0]
        az_r, el_r = c.aoa_azimuth[0], c.aoa_elevation[0]
        az_t, el_t = c.aod_azimuth[0], c.aod_elevation[0]
    a_r = steering_vector(arrays.rx, az_r, el_r)
    a_t = steering_vector(arrays.tx, az_t, el_t)
    return np.outer(a_r, a_t.conj())


# -- realization draws -----------------------------------------------------


def test_realization_structural_invariants():
    config = ScenarioConfig()
    nlos_params = scenario_parameters(config.scenario, "nlos")
    for seed in range(12):
        real = realize_channel(config, np.random.default_rng(seed))
        assert real.n_clusters >= 1
        assert real.gain_normalization == pytest.approx(
            np.sqrt(20 * 30 / real.total_rays), rel=1e-14
        )
        for c in real.clusters:
            assert 1 <= c.n_rays <= 30
            assert 1.0 <= c.distance <= 1.75 * 30.0 + 1e-9
            assert np.all(c.delays >= real.los.delay - 1e-15)
            assert np.all(c.path_lengths >= real.geometry.slant_range - 1e-9)
            # Stored attenuation is the path loss at the per-ray lengths
            # with the per-ray shadow fading folded in.
            expected = path_loss_db(
                c.path_lengths, real.wavelength, nlos_params, c.shadow_db
            )
            np.testing.assert_allclose(c.attenuation_db, expected, rtol=1e-12)
        assert np.isfinite(real.los.attenuation_db)
        assert 0.0 <= real.los.phase < 2.0 * np.pi
        assert real.los.delay == pytest.approx(
            real.geometry.slant_range / SPEED_OF_LIGHT, rel=1e-12
        )


def test_realization_is_reproducible():
    config = ScenarioConfig()
    a = realize_channel(config, np.random.default_rng(42))
    b = realize_channel(config, np.random.default_rng(42))
    assert a.n_clusters == b.n_clusters
    for ca, cb in zip(a.clusters, b.clusters):
        np.testing.assert_array_equal(ca.gains, cb.gains)
        np.testing.assert_array_equal(ca.aod_azimuth, cb.aod_azimuth)
    assert a.los.phase == b.los.phase
    c = realize_channel(config, np.random.default_rng(43))
    assert c.los.phase != a.los.phase


def test_realization_both_los_states_occur():
    config = ScenarioConfig(distance_m=30.0)
    states = {
        realize_channel(config, np.random.default_rng(seed)).los.present
        for seed in range(200)
    }
    assert states == {True, False}


def test_rx_orientation_shifts_arrival_azimuth_only():
    base = ScenarioConfig()
    turned = ScenarioConfig(rx_orientation_rad=0.3)
    a = realize_channel(base, np.random.default_rng(7))
    b = realize_channel(turned, np.random.default_rng(7))
    for ca, cb in zip(a.clusters, b.clusters):
        np.testing.assert_allclose(cb.aoa_azimuth, ca.aoa_azimuth + 0.3, rtol=1e-12)
        np.testing.assert_array_equal(cb.aod_azimuth, ca.aod_azimuth)
        np.testing.assert_array_equal(cb.gains, ca.gains)
    assert b.los.angles.aoa_azimuth == pytest.approx(0.3)
    assert b.los.angles.aod_azimuth == 0.0


def test_ray_angle_spread_matches_configuration():
    config = ScenarioConfig()
    offsets = []
    for seed in range(300):
        real = realize_channel(config, np.random.default_rng(seed))
        for c in real.clusters:
            offsets.extend(c.aod_azimuth - c.mean_angles.aod_azimuth)
            offsets.extend(c.aoa_elevation - c.mean_angles.aoa_elevation)
    offsets = np.asarray(offsets)
    assert offsets.size > 5000
    assert np.std(offsets) == pytest.approx(np.deg2rad(5.0), rel=0.05)
    assert np.mean(offsets) == pytest.approx(0.0, abs=np.deg2rad(0.3))


def test_shadow_per_cluster_flag():
    config = ScenarioConfig(shadow_per_cluster=True)
    for seed in range(5):
        real = realize_channel(config, np.random.default_rng(seed))
        values = []
        for c in real.clusters:
            assert np.all(c.shadow_db == c.shadow_db[0])
            values.append(c.shadow_db[0])
        assert len(set(values)) == len(values)


def test_scattered_pathloss_follow_los():
    # d = 10 m in UMi guarantees a LOS drop, so the scattered rays switch
    # to the LOS exponent under "follow-los" and keep NLOS otherwise.
    follow = ScenarioConfig(distance_m=10.0, scattered_pathloss="follow-los")
    real = realize_channel(follow, np.random.default_rng(3))
    assert real.los.present
    los_params = scenario_parameters(follow.scenario, "los")
    for c in real.clusters:
        expected = path_loss_db(c.path_lengths, real.wavelength, los_params, c.shadow_db)
        np.testing.assert_allclose(c.attenuation_db, expected, rtol=1e-12)

    default = ScenarioConfig(distance_m=10.0)
    real2 = realize_channel(default, np.random.default_rng(3))
    nlos_params = scenario_parameters(default.scenario, "nlos")
    for c in real2.clusters:
        expected = path_loss_db(c.path_lengths, real2.wavelength, nlos_params, c.shadow_db)
        np.testing.assert_allclose(c.attenuation_db, expected, rtol=1e-12)


def test_los_attenuation_uses_ground_distance():
    config = ScenarioConfig(distance_m=45.0)
    real = realize_channel(config, np.random.default_rng(1))
    los_params = scenario_parameters(config.scenario, "los")
    expected = path_loss_db(45.0, real.wavelength, los_params, real.los.shadow_db)
    assert real.los.attenuation_db == pytest.approx(expected, abs=1e-12)


# -- tap-domain sampling ---------------------------------------------------


def test_on_grid_path_collapses_to_single_tap():
    real = delta_realization([0.0], [-80.0])
    arrays = small_arrays()
    sampled = sample_channel(real, arrays, dyadic_pulse())
    assert sampled.n_taps == 1
    assert sampled.tap_offset == 0
    assert sampled.sample_period == T
    gamma = np.sqrt(2 * 2 / 1)
    expected = gamma * 10.0 ** (-80.0 / 20.0) * expected_outer(real, arrays)
    np.testing.assert_allclose(sampled.taps[0], expected, rtol=1e-12)


def test_on_grid_path_at_positive_offset():
    real = delta_realization([3.0], [-80.0], gains=[0.6 - 0.8j])
    arrays = small_arrays()
    sampled = sample_channel(real, arrays, dyadic_pulse())
    assert sampled.n_taps == 1
    assert sampled.tap_offset == 3
    gamma = np.sqrt(2 * 2 / 1)
    expected = gamma * 10.0 ** (-80.0 / 20.0) * (0.6 - 0.8j) * expected_outer(real, arrays)
    np.testing.assert_allclose(sampled.taps[0], expected, rtol=1e-9)


def test_direct_path_lands_on_tap_zero():
    geom = LinkGeometry(30.0, 7.0, 1.0)
    direct = los_geometry(geom)
    real = ChannelRealization(
        scenario="umi-street-canyon",
        carrier_frequency=73e9,
        geometry=geom,
        clusters=[],
        los=LosComponent(
            present=True,
            angles=direct.angles,
            path_length=direct.path_length,
            delay=direct.delay,
            attenuation_db=-90.0,
            shadow_db=0.0,
            phase=0.7,
        ),
        gain_normalization=0.0,
    )
    arrays = small_arrays(3)
    sampled = sample_channel(real, arrays, dyadic_pulse())
    assert sampled.n_taps == 1
    assert sampled.tap_offset == 0
    expected = (
        np.sqrt(3 * 3)
        * 10.0 ** (-90.0 / 20.0)
        * np.exp(1j * 0.7)
        * expected_outer(real, arrays, use_los=True)
    )
    np.testing.assert_allclose(sampled.taps[0], expected, rtol=1e-12)


def test_off_grid_path_keeps_required_energy():
    real = delta_realization([2.5], [-80.0])
    arrays = small_arrays()
    spec = dyadic_pulse()
    sampled = sample_channel(real, arrays, spec)
    # Full-grid energy from the pulse samples covering the truncated support.
    from mmwchan.pulse import end_to_end_pulse

    n = np.arange(-5, 11)
    h = end_to_end_pulse(spec, n * T - 2.5 * T)
    gamma = np.sqrt(2 * 2 / 1)
    full = np.sum(h**2) * (gamma * 10.0 ** (-80.0 / 20.0)) ** 2
    kept = total_tap_energy(sampled)
    assert kept <= full * (1.0 + 1e-12)
    assert kept >= (1.0 - 1e-4) * full
    assert 2 <= sampled.n_taps <= 16


def test_window_trimming_is_energy_aware():
    # Strong ray on tap 0, 50 dB weaker ray on tap 10: the weak tap holds
    # ~1e-5 of the energy, below the default 1e-4 allowance, so it is cut.
    real = delta_realization([0.0, 10.0], [-60.0, -110.0])
    arrays = small_arrays()
    sampled = sample_channel(real, arrays, dyadic_pulse())
    assert sampled.n_taps == 1
    assert sampled.tap_offset == 0
    # A tighter allowance must keep the weak tap.
    precise = sample_channel(real, arrays, dyadic_pulse(), energy_threshold=1e-7)
    assert precise.n_taps == 11
    assert precise.tap_offset == 0
    tail = np.linalg.norm(precise.taps[10])
    head = np.linalg.norm(precise.taps[0])
    assert tail / head == pytest.approx(10.0 ** (-50.0 / 20.0), rel=1e-9)


def test_oversampling_refines_the_grid():
    real = delta_realization([3.0], [-80.0])
    arrays = small_arrays()
    sampled = sample_channel(real, arrays, dyadic_pulse(), oversampling=4)
    assert sampled.sample_period == T / 4
    peak = 12 - sampled.tap_offset
    assert 0 <= peak < sampled.n_taps
    gamma = np.sqrt(2 * 2 / 1)
    expected = gamma * 10.0 ** (-80.0 / 20.0) * expected_outer(real, arrays)
    np.testing.assert_allclose(sampled.taps[peak], expected, rtol=1e-9)
    # Quarter-symbol neighbours carry most of the peak amplitude.
    neighbour = np.linalg.norm(sampled.taps[peak - 1])
    assert neighbour > 0.5 * np.linalg.norm(sampled.taps[peak])


def test_sampling_validation():
    real = delta_realization([0.0], [-80.0])
    arrays = small_arrays()
    with pytest.raises(ValueError):
        sample_channel(real, arrays, dyadic_pulse(), energy_threshold=0.0)
    with pytest.raises(ValueError):
        sample_channel(real, arrays, dyadic_pulse(), energy_threshold=1.0)
    with pytest.raises(ValueError):
        sample_channel(real, arrays, dyadic_pulse(), oversampling=0)
    with pytest.raises(ValueError):
        sample_channel(real, arrays, dyadic_pulse(), oversampling=1.5)


def test_pathless_realization_raises():
    real = delta_realization([0.0], [-80.0])
    real.clusters = []
    real.los.present = False
    with pytest.raises(ValueError, match="no propagation paths"):
        sample_channel(real, small_arrays(), dyadic_pulse())


def test_total_tap_energy_matches_manual_sum():
    real = delta_realization([0.0, 1.5], [-80.0, -85.0])
    sampled = sample_channel(real, small_arrays(), dyadic_pulse())
    manual = float(np.sum(np.abs(sampled.taps) ** 2))
    assert total_tap_energy(sampled) == pytest.approx(manual, rel=1e-12)
    assert _total_tap_energy is total_tap_energy


def test_resampling_under_larger_arrays_scales_power():
    # Same realization, (2x2 -> 4x4)-element arrays on both ends: the
    # normalization keeps per-tap power proportional to N_R * N_T, exactly,
    # even for a single ray with arbitrary directions.
    real = delta_realization([0.0], [-80.0])
    small = ArrayPair(tx=PlanarArray(2, 2), rx=PlanarArray(2, 2))
    large = ArrayPair(tx=PlanarArray(4, 4), rx=PlanarArray(4, 4))
    e_small = total_tap_energy(sample_channel(real, small, dyadic_pulse()))
    e_large = total_tap_energy(sample_channel(real, large, dyadic_pulse()))
    assert e_large / e_small == pytest.approx(16.0, rel=1e-12)
