"""Tests for snapshot evolution: gain aging, Doppler, static limit."""

import tracemalloc

import numpy as np
import pytest

import render_oracle as oracle
from conftest import DYADIC_SYMBOL_PERIOD, dyadic_pulse
from mmwchan import (
    ArrayPair,
    MobilitySpec,
    PlanarArray,
    ScenarioConfig,
    default_gain_correlation,
    doppler_shift,
    evolve_channel,
    realize_channel,
    sample_channel,
    timevariant,
)
from mmwchan.geometry import RayAngles
from mmwchan.sampling import RngStream

from test_channel import delta_realization, small_arrays

T = DYADIC_SYMBOL_PERIOD

# Frozen: -(73e9 / 299792458) * 30 for a head-on arrival at v_rx = 30 m/s.
DOPPLER_HEADON_30MPS = -7305.05368483953


def test_doppler_shift_headon_value():
    angles = RayAngles(0.0, 0.0, 0.0, 0.0)
    nu = doppler_shift(angles, v_rx=30.0, v_tx=0.0, carrier_frequency=73e9)
    assert nu == pytest.approx(DOPPLER_HEADON_30MPS, rel=1e-12)


def test_doppler_shift_geometry_dependence():
    # Broadside arrival (azimuth pi/2) contributes nothing; transmit and
    # receive motion add.
    broadside = RayAngles(0.0, 0.0, np.pi / 2, 0.0)
    nu = doppler_shift(broadside, v_rx=30.0, v_tx=0.0, carrier_frequency=73e9)
    assert nu == pytest.approx(0.0, abs=1e-9)
    both = RayAngles(0.0, 0.0, 0.0, 0.0)
    nu2 = doppler_shift(both, v_rx=10.0, v_tx=20.0, carrier_frequency=73e9)
    assert nu2 == pytest.approx(DOPPLER_HEADON_30MPS, rel=1e-12)


def test_doppler_shift_vectorized():
    angles = RayAngles(
        aod_azimuth=np.zeros(3),
        aod_elevation=np.zeros(3),
        aoa_azimuth=np.array([0.0, np.pi / 2, np.pi]),
        aoa_elevation=np.zeros(3),
    )
    nu = doppler_shift(angles, 30.0, 0.0, 73e9)
    assert nu.shape == (3,)
    assert nu[0] == pytest.approx(-nu[2], rel=1e-12)


def test_default_gain_correlation_limits():
    static = MobilitySpec(v_rx=0.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=4)
    assert default_gain_correlation(static, 73e9) == 1.0
    moving = MobilitySpec(v_rx=30.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=4)
    rho = default_gain_correlation(moving, 73e9)
    expected = np.exp(-2.0 * np.pi * (73e9 / 299792458.0) * 30.0 * 1e-6)
    assert rho == pytest.approx(expected, rel=1e-12)
    assert 0.0 < rho < 1.0


def test_mobility_spec_validation():
    with pytest.raises(ValueError):
        MobilitySpec(snapshot_period=0.0)
    with pytest.raises(ValueError):
        MobilitySpec(n_snapshots=0)
    # evolve_channel sizes arrays by it, so an integral float is no count
    with pytest.raises(ValueError, match="n_snapshots must be a finite integer"):
        MobilitySpec(n_snapshots=4.0)
    with pytest.raises(ValueError):
        MobilitySpec(gain_correlation=1.5)


def test_snapshot_zero_equals_static_sampling():
    # With motion and aging active, snapshot 0 must still reproduce the
    # static tap tensor bit for bit (the window is chosen from snapshot 0).
    config = ScenarioConfig(seed=5)
    real = realize_channel(config, RngStream(5, 0).generator())
    arrays = config.arrays()
    spec = config.pulse()
    static = sample_channel(real, arrays, spec)
    mob = MobilitySpec(v_rx=25.0, v_tx=5.0, snapshot_period=1e-6, n_snapshots=4)
    moving = evolve_channel(real, arrays, spec, mob, RngStream(5, 1).generator())
    assert moving.tap_offset == static.tap_offset
    assert moving.n_taps == static.n_taps
    np.testing.assert_array_equal(moving.snapshots[0], static.taps)


def test_static_limit_is_bitwise_frozen():
    # Zero velocity and unit correlation: every snapshot equals the static
    # tensor exactly, for LOS and NLOS drops alike.
    for seed in (5, 17):
        config = ScenarioConfig(seed=seed, distance_m=50.0)
        real = realize_channel(config, RngStream(seed, 0).generator())
        arrays = config.arrays()
        spec = config.pulse()
        static = sample_channel(real, arrays, spec)
        mob = MobilitySpec(
            v_rx=0.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=5,
            gain_correlation=1.0,
        )
        frozen = evolve_channel(real, arrays, spec, mob, RngStream(seed, 1).generator())
        assert frozen.n_snapshots == 5
        for k in range(5):
            np.testing.assert_array_equal(frozen.snapshots[k], static.taps)


def test_static_limit_consumes_no_randomness():
    real = delta_realization([0.0, 2.0], [-80.0, -84.0])
    mob = MobilitySpec(v_rx=0.0, v_tx=0.0, n_snapshots=6, gain_correlation=1.0)
    rng = np.random.default_rng(9)
    evolve_channel(real, small_arrays(), dyadic_pulse(), mob, rng)
    assert rng.standard_normal() == np.random.default_rng(9).standard_normal()


def test_pure_doppler_rotation_of_frozen_gains():
    # Correlation 1 with nonzero speed: gains keep their magnitude and
    # rotate at the per-path Doppler frequency.
    real = delta_realization([0.0], [-80.0])
    mob = MobilitySpec(v_rx=12.0, v_tx=0.0, snapshot_period=2e-6, n_snapshots=5,
                       gain_correlation=1.0)
    out = evolve_channel(real, small_arrays(), dyadic_pulse(), mob,
                         np.random.default_rng(0))
    c = real.clusters[0]
    angles = RayAngles(
        c.aod_azimuth[0], c.aod_elevation[0], c.aoa_azimuth[0], c.aoa_elevation[0]
    )
    nu = doppler_shift(angles, 12.0, 0.0, real.carrier_frequency)
    for k in range(5):
        rotation = np.exp(-2j * np.pi * nu * k * 2e-6)
        np.testing.assert_allclose(
            out.snapshots[k], out.snapshots[0] * rotation, rtol=1e-12
        )


def test_gain_aging_decorrelates_snapshots():
    # Correlation < 1 without motion: snapshot correlation with snapshot 0
    # decays like rho**k on average.
    rho = 0.9
    acc = np.zeros(6, dtype=np.complex128)
    norm = 0.0
    for seed in range(200):
        real = delta_realization(
            [0.0], [-80.0],
            gains=[np.exp(2j * np.pi * seed / 200.0)],
        )
        mob = MobilitySpec(n_snapshots=6, gain_correlation=rho)
        out = evolve_channel(real, small_arrays(), dyadic_pulse(), mob,
                             np.random.default_rng(seed))
        ref = out.snapshots[0, 0]
        norm += np.vdot(ref, ref).real
        for k in range(6):
            acc[k] += np.vdot(ref, out.snapshots[k, 0])
    correlation = (acc / norm).real
    assert correlation[0] == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 6):
        assert correlation[k] == pytest.approx(rho**k, abs=0.15)


def test_los_gain_stays_on_unit_circle():
    real = delta_realization([1.0], [-80.0], los=True, los_attenuation_db=-70.0)
    mob = MobilitySpec(n_snapshots=8, gain_correlation=0.8)
    out = evolve_channel(real, small_arrays(), dyadic_pulse(), mob,
                         np.random.default_rng(4))
    # The direct path owns tap 0 alone; its magnitude must not wander.
    zero_tap = -out.tap_offset
    los_amp = np.sqrt(2 * 2) * 10.0 ** (-70.0 / 20.0)
    for k in range(8):
        norm = np.linalg.norm(out.snapshots[k, zero_tap])
        assert norm == pytest.approx(los_amp, rel=1e-9)


def test_scattered_gains_do_wander():
    real = delta_realization([1.0], [-80.0], los=True, los_attenuation_db=-70.0)
    mob = MobilitySpec(n_snapshots=8, gain_correlation=0.8)
    out = evolve_channel(real, small_arrays(), dyadic_pulse(), mob,
                         np.random.default_rng(4))
    ray_tap = 1 - out.tap_offset
    norms = [np.linalg.norm(out.snapshots[k, ray_tap]) for k in range(8)]
    assert np.std(norms) > 1e-6


def test_snapshot_window_is_shared():
    config = ScenarioConfig(seed=3)
    real = realize_channel(config, RngStream(3, 0).generator())
    mob = MobilitySpec(v_rx=20.0, n_snapshots=6)
    out = evolve_channel(real, config.arrays(), config.pulse(), mob,
                         RngStream(3, 1).generator())
    assert out.snapshots.shape[0] == 6
    assert out.snapshots.shape[1] == out.n_taps
    assert out.snapshot_period == 1e-6


def test_evolution_is_reproducible():
    config = ScenarioConfig(seed=8)
    real = realize_channel(config, RngStream(8, 0).generator())
    mob = MobilitySpec(v_rx=15.0, n_snapshots=4)
    a = evolve_channel(real, config.arrays(), config.pulse(), mob,
                       RngStream(8, 1).generator())
    b = evolve_channel(real, config.arrays(), config.pulse(), mob,
                       RngStream(8, 1).generator())
    np.testing.assert_array_equal(a.snapshots, b.snapshots)


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_snapshot_mean_is_the_render_of_the_conditional_mean_weights(seed):
    """Over 200 evolution streams of one NLOS drop (small arrays, 20 m/s,
    10 us spacing, coefficient 0.9), the mean of snapshot k is the render of
    the conditional-mean weights ``rho^k w_0 exp(-j 2 pi nu t_k)``, since the
    render is linear in the weights.  Its Frobenius distance from the
    per-ray oracle's render of those weights stays within 4 Monte-Carlo
    standard errors (the root of the summed entry variances over 200) at
    every k; it reads at most 2.0 here.  Weights that do not decay, do not
    rotate, or rotate the wrong way read 5-16 on at least one of the drops.
    No draw order enters the test."""
    config = ScenarioConfig(
        seed=seed, rx_horizontal=2, rx_vertical=2, tx_horizontal=2, tx_vertical=1,
        n_streams=1, v_rx_mps=20.0, snapshot_period_s=1e-5, n_snapshots=17,
        gain_correlation=0.9,
    )
    real = realize_channel(config, RngStream(seed, 0).generator())
    assert not real.los.present
    arrays, spec, mob = config.arrays(), config.pulse(), config.mobility()
    runs = [
        evolve_channel(real, arrays, spec, mob, RngStream(seed, n).generator())
        for n in range(1, 201)
    ]
    snapshots = np.stack([run.snapshots for run in runs])
    mean = snapshots.mean(axis=0)
    standard_error = np.sqrt(
        np.var(snapshots, axis=0, ddof=1).sum(axis=(1, 2, 3)) / len(runs)
    )

    table = oracle.path_table(real, arrays)
    angles = RayAngles(
        table["aod_azimuth"], table["aod_elevation"], table["aoa_azimuth"],
        table["aoa_elevation"],
    )
    nu = doppler_shift(angles, mob.v_rx, mob.v_tx, real.carrier_frequency)
    rho = mob.gain_correlation
    start = runs[0].tap_offset
    for k in range(mob.n_snapshots):
        t_k = k * mob.snapshot_period
        weights = rho**k * table["base_gain"] * np.exp(-2j * np.pi * nu * t_k)
        grid, n_lo = oracle.assemble_grid(table, table["static_scale"] * weights, spec, 1)
        want = grid[start - n_lo : start - n_lo + runs[0].n_taps]
        distance = np.linalg.norm(mean[k] - want)
        assert distance <= 4 * standard_error[k] + 1e-12 * np.linalg.norm(want), k


def test_plan_evolution_peak_memory():
    """Planning and rendering 4096 snapshots of a 173-path drop at 1x1
    arrays, where the weights outweigh the path table and the taps, peaks
    below one CHUNK_BYTES under tracemalloc: each chunk's weights, drawn in
    turn, take an eighth of it at most, with room for their temporaries
    beside them (all 4096 snapshots' weights would take 11 MiB)."""
    config = ScenarioConfig(
        seed=152, n_streams=1, tx_horizontal=1, tx_vertical=1, rx_horizontal=1,
        rx_vertical=1, v_rx_mps=20.0, n_snapshots=4096,
    )
    real = realize_channel(config, RngStream(152, 0).generator())
    tracemalloc.start()
    try:
        stream = timevariant.SnapshotStream(
            real, config.arrays(), config.pulse(), config.mobility(),
            RngStream(152, 1).generator(), config.energy_threshold, config.oversampling,
        )
        lengths = [len(chunk) for chunk in stream.chunks()]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream._plan.weights.shape == (173,)
    assert sum(lengths) == 4096 and len(lengths) > 1
    assert peak < timevariant.CHUNK_BYTES < 3.5 * 4096 * 173 * 16


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"oversampling": 1.5}, "oversampling"),
        ({"oversampling": 0}, "oversampling"),
        ({"energy_threshold": 2.0}, "energy_threshold must be a finite number"),
    ],
)
def test_evolve_checks_render_arguments(bad, message):
    # The same checks as sample_channel: a fractional factor would render
    # on one grid and report another, and a threshold >= 1 keeps one tap.
    real = delta_realization([0.0], [-80.0])
    mob = MobilitySpec(v_rx=10.0, n_snapshots=3)
    with pytest.raises(ValueError, match=message):
        evolve_channel(
            real, small_arrays(), dyadic_pulse(), mob, np.random.default_rng(0), **bad
        )
