"""Per-tap rendering against the per-ray oracle, and its bitwise contracts.

The library renders each tap as one stacked product of steering matrices;
``render_oracle`` adds one outer product per ray onto the grid.  The sums run
in a different order, so taps agree to a relative tolerance fixed from
float64 round-off over ~100 terms, while the selected window must agree
exactly; the two-pointer window scan must pick the oracle's window on
arbitrary energies too.  The bitwise contracts (snapshot 0 equals the static tensor, the
static limit is frozen, a realization read back from its metadata re-samples
identically) are checked in the same configurations.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import render_oracle as oracle
from mmwchan import MobilitySpec, ScenarioConfig, evolve_channel, realize_channel, sample_channel
from mmwchan.channel import _select_window
from mmwchan.io import read_realization_metadata, write_realization_metadata
from mmwchan.sampling import RngStream

#: Tap tolerance, relative to the drop's largest tap entry.
RTOL = 1e-12

CONFIGS = {
    "defaults": ScenarioConfig(),
    "50m": ScenarioConfig(distance_m=50.0),
    "oversampling2": ScenarioConfig(oversampling=2),
    "M8-10m": ScenarioConfig(n_streams=8, distance_m=10.0),
}


def _drop(config, seed):
    config = dataclasses.replace(config, seed=seed)
    return config, realize_channel(config, RngStream(seed, 0).generator())


def _sample(config, real, sampler=sample_channel):
    return sampler(
        real, config.arrays(), config.pulse(), config.energy_threshold, config.oversampling
    )


def _evolve(config, real, mob, seed, evolver=evolve_channel):
    return evolver(
        real, config.arrays(), config.pulse(), mob, RngStream(seed, 1).generator(),
        config.energy_threshold, config.oversampling,
    )


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", CONFIGS)
def test_sample_channel_matches_per_ray_oracle(name):
    failures = []
    worst = 0.0
    for seed in range(200):
        config, real = _drop(CONFIGS[name], seed)
        got = _sample(config, real)
        want = _sample(config, real, oracle.sample_channel)
        if (got.tap_offset, got.n_taps) != (want.tap_offset, want.n_taps):
            failures.append(f"seed {seed}: window {got.tap_offset}+{got.n_taps} "
                            f"vs {want.tap_offset}+{want.n_taps}")
            continue
        assert got.sample_period == want.sample_period
        worst = max(worst, _relative_error(got.taps, want.taps))
    assert not failures, failures
    assert worst <= RTOL


@pytest.mark.parametrize("snapshot_period", [None, 1e-6])
@pytest.mark.parametrize("name", CONFIGS)
def test_evolve_channel_matches_per_ray_oracle(name, snapshot_period):
    # 64 snapshots at 20 m/s; the 1 us spacing decorrelates the gains
    # (coefficient ~0.74), the default symbol-period spacing barely does.
    for seed in range(3):
        config, real = _drop(CONFIGS[name], seed)
        config = dataclasses.replace(
            config, v_rx_mps=20.0, n_snapshots=64, snapshot_period_s=snapshot_period
        )
        mob = config.mobility()
        got = _evolve(config, real, mob, seed)
        want = _evolve(config, real, mob, seed, oracle.evolve_channel)
        assert got.tap_offset == want.tap_offset
        assert got.snapshots.shape == want.snapshots.shape
        assert _relative_error(got.snapshots, want.snapshots) <= RTOL


@pytest.mark.parametrize("name", CONFIGS)
def test_snapshot_zero_is_static_bitwise_on_moving_drops(name):
    mob = MobilitySpec(v_rx=20.0, v_tx=3.0, snapshot_period=1e-6, n_snapshots=3)
    for seed in range(50):
        config, real = _drop(CONFIGS[name], seed)
        static = _sample(config, real)
        moving = _evolve(config, real, mob, seed)
        assert moving.tap_offset == static.tap_offset, seed
        assert np.array_equal(moving.snapshots[0], static.taps), seed


@pytest.mark.parametrize("name", CONFIGS)
def test_frozen_limit_is_static_bitwise(name):
    mob = MobilitySpec(
        v_rx=0.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=5, gain_correlation=1.0
    )
    for seed in range(50):
        config, real = _drop(CONFIGS[name], seed)
        static = _sample(config, real)
        frozen = _evolve(config, real, mob, seed)
        assert frozen.tap_offset == static.tap_offset, seed
        for k in range(mob.n_snapshots):
            assert np.array_equal(frozen.snapshots[k], static.taps), (seed, k)


@pytest.mark.parametrize("name", CONFIGS)
def test_metadata_round_trip_resamples_bitwise(name, tmp_path):
    path = tmp_path / "drop.json"
    for seed in range(50):
        config, real = _drop(CONFIGS[name], seed)
        write_realization_metadata(path, real, {"seed": seed})
        _, back = read_realization_metadata(path)
        original = _sample(config, real)
        resampled = _sample(config, back)
        assert resampled.tap_offset == original.tap_offset, seed
        assert np.array_equal(resampled.taps, original.taps), seed


# Few distinct values make exact zeros and tied window sums common.
tap_energies = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.0]), st.floats(0.0, 1e6)),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=300)
@given(
    energies=st.one_of(tap_energies, st.integers(1, 40).map(lambda n: [0.0] * n)),
    threshold=st.one_of(
        st.sampled_from([1e-4, 0.25, 0.5]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
def test_window_scan_matches_width_search(energies, threshold):
    grid = np.sqrt(np.array(energies, dtype=complex))[:, None, None]
    assert _select_window(grid, threshold) == oracle.select_window(grid, threshold)
