"""Link arithmetic against the per-lag, per-offset oracle.

The library forms the tap projection, the lag sums of the stacked
covariance and the rate's per-lag cross terms as small matrix products on
block-row views; ``link_oracle`` keeps the ``einsum``-per-lag forms.  The
sums run in a different order, so projected taps and covariances agree to
float64 round-off relative to the drop's largest entry.  Rates agree to a
looser relative tolerance on full-rank drops only: on a rank-deficient drop
the dead streams' beamformer directions are an arbitrary null-space basis,
and round-off alone decides how much rate they carry.
"""

import warnings

import numpy as np
import pytest

import link_oracle as oracle
from mmwchan import ScenarioConfig, realize_channel, sample_channel
from mmwchan.link import (
    _stacked_covariance,
    achievable_rate,
    build_stacked_model,
    design_beamformers,
    lmmse_operator,
)
from mmwchan.sampling import RngStream

TAPS_RTOL = 1e-13
COV_RTOL = 1e-12
RATE_RTOL = 1e-9

CONFIGS = {
    "defaults": ScenarioConfig(),
    "M8-10m": ScenarioConfig(n_streams=8, distance_m=10.0),
    "50m": ScenarioConfig(distance_m=50.0),
}


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _drops(config, n):
    """Symbol-spaced channels and beamformers of drops 0..n-1, as in
    ``link._single_trial``."""
    for trial in range(n):
        real = realize_channel(config, RngStream(config.seed, trial).generator())
        channel = sample_channel(
            real, config.arrays(), config.pulse(), config.energy_threshold, oversampling=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pair = design_beamformers(channel, config.n_streams)
        yield trial, channel, pair


@pytest.mark.parametrize("name", CONFIGS)
def test_link_matches_per_lag_oracle(name):
    config = CONFIGS[name]
    noise, power = config.noise_variance(), config.tx_power_w
    worst = {"taps": 0.0, "cov": 0.0, "rate": 0.0}
    full_rank = 0
    for trial, channel, pair in _drops(config, 100):
        model = build_stacked_model(channel, pair, noise)
        want = oracle.build_stacked_model(channel, pair, noise)
        worst["taps"] = max(
            worst["taps"], _relative_error(model.projected_taps, want.projected_taps)
        )
        worst["cov"] = max(
            worst["cov"],
            _relative_error(
                _stacked_covariance(model, power), oracle.stacked_covariance(want, power)
            ),
        )
        rate = achievable_rate(model, lmmse_operator(model, power), power)
        assert np.isfinite(rate) and rate >= 0.0, (trial, rate)
        s = pair.singular_values
        if s[0] > 0.0 and s[-1] > 1e-12 * s[0]:
            full_rank += 1
            want_rate = oracle.achievable_rate(want, oracle.lmmse_operator(want, power), power)
            worst["rate"] = max(worst["rate"], abs(rate - want_rate) / want_rate)
    assert full_rank >= 50
    assert worst["taps"] <= TAPS_RTOL, worst
    assert worst["cov"] <= COV_RTOL, worst
    assert worst["rate"] <= RATE_RTOL, worst


def test_rate_matches_oracle_for_any_estimator():
    # The rate formula holds for any E, not just the LMMSE solution.
    rng = np.random.default_rng(12)
    config = CONFIGS["defaults"]
    for trial, channel, pair in _drops(config, 10):
        model = build_stacked_model(channel, pair, config.noise_variance())
        shape = model.signal_signatures.shape
        E = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = achievable_rate(model, E, config.tx_power_w)
        want = oracle.achievable_rate(model, E, config.tx_power_w)
        assert got == pytest.approx(want, rel=RATE_RTOL, abs=1e-12), trial
