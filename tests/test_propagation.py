"""Tests for distance-dependent loss, shadowing, and LOS probability.

Expected dB values were computed independently from the closed-form model
    L(r) = -20 log10(4 pi / lambda) - 10 n [1 - b + b c / (lambda f0)] log10(r)
at f = 73 GHz (lambda = c / f, c = 299792458 m/s) and frozen here.
"""

import numpy as np
import pytest

from mmwchan.geometry import SPEED_OF_LIGHT
from mmwchan.propagation import (
    SCENARIOS,
    PathLossParams,
    draw_los,
    los_probability,
    path_loss_db,
    sample_shadow_fading,
    scenario_parameters,
)

DB_ATOL = 1e-9
WAVELENGTH_73GHZ = SPEED_OF_LIGHT / 73e9

# One-metre intercept -20 log10(4 pi / lambda) at 73 GHz.
FSPL_REF_73GHZ = -69.7142404242925

# (scenario, condition) -> {distance: loss_dB}, zero shadow fading.
FROZEN_LOSS_DB = {
    ("umi-street-canyon", "los"): {
        1.0: -69.7142404242925,
        10.0: -89.5142404242925,
        100.0: -109.3142404242925,
    },
    ("umi-street-canyon", "nlos"): {
        1.0: -69.7142404242925,
        10.0: -101.6142404242925,
        100.0: -133.5142404242925,
    },
    ("umi-open-square", "los"): {
        1.0: -69.7142404242925,
        10.0: -88.2142404242925,
        100.0: -106.7142404242925,
    },
    ("umi-open-square", "nlos"): {
        1.0: -69.7142404242925,
        10.0: -98.6142404242925,
        100.0: -127.5142404242925,
    },
    ("inh-office", "los"): {
        1.0: -69.7142404242925,
        10.0: -87.0142404242925,
        100.0: -104.3142404242925,
    },
    ("inh-office", "nlos"): {
        1.0: -69.7142404242925,
        10.0: -105.47387678792886,
        100.0: -141.2335131515652,
    },
    ("inh-shopping-mall", "los"): {
        1.0: -69.7142404242925,
        10.0: -87.0142404242925,
        100.0: -104.3142404242925,
    },
    ("inh-shopping-mall", "nlos"): {
        1.0: -69.7142404242925,
        10.0: -95.83389865214059,
        100.0: -121.9535568799887,
    },
}

# Closed-form LOS probabilities frozen from independent evaluation.
UMI_LOS_PROB = {39.0: 0.6920438303142924, 100.0: 0.26159059396859635}
INH_LOS_PROB = {
    1.2: 1.0,
    4.0: 0.5511519806833008,
    6.5: 0.32379017711599134,
    10.0: 0.2874241595601194,
}


def test_scenario_table_is_complete():
    assert len(SCENARIOS) == 4
    for scenario in SCENARIOS:
        for condition in ("los", "nlos"):
            params = scenario_parameters(scenario, condition)
            assert params.exponent > 0
            assert params.shadow_std_db > 0


def test_unknown_scenario_raises_with_choices():
    with pytest.raises(ValueError, match="umi-street-canyon"):
        scenario_parameters("umi-boulevard", "los")
    with pytest.raises(ValueError, match="nlos"):
        scenario_parameters("umi-street-canyon", "obstructed")


@pytest.mark.parametrize("key", sorted(FROZEN_LOSS_DB))
def test_path_loss_frozen_values(key):
    scenario, condition = key
    params = scenario_parameters(scenario, condition)
    for distance, expected in FROZEN_LOSS_DB[key].items():
        got = path_loss_db(distance, WAVELENGTH_73GHZ, params)
        assert got == pytest.approx(expected, abs=DB_ATOL)


def test_path_loss_one_metre_intercept_is_common():
    # At r = 1 the distance term vanishes for every scenario.
    for scenario in SCENARIOS:
        for condition in ("los", "nlos"):
            params = scenario_parameters(scenario, condition)
            got = path_loss_db(1.0, WAVELENGTH_73GHZ, params)
            assert got == pytest.approx(FSPL_REF_73GHZ, abs=DB_ATOL)


def test_path_loss_slope_without_frequency_correction():
    # b = 0 rows: ten-fold distance increase costs exactly 10 n dB.
    params = scenario_parameters("umi-street-canyon", "nlos")
    l10 = path_loss_db(10.0, WAVELENGTH_73GHZ, params)
    l100 = path_loss_db(100.0, WAVELENGTH_73GHZ, params)
    assert l10 - l100 == pytest.approx(10.0 * 3.19, abs=DB_ATOL)


def test_path_loss_frequency_correction_steepens_slope():
    # b > 0 and f > f0 makes the effective exponent exceed n.
    params = scenario_parameters("inh-office", "nlos")
    l10 = path_loss_db(10.0, WAVELENGTH_73GHZ, params)
    l100 = path_loss_db(100.0, WAVELENGTH_73GHZ, params)
    effective = (l10 - l100) / 10.0
    assert effective > 3.19
    assert effective == pytest.approx(3.5759636363636335, abs=1e-6)


def test_path_loss_sloped_fit_needs_reference_frequency():
    params = PathLossParams(2.0, 3.0, frequency_slope=0.1)
    with pytest.raises(ValueError, match="reference frequency"):
        path_loss_db(10.0, WAVELENGTH_73GHZ, params)


def test_shadow_fading_enters_in_db():
    params = PathLossParams(exponent=2.0, shadow_std_db=4.0)
    base = path_loss_db(10.0, WAVELENGTH_73GHZ, params)
    faded = path_loss_db(10.0, WAVELENGTH_73GHZ, params, shadow_db=3.0)
    assert faded == pytest.approx(base - 3.0, abs=DB_ATOL)


def test_shadow_fading_sample_std():
    rng = np.random.default_rng(23)
    for scenario in SCENARIOS:
        for condition in ("los", "nlos"):
            params = scenario_parameters(scenario, condition)
            draws = sample_shadow_fading(params, rng, size=1_000_000)
            assert np.std(draws) == pytest.approx(params.shadow_std_db, rel=0.01)
            assert np.mean(draws) == pytest.approx(0.0, abs=0.05)


def test_path_loss_vectorized_over_distance():
    params = scenario_parameters("umi-street-canyon", "los")
    r = np.array([1.0, 10.0, 100.0])
    out = path_loss_db(r, WAVELENGTH_73GHZ, params)
    assert out.shape == (3,)
    expected = [FROZEN_LOSS_DB[("umi-street-canyon", "los")][d] for d in r]
    np.testing.assert_allclose(out, expected, atol=DB_ATOL)


def test_path_loss_scalar_returns_float():
    params = scenario_parameters("umi-street-canyon", "los")
    out = path_loss_db(10.0, WAVELENGTH_73GHZ, params)
    assert isinstance(out, float)


@pytest.mark.parametrize("distance,expected", sorted(UMI_LOS_PROB.items()))
def test_umi_los_probability_frozen(distance, expected):
    for scenario in ("umi-street-canyon", "umi-open-square"):
        assert los_probability(scenario, distance) == pytest.approx(
            expected, abs=1e-12
        )


def test_umi_los_probability_saturates_close_in():
    # d <= 20: min(20/d, 1) = 1, so the probability is exactly 1.
    assert los_probability("umi-street-canyon", 5.0) == 1.0
    assert los_probability("umi-street-canyon", 20.0) == 1.0


@pytest.mark.parametrize("distance,expected", sorted(INH_LOS_PROB.items()))
def test_inh_los_probability_frozen(distance, expected):
    for scenario in ("inh-office", "inh-shopping-mall"):
        assert los_probability(scenario, distance) == pytest.approx(
            expected, abs=1e-12
        )


def test_inh_los_probability_branches_are_continuous_at_join():
    # The exponential branch meets 1 at d = 1.2 and hands over to the
    # floor-times-exponential branch at d = 6.5 with a small jump.
    assert los_probability("inh-office", 1.2) == pytest.approx(1.0, abs=1e-12)
    left = los_probability("inh-office", 6.5 - 1e-9)
    right = los_probability("inh-office", 6.5 + 1e-9)
    assert left == pytest.approx(0.32379017711599134, abs=1e-6)
    assert abs(right - left) < 0.01


def test_draw_los_matches_probability():
    rng = np.random.default_rng(41)
    n = 100_000
    hits = sum(draw_los("umi-street-canyon", 39.0, rng) for _ in range(n))
    assert hits / n == pytest.approx(UMI_LOS_PROB[39.0], abs=0.01)


def test_draw_los_certain_and_impossible():
    rng = np.random.default_rng(0)
    assert draw_los("umi-street-canyon", 1.0, rng) is True
