"""Property tests for the input boundary: the config parser, the component
constructors, the layer functions and the tensor readers turn every
malformed input into a ValueError naming the key, field, argument or file."""

import dataclasses
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import dyadic_pulse
from mmwchan import (
    LinkGeometry,
    MobilitySpec,
    PlanarArray,
    PulseSpec,
    ScenarioConfig,
    design_beamformers,
    parse_config,
    sample_channel,
    serialize_config,
)
from mmwchan.channel import SampledChannel
from mmwchan.io import (
    read_channel,
    read_dynamic_channel,
    read_static_channel,
    write_dynamic_channel,
    write_static_channel,
)
from mmwchan.propagation import SCENARIOS, los_probability, path_loss_db, scenario_parameters
from mmwchan.sampling import (
    RngStream,
    ar1_complex_sequence,
    sample_cluster_count,
    sample_laplacian,
)
from mmwchan.timevariant import TimeVariantChannel, evolve_channel
from test_channel import delta_realization, small_arrays

FLOAT_KEYS = [
    key
    for key, hint in typing.get_type_hints(ScenarioConfig).items()
    if float in (hint, *typing.get_args(hint))
]


# -- configuration ---------------------------------------------------------


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_is_rejected_by_name(key, text):
    # A finite domain, so every key and value is tried rather than sampled.
    with pytest.raises(ValueError, match=f"'{key}'.*finite"):
        parse_config(None, {key: text})


INT_KEYS = [
    "rx_horizontal", "rx_vertical", "tx_horizontal", "tx_vertical",
    "truncation_half_length", "oversampling", "seed", "n_snapshots", "n_streams", "n_trials",
]


def test_int_keys_are_listed_exhaustively():
    hints = typing.get_type_hints(ScenarioConfig)
    assert sorted(INT_KEYS) == sorted(key for key, hint in hints.items() if hint is int)


@pytest.mark.parametrize("key", INT_KEYS)
def test_fractional_int_key_is_rejected_by_name(key):
    # parse_config already refuses "2.5" for these keys; library callers
    # build ScenarioConfig directly.
    with pytest.raises(ValueError, match=f"'{key}' must be a finite integer"):
        ScenarioConfig(**{key: 2.5}).validate()


@pytest.mark.parametrize("key", INT_KEYS)
def test_integral_float_int_key_is_rejected_by_name(key):
    with pytest.raises(ValueError, match=f"'{key}' must be a finite integer"):
        ScenarioConfig(**{key: 4.0}).validate()


def test_every_config_field_declares_its_admissible_values():
    # validate checks exactly the fields that carry an admissible set.
    assert all("allowed" in f.metadata for f in dataclasses.fields(ScenarioConfig))


def _sample(**kwargs):
    real = delta_realization([0.0], [-80.0])
    return sample_channel(real, small_arrays(), dyadic_pulse(), **kwargs)


def _evolve(**kwargs):
    real = delta_realization([0.0], [-80.0])
    mob = MobilitySpec(v_rx=10.0, n_snapshots=3)
    rng = np.random.default_rng(0)
    return evolve_channel(real, small_arrays(), dyadic_pulse(), mob, rng, **kwargs)


# Channel with 4 receive and 5 transmit elements, so up to 4 streams fit.
CHANNEL = SampledChannel(np.random.default_rng(0).standard_normal((2, 4, 5)) + 0j, 1e-9, 0)

COMPONENT_FIELDS = {
    "symbol_period": lambda x: PulseSpec(symbol_period=x),
    "snapshot_period": lambda x: MobilitySpec(snapshot_period=x),
    "v_rx": lambda x: MobilitySpec(v_rx=x),
    "v_tx": lambda x: MobilitySpec(v_tx=x),
    "spacing_wavelengths": lambda x: PlanarArray(2, 2, x),
    "truncation_half_length": lambda x: PulseSpec(1e-9, truncation_half_length=x),
    "n_snapshots": lambda x: MobilitySpec(n_snapshots=x),
    "distance": lambda x: LinkGeometry(x, 7.0, 1.0),
    "tx_height": lambda x: LinkGeometry(30.0, x, 1.0),
    "rx_height": lambda x: LinkGeometry(30.0, 7.0, x),
    # the sampling helpers, whose arguments are checked like fields
    "lam": lambda x: sample_cluster_count(x, np.random.default_rng(0)),
    "std": lambda x: sample_laplacian(0.0, x, np.random.default_rng(0)),
    "variance": lambda x: ar1_complex_sequence(0.5, 4, x, np.random.default_rng(0)),
    "n": lambda x: ar1_complex_sequence(0.5, x, 1.0, np.random.default_rng(0)),
    "mean": lambda x: sample_laplacian(x, 1.0, np.random.default_rng(0)),
    "seed": lambda x: RngStream(x),
    "stream_id": lambda x: RngStream(0, x),
    "horizontal": lambda x: PlanarArray(x, 2),
    "vertical": lambda x: PlanarArray(2, x),
    "rolloff": lambda x: PulseSpec(1e-9, rolloff=x),
    "gain_correlation": lambda x: MobilitySpec(gain_correlation=x),
    # the render and link functions, whose arguments are checked like fields
    "oversampling": lambda x: _sample(oversampling=x),
    "energy_threshold": lambda x: _sample(energy_threshold=x),
    "n_streams": lambda x: design_beamformers(CHANNEL, x),
}

#: Arguments that share a COMPONENT_FIELDS name but belong to other callees.
SAME_NAME_CALLS = {
    "evolve_channel": ("oversampling", lambda x: _evolve(oversampling=x)),
    "los_probability": ("distance", lambda x: los_probability(SCENARIOS[0], x)),
    "path_loss_db": (
        "distance",
        lambda x: path_loss_db(x, 4e-3, scenario_parameters(SCENARIOS[0], "nlos")),
    ),
}

COUNT_FIELDS = [
    "truncation_half_length", "n_snapshots", "n", "seed", "stream_id", "horizontal",
    "vertical", "oversampling", "n_streams",
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", COMPONENT_FIELDS)
def test_non_finite_component_field_is_rejected_by_name(field, value):
    # Direct library callers bypass ScenarioConfig.validate.
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        COMPONENT_FIELDS[field](value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("callee", SAME_NAME_CALLS)
def test_non_finite_argument_of_another_callee_is_rejected_by_name(callee, value):
    name, call = SAME_NAME_CALLS[callee]
    with pytest.raises(ValueError, match=f"{name} must be .*finite"):
        call(value)


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_fractional_count_field_is_rejected_by_name(field):
    with pytest.raises(ValueError, match=f"{field} must be a finite integer"):
        COMPONENT_FIELDS[field](2.5)


@pytest.mark.parametrize("field", COUNT_FIELDS)
def test_integral_float_count_field_is_rejected_by_name(field):
    # 4.0 equals 4 but can neither size nor index an array.
    with pytest.raises(ValueError, match=f"{field} must be a finite integer"):
        COMPONENT_FIELDS[field](4.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("lam", 0.0), ("lam", -1.0), ("std", -1.0), ("variance", -1.0), ("n", 0),
        ("seed", -1), ("stream_id", -1),
    ],
)
def test_out_of_range_sampling_argument_is_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        COMPONENT_FIELDS[field](value)


def floats(low=None, high=None, exclude_low=False, exclude_high=False):
    return st.floats(
        min_value=low,
        max_value=high,
        exclude_min=exclude_low,
        exclude_max=exclude_high,
        allow_nan=False,
        allow_infinity=False,
    )


POSITIVE = floats(0.0, exclude_low=True)
COUNT = st.integers(1, 1_000)


@st.composite
def valid_configs(draw):
    dims = {
        key: draw(st.integers(1, 16))
        for key in ("rx_horizontal", "rx_vertical", "tx_horizontal", "tx_vertical")
    }
    limit = min(
        dims["rx_horizontal"] * dims["rx_vertical"],
        dims["tx_horizontal"] * dims["tx_vertical"],
    )
    return ScenarioConfig(
        scenario=draw(st.sampled_from(SCENARIOS)),
        carrier_frequency_hz=draw(POSITIVE),
        distance_m=draw(POSITIVE),
        tx_height_m=draw(POSITIVE),
        rx_height_m=draw(POSITIVE),
        spacing_wavelengths=draw(POSITIVE),
        rx_orientation_rad=draw(floats()),
        cluster_rate=draw(POSITIVE),
        angle_spread_deg=draw(floats(0.0)),
        max_distance_factor=draw(POSITIVE),
        shadow_per_cluster=draw(st.booleans()),
        scattered_pathloss=draw(st.sampled_from(["nlos", "follow-los"])),
        rolloff=draw(floats(0.0, 1.0, exclude_low=True)),
        bandwidth_hz=draw(POSITIVE),
        truncation_half_length=draw(COUNT),
        oversampling=draw(COUNT),
        energy_threshold=draw(floats(0.0, 1.0, exclude_low=True, exclude_high=True)),
        seed=draw(st.integers(0, 2**64 - 1)),
        v_rx_mps=draw(floats()),
        v_tx_mps=draw(floats()),
        gain_correlation=draw(st.none() | floats(0.0, 1.0)),
        snapshot_period_s=draw(st.none() | POSITIVE),
        n_snapshots=draw(COUNT),
        n_streams=draw(st.integers(1, limit)),
        tx_power_w=draw(POSITIVE),
        noise_figure_db=draw(floats()),
        noise_temperature_k=draw(POSITIVE),
        noise_variance_w=draw(st.none() | POSITIVE),
        n_trials=draw(COUNT),
        se_normalization=draw(st.sampled_from(["excess-bandwidth", "none"])),
        **dims,
    )


@settings(deadline=None, max_examples=100)
@given(config=valid_configs())
def test_valid_config_round_trips_exactly(tmp_path_factory, config):
    config.validate()
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text(serialize_config(config))
    assert parse_config(path) == config


# -- tensor files ----------------------------------------------------------


def complex_arrays(shape):
    return arrays(np.complex128, shape, elements=st.complex_numbers(max_magnitude=1e3))


@st.composite
def tensor_files(draw):
    """(writer, channel, matching reader) for a small static or dynamic tensor."""
    dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    offset = draw(st.integers(-20, 20))
    if draw(st.booleans()):
        taps = draw(complex_arrays(dims))
        channel = SampledChannel(taps=taps, sample_period=1e-9, tap_offset=offset)
        return write_static_channel, channel, read_static_channel
    snapshots = draw(complex_arrays((draw(st.integers(1, 3)),) + dims))
    channel = TimeVariantChannel(
        snapshots=snapshots, sample_period=1e-9, tap_offset=offset, snapshot_period=1e-6
    )
    return write_dynamic_channel, channel, read_dynamic_channel


@settings(deadline=None, max_examples=20)
@given(case=tensor_files())
def test_every_truncated_tensor_is_rejected_by_name(tmp_path_factory, case):
    write, channel, read_matching = case
    base = tmp_path_factory.getbasetemp()
    whole = base / "whole.mmwc"
    write(whole, channel)
    blob = whole.read_bytes()
    cut = base / "cut.mmwc"
    names_file = re.escape(str(cut))
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        for reader in (read_channel, read_matching):
            with pytest.raises(ValueError, match=names_file):
                reader(cut)
