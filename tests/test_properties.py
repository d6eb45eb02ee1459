"""Property tests for the input boundary: the config parser, the component
constructors and the tensor readers turn every malformed input into a
ValueError naming the key, field or file."""

import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmwchan import (
    MobilitySpec,
    PlanarArray,
    PulseSpec,
    ScenarioConfig,
    parse_config,
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
from mmwchan.propagation import SCENARIOS
from mmwchan.timevariant import TimeVariantChannel

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


COMPONENT_FIELDS = {
    "symbol_period": lambda x: PulseSpec(symbol_period=x),
    "snapshot_period": lambda x: MobilitySpec(snapshot_period=x),
    "v_rx": lambda x: MobilitySpec(v_rx=x),
    "v_tx": lambda x: MobilitySpec(v_tx=x),
    "spacing_wavelengths": lambda x: PlanarArray(2, 2, x),
    "truncation_half_length": lambda x: PulseSpec(1e-9, truncation_half_length=x),
    "n_snapshots": lambda x: MobilitySpec(n_snapshots=x),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", COMPONENT_FIELDS)
def test_non_finite_component_field_is_rejected_by_name(field, value):
    # Direct library callers bypass ScenarioConfig.validate.
    with pytest.raises(ValueError, match=f"{field} must be .*finite"):
        COMPONENT_FIELDS[field](value)


@pytest.mark.parametrize("field", ["truncation_half_length", "n_snapshots"])
def test_fractional_count_field_is_rejected_by_name(field):
    with pytest.raises(ValueError, match=f"{field} must be a finite integer"):
        COMPONENT_FIELDS[field](2.5)


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
