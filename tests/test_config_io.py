"""Tests for the flat config format and the on-disk artifact formats."""

import dataclasses
import errno
import json
import re
import struct

import numpy as np
import pytest

from conftest import dyadic_pulse, fixed_realization
from mmwchan import (
    MobilitySpec,
    ScenarioConfig,
    evolve_channel,
    parse_config,
    sample_channel,
    serialize_config,
)
from mmwchan.channel import SampledChannel
from mmwchan.io import (
    DYNAMIC_VERSION,
    MAGIC,
    STATIC_VERSION,
    read_cdf_csv,
    read_channel,
    read_dynamic_channel,
    read_realization_metadata,
    read_static_channel,
    realization_from_dict,
    realization_to_dict,
    write_cdf_csv,
    write_dynamic_channel,
    write_realization_metadata,
    write_static_channel,
    write_trial_log,
)
from test_channel import delta_realization, small_arrays


# -- configuration ---------------------------------------------------------


def test_default_config_is_valid():
    config = ScenarioConfig()
    config.validate()
    assert config.symbol_period == pytest.approx(2.44e-9, rel=1e-12)
    assert config.wavelength == pytest.approx(299792458.0 / 73e9, rel=1e-15)


def test_parse_config_file_with_comments(tmp_path):
    text = """
# deployment
scenario = inh-office
distance_m = 12.5   # metres
rx_horizontal = 10
shadow_per_cluster = true
noise_variance_w = auto
gain_correlation = 0.97
"""
    path = tmp_path / "run.cfg"
    path.write_text(text)
    config = parse_config(path)
    assert config.scenario == "inh-office"
    assert config.distance_m == 12.5
    assert config.rx_horizontal == 10
    assert config.shadow_per_cluster is True
    assert config.noise_variance_w is None
    assert config.gain_correlation == 0.97
    # untouched keys keep their defaults
    assert config.tx_horizontal == 6


def test_parse_config_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distance_m = 12.5\n")
    config = parse_config(path, {"distance_m": "40", "seed": "9"})
    assert config.distance_m == 40.0
    assert config.seed == 9


def test_parse_config_unknown_key_named(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distanse_m = 12.5\n")
    with pytest.raises(ValueError, match="distanse_m"):
        parse_config(path)
    with pytest.raises(ValueError, match="does_not_exist"):
        parse_config(None, {"does_not_exist": "1"})


@pytest.mark.parametrize(
    "line, message",
    [
        ("distance_m = twelve", "key 'distance_m': expected a number, got 'twelve'"),
        (
            "shadow_per_cluster = maybe",
            "key 'shadow_per_cluster': expected a boolean, got 'maybe'",
        ),
        ("n_trials = 2.5", "key 'n_trials': expected an integer, got '2.5'"),
    ],
    ids=["number", "boolean", "integer"],
)
def test_parse_config_bad_value_named(tmp_path, line, message):
    path = tmp_path / "run.cfg"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(path)


def test_parse_config_bad_line_reports_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("scenario = umi-street-canyon\njust a line\n")
    with pytest.raises(ValueError, match=":2"):
        parse_config(path)


def test_parse_config_rejects_duplicate_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("distance_m = 10\nseed = 1\ndistance_m = 20\n")
    with pytest.raises(ValueError, match=r"run\.cfg:3: .*'distance_m'"):
        parse_config(path)


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda path: None, "No such file"),
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"seed = 1\n\xff\xfe\n"), "can't decode"),
    ],
    ids=["missing", "directory", "not-utf8"],
)
def test_parse_config_unreadable_file_is_named(tmp_path, make, reason):
    path = tmp_path / "run.cfg"
    make(path)
    with pytest.raises(ValueError, match=rf"run\.cfg: cannot read .*{reason}"):
        parse_config(path)


def test_parse_config_validates_result():
    with pytest.raises(ValueError, match="scenario"):
        parse_config(None, {"scenario": "nowhere"})
    with pytest.raises(ValueError, match="n_streams"):
        parse_config(None, {"n_streams": "99"})


@pytest.mark.parametrize(
    "key, value",
    [
        ("carrier_frequency_hz", float("nan")),
        ("rx_orientation_rad", float("nan")),
        ("max_distance_factor", float("nan")),
        ("scattered_pathloss", "bogus"),
        ("shadow_per_cluster", "no"),
    ],
)
def test_scenario_config_rejects_bad_value_at_construction(key, value):
    # Unchecked, each reaches realize_channel: non-finite taps, numpy's
    # OverflowError, or a silent render with a meaningless setting.
    with pytest.raises(ValueError, match=f"'{key}'"):
        ScenarioConfig(**{key: value})


def test_scenario_config_is_frozen():
    # A field reassigned after construction would skip the check; see
    # test_scenario_config_rejects_bad_value_at_construction.
    config = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.carrier_frequency_hz = float("nan")
    assert config.carrier_frequency_hz == 73e9


def test_replaced_scenario_config_is_checked_again():
    with pytest.raises(ValueError, match="'carrier_frequency_hz'"):
        dataclasses.replace(ScenarioConfig(), carrier_frequency_hz=float("nan"))


def test_serialize_round_trip(tmp_path):
    config = ScenarioConfig(
        scenario="inh-shopping-mall",
        distance_m=17.25,
        bandwidth_hz=123.456e6,
        shadow_per_cluster=True,
        gain_correlation=None,
        noise_variance_w=3.25e-13,
        seed=1234,
        v_rx_mps=2.5,
    )
    path = tmp_path / "round.cfg"
    path.write_text(serialize_config(config))
    parsed = parse_config(path)
    assert parsed == config


def test_serialize_preserves_float_precision(tmp_path):
    config = ScenarioConfig(distance_m=np.nextafter(30.0, 31.0))
    path = tmp_path / "precise.cfg"
    path.write_text(serialize_config(config))
    assert parse_config(path).distance_m == config.distance_m


# -- binary tensors --------------------------------------------------------


def sampled_for_io():
    real = delta_realization([0.0, 1.5], [-80.0, -83.0], los=True)
    return sample_channel(real, small_arrays(), dyadic_pulse())


def test_static_tensor_round_trip(tmp_path):
    channel = sampled_for_io()
    path = tmp_path / "chan.mmwc"
    write_static_channel(path, channel)
    back = read_static_channel(path)
    np.testing.assert_array_equal(back.taps, channel.taps)
    assert back.sample_period == channel.sample_period
    assert back.tap_offset == channel.tap_offset


def test_static_tensor_header_layout(tmp_path):
    channel = sampled_for_io()
    path = tmp_path / "chan.mmwc"
    write_static_channel(path, channel)
    blob = path.read_bytes()
    magic, version, n_rx, n_tx, n_taps, period, offset = struct.unpack_from(
        "<4sIIIIdq", blob
    )
    assert magic == MAGIC == b"MMWC"
    assert version == STATIC_VERSION == 1
    assert (n_rx, n_tx, n_taps) == (channel.n_rx, channel.n_tx, channel.n_taps)
    assert period == channel.sample_period
    assert offset == channel.tap_offset
    header = struct.calcsize("<4sIIIIdq")
    assert len(blob) == header + n_taps * n_rx * n_tx * 16
    # first complex sample, little-endian interleaved re/im
    re, im = struct.unpack_from("<dd", blob, header)
    assert re + 1j * im == channel.taps[0, 0, 0]


def test_dynamic_tensor_header_layout(tmp_path):
    real = delta_realization([0.0, 2.0], [-80.0, -83.0])
    mob = MobilitySpec(v_rx=10.0, n_snapshots=3)
    channel = evolve_channel(
        real, small_arrays(), dyadic_pulse(), mob, np.random.default_rng(0)
    )
    path = tmp_path / "seq.mmwc"
    write_dynamic_channel(path, channel)
    blob = path.read_bytes()
    fields = struct.unpack_from("<4sIIIIdqId", blob)
    magic, version, n_rx, n_tx, n_taps, period, offset, n_snap, snap_period = fields
    assert magic == MAGIC == b"MMWC"
    assert version == DYNAMIC_VERSION == 2
    assert (n_snap, n_taps, n_rx, n_tx) == channel.snapshots.shape
    assert period == channel.sample_period
    assert offset == channel.tap_offset
    assert snap_period == channel.snapshot_period
    header = struct.calcsize("<4sIIIIdqId")
    assert len(blob) == header + n_snap * n_taps * n_rx * n_tx * 16
    re, im = struct.unpack_from("<dd", blob, header)
    assert re + 1j * im == channel.snapshots[0, 0, 0, 0]


def test_failed_tensor_write_leaves_no_partial_file(tmp_path):
    class TapsOnAFullDisk:
        """Taps whose payload fails to arrive after the header is written."""

        shape = (4, 3, 2)

        def __array__(self, dtype=None, copy=None):
            raise OSError(errno.ENOSPC, "No space left on device")

    path = tmp_path / "chan.mmwc"
    path.write_bytes(b"an earlier run's tensor")
    with pytest.raises(OSError, match="No space left"):
        write_static_channel(path, SampledChannel(TapsOnAFullDisk(), 1e-9, 0))
    assert not path.exists()


def test_negative_tap_offset_survives_round_trip(tmp_path):
    channel = sampled_for_io()
    shifted = SampledChannel(
        taps=channel.taps, sample_period=channel.sample_period, tap_offset=-3
    )
    path = tmp_path / "neg.mmwc"
    write_static_channel(path, shifted)
    assert read_static_channel(path).tap_offset == -3


def test_dynamic_tensor_round_trip(tmp_path):
    real = delta_realization([0.0, 2.0], [-80.0, -83.0])
    mob = MobilitySpec(v_rx=10.0, n_snapshots=3)
    channel = evolve_channel(
        real, small_arrays(), dyadic_pulse(), mob, np.random.default_rng(0)
    )
    path = tmp_path / "seq.mmwc"
    write_dynamic_channel(path, channel)
    back = read_dynamic_channel(path)
    np.testing.assert_array_equal(back.snapshots, channel.snapshots)
    assert back.sample_period == channel.sample_period
    assert back.tap_offset == channel.tap_offset
    assert back.snapshot_period == channel.snapshot_period
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    assert int.from_bytes(blob[4:8], "little") == DYNAMIC_VERSION


def test_read_channel_dispatches_on_version(tmp_path):
    static_path = tmp_path / "static.mmwc"
    write_static_channel(static_path, sampled_for_io())
    assert isinstance(read_channel(static_path), SampledChannel)

    real = delta_realization([0.0], [-80.0])
    mob = MobilitySpec(n_snapshots=2)
    dyn = evolve_channel(
        real, small_arrays(), dyadic_pulse(), mob, np.random.default_rng(0)
    )
    dynamic_path = tmp_path / "dynamic.mmwc"
    write_dynamic_channel(dynamic_path, dyn)
    assert read_channel(dynamic_path).n_snapshots == 2

    with pytest.raises(ValueError, match="version"):
        read_static_channel(dynamic_path)
    with pytest.raises(ValueError, match="version"):
        read_dynamic_channel(static_path)


def test_corrupt_files_are_rejected(tmp_path):
    path = tmp_path / "bad.mmwc"
    path.write_bytes(b"WRONGSTUFF" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_channel(path)
    good = tmp_path / "good.mmwc"
    write_static_channel(good, sampled_for_io())
    truncated = tmp_path / "short.mmwc"
    truncated.write_bytes(good.read_bytes()[:-16])
    with pytest.raises(ValueError, match="payload"):
        read_static_channel(truncated)


# -- realization metadata --------------------------------------------------


def test_realization_dict_round_trip():
    real = fixed_realization(n_rays=3, same_angles=False, los=True, seed=2)
    back = realization_from_dict(realization_to_dict(real))
    assert back.scenario == real.scenario
    assert back.carrier_frequency == real.carrier_frequency
    assert back.geometry == real.geometry
    assert back.gain_normalization == real.gain_normalization
    assert back.los.present == real.los.present
    assert back.los.phase == real.los.phase
    assert back.n_clusters == real.n_clusters
    for a, b in zip(real.clusters, back.clusters):
        np.testing.assert_array_equal(a.gains, b.gains)
        np.testing.assert_array_equal(a.delays, b.delays)
        np.testing.assert_array_equal(a.attenuation_db, b.attenuation_db)
        assert a.mean_angles == b.mean_angles


def test_metadata_file_round_trip(tmp_path):
    real = fixed_realization(n_rays=2, los=False, seed=5)
    path = tmp_path / "real.json"
    write_realization_metadata(path, real, {"command": "test", "seed": 5})
    run, back = read_realization_metadata(path)
    assert run == {"command": "test", "seed": 5}
    np.testing.assert_array_equal(back.clusters[0].gains, real.clusters[0].gains)
    # identical tap tensors after a metadata round trip
    a = sample_channel(real, small_arrays(), dyadic_pulse())
    b = sample_channel(back, small_arrays(), dyadic_pulse())
    np.testing.assert_array_equal(a.taps, b.taps)
    assert a.tap_offset == b.tap_offset


ANGLE_KEYS = {"aod_azimuth_rad", "aod_elevation_rad", "aoa_azimuth_rad", "aoa_elevation_rad"}


def test_sidecar_key_names_are_pinned(tmp_path):
    path = tmp_path / "real.json"
    write_realization_metadata(path, fixed_realization(n_rays=3, los=True), {})
    stored = json.loads(path.read_text())["realization"]
    assert set(stored) == {
        "scenario", "carrier_frequency_hz", "distance_m", "tx_height_m",
        "rx_height_m", "gain_normalization", "los", "clusters",
    }
    assert set(stored["los"]) == ANGLE_KEYS | {
        "present", "path_length_m", "delay_s", "attenuation_db", "shadow_db",
        "phase_rad",
    }
    (cluster,) = stored["clusters"]
    assert set(cluster) == ANGLE_KEYS | {
        "distance_m", "mean", "gain_real", "gain_imag", "shadow_db",
        "attenuation_db", "path_length_m", "delay_s",
    }
    assert set(cluster["mean"]) == ANGLE_KEYS
    assert all(len(cluster[key]) == 3 for key in cluster if key not in ("distance_m", "mean"))


def sidecar_with(tmp_path, edit):
    """Path of a sidecar whose realization dictionary went through ``edit``."""
    path = tmp_path / "real.json"
    write_realization_metadata(path, fixed_realization(n_rays=3, los=True), {})
    document = json.loads(path.read_text())
    edit(document["realization"])
    path.write_text(json.dumps(document))
    return path


def _no_rays(realization):
    """Empty every per-ray list of cluster 0."""
    cluster = realization["clusters"][0]
    for key in cluster.keys() - {"distance_m", "mean"}:
        cluster[key].clear()


def _no_paths(realization):
    """No cluster and a blocked direct path."""
    realization["clusters"].clear()
    realization["los"]["present"] = False


def _ray_at(fraction):
    """Ray 0 of cluster 0 at ``fraction`` of the direct path's length, its
    delay to match."""

    def edit(realization):
        cluster, los = realization["clusters"][0], realization["los"]
        cluster["path_length_m"][0] = los["path_length_m"] * fraction
        cluster["delay_s"][0] = los["delay_s"] * fraction

    return edit


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda r: r["los"].pop("phase_rad"), "missing key 'phase_rad'"),
        (lambda r: r["clusters"][0]["mean"].pop("aoa_azimuth_rad"), "'aoa_azimuth_rad'"),
        (lambda r: r.pop("tx_height_m"), "missing key 'tx_height_m'"),
        (lambda r: r["clusters"][0]["delay_s"].pop(), "cluster 0: per-ray arrays"),
        (lambda r: r["clusters"][0]["gain_imag"].append(0.0), "cluster 0: per-ray arrays"),
        (_no_rays, "cluster 0: no rays"),
        (_no_paths, "paths .*clusters.* must be .* in \\[1, inf\\), got 0"),
        (lambda r: r.update(carrier_frequency_hz=0), "carrier_frequency_hz must be .* got 0"),
        (lambda r: r["clusters"][0]["delay_s"].__setitem__(0, -1e-3), "cluster 0: key 'delay_s'"),
        (lambda r: r["los"].update(delay_s=r["los"]["delay_s"] * 1.01), "los: key 'delay_s'"),
        (_ray_at(0.5), "cluster 0: key 'path_length_m' is shorter than the direct path"),
    ],
    ids=[
        "los-key", "mean-key", "geometry-key", "short-delays", "long-gains", "no-rays",
        "no-paths", "zero-carrier", "delay-inconsistent", "los-delay-inconsistent",
        "ray-shorter-than-direct",
    ],
)
def test_malformed_sidecar_names_file_and_key_or_cluster(tmp_path, edit, match):
    path = sidecar_with(tmp_path, edit)
    with pytest.raises(ValueError, match=f"real.json: .*{match}"):
        read_realization_metadata(path)


def test_sidecar_ray_as_long_as_the_direct_path_loads(tmp_path):
    # Round-off below 1e-9 relative is not a shorter path.
    _, back = read_realization_metadata(sidecar_with(tmp_path, _ray_at(1.0 - 1e-12)))
    assert back.clusters[0].path_lengths[0] < back.los.path_length


def _set(obj, key, value):
    obj[key] = value


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda r: _set(r, "clusters", [1]), "key 'clusters' must be a list of objects"),
        (lambda r: _set(r, "distance_m", "far"), "key 'distance_m' must be a number"),
        (lambda r: _set(r, "scenario", 3), "key 'scenario' must be a string"),
        (lambda r: _set(r["los"], "present", 1), "key 'present' must be a boolean"),
        (lambda r: _set(r["los"], "phase_rad", True), "key 'phase_rad' must be a number"),
        (lambda r: _set(r, "los", []), "key 'los' must be an object"),
        (lambda r: _set(r["clusters"][0], "mean", 0.5), "key 'mean' must be an object"),
        (
            lambda r: _set(r["clusters"][0], "delay_s", 1e-7),
            "key 'delay_s' must be a list of numbers",
        ),
        (
            lambda r: r["clusters"][0]["gain_real"].append("x"),
            "key 'gain_real' must be a list of numbers",
        ),
        (
            lambda r: _set(r["clusters"][0]["delay_s"], 0, float("nan")),
            "key 'delay_s' must be a list of numbers",
        ),
        (
            lambda r: _set(r["clusters"][0]["gain_real"], 1, float("inf")),
            "key 'gain_real' must be a list of numbers",
        ),
        (
            lambda r: _set(r["clusters"][0]["gain_imag"], 2, float("-inf")),
            "key 'gain_imag' must be a list of numbers",
        ),
        (lambda r: _set(r, "distance_m", float("nan")), "key 'distance_m' must be a number"),
        (lambda r: _set(r["los"], "phase_rad", float("inf")), "key 'phase_rad' must be a number"),
        (lambda r: _set(r, "tx_height_m", float("-inf")), "key 'tx_height_m' must be a number"),
    ],
    ids=[
        "clusters-number", "distance-text", "scenario-number", "present-number",
        "phase-bool", "los-list", "mean-number", "delays-scalar", "gains-text",
        "delays-nan", "gains-infinity", "gains-minus-infinity",
        "distance-nan", "phase-infinity", "height-minus-infinity",
    ],
)
def test_sidecar_value_of_wrong_kind_names_file_and_key(tmp_path, edit, match):
    path = sidecar_with(tmp_path, edit)
    with pytest.raises(ValueError, match=f"real.json: {match}"):
        read_realization_metadata(path)


def test_non_json_sidecar_names_file(tmp_path):
    path = tmp_path / "real.json"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="real.json: "):
        read_realization_metadata(path)


# -- CSV and trial log -----------------------------------------------------


def test_cdf_csv_round_trip(tmp_path):
    se = np.sort(np.random.default_rng(0).uniform(0.0, 20.0, 16))
    cdf = np.arange(1, 17) / 16.0
    path = tmp_path / "cdf.csv"
    write_cdf_csv(path, se, cdf)
    text = path.read_text()
    assert text.splitlines()[0] == "spectral_efficiency_bits_s_hz,cdf"
    se2, cdf2 = read_cdf_csv(path)
    np.testing.assert_array_equal(se2, se)
    np.testing.assert_array_equal(cdf2, cdf)


def test_cdf_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope,cdf\n1.0,0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_cdf_csv(path)


@pytest.mark.parametrize("text", ["", "\n", "spectral_efficiency_bits_s_hz,cdf\n"])
def test_cdf_csv_without_rows_is_rejected(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="empty.csv"):
        read_cdf_csv(path)


@pytest.mark.parametrize(
    "rows, match",
    [
        ("1.0,0.5\n1.0,abc", "bad.csv:3: could not convert"),
        ("2.5\n3.0,1.0", "bad.csv:2: not enough values"),
        ("1.0,0.5\n1.0,0.5,2.0", "bad.csv:3: too many values"),
    ],
)
def test_cdf_csv_bad_row_names_file_and_line(tmp_path, rows, match):
    path = tmp_path / "bad.csv"
    path.write_text(f"spectral_efficiency_bits_s_hz,cdf\n{rows}\n")
    with pytest.raises(ValueError, match=match):
        read_cdf_csv(path)


def test_trial_log_structure(tmp_path):
    import json

    from mmwchan.link import LinkResult

    results = [
        LinkResult(
            rate=5.5, spectral_efficiency=4.5, trial_seed=k, los=bool(k % 2),
            n_clusters=2, n_taps=7, selected_tap=1,
        )
        for k in range(3)
    ]
    path = tmp_path / "trials.json"
    write_trial_log(path, {"command": "eval-cdf", "seed": 0}, results)
    doc = json.loads(path.read_text())
    assert doc["run"]["command"] == "eval-cdf"
    assert len(doc["trials"]) == 3
    assert doc["trials"][1] == {
        "trial": 1,
        "stream_id": 1,
        "rate_bits_per_use": 5.5,
        "spectral_efficiency_bits_s_hz": 4.5,
        "los": True,
        "n_clusters": 2,
        "n_taps": 7,
        "selected_tap": 1,
    }
