"""Tests for the command-line front end."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mmwchan import ScenarioConfig, realize_channel, sample_channel
from mmwchan.cli import main
from mmwchan.io import (
    read_cdf_csv,
    read_channel,
    read_dynamic_channel,
    read_realization_metadata,
    read_static_channel,
)
from mmwchan.sampling import RngStream


def run_cli(*args):
    return main([str(a) for a in args])


def test_generate_static_writes_tensor_and_metadata(tmp_path, capsys):
    out = tmp_path / "drop.mmwc"
    code = run_cli(
        "generate-static", "--set", "seed=11", "--set", "distance_m=25", "--output", out
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out

    channel = read_static_channel(out)
    config = ScenarioConfig(seed=11, distance_m=25.0)
    real = realize_channel(config, RngStream(11, 0).generator())
    expected = sample_channel(
        real, config.arrays(), config.pulse(), config.energy_threshold
    )
    np.testing.assert_array_equal(channel.taps, expected.taps)
    assert channel.tap_offset == expected.tap_offset

    run, stored = read_realization_metadata(tmp_path / "drop.json")
    assert run["command"] == "generate-static"
    assert run["seed"] == 11
    assert run["stream_id"] == 0
    assert run["config"]["distance_m"] == 25.0
    assert run["n_taps"] == channel.n_taps
    np.testing.assert_array_equal(stored.clusters[0].gains, real.clusters[0].gains)


def test_generate_static_explicit_metadata_path(tmp_path):
    out = tmp_path / "drop.mmwc"
    meta = tmp_path / "elsewhere.json"
    run_cli("generate-static", "--set", "seed=1", "--output", out, "--metadata", meta)
    assert meta.exists()
    assert not (tmp_path / "drop.json").exists()


def test_generate_static_reads_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 4\ndistance_m = 18\nrx_horizontal = 3\nrx_vertical = 2\n")
    out = tmp_path / "drop.mmwc"
    run_cli("generate-static", "--config", cfg, "--output", out)
    channel = read_static_channel(out)
    assert channel.n_rx == 6
    # --set wins over the file
    out2 = tmp_path / "drop2.mmwc"
    run_cli(
        "generate-static", "--config", cfg, "--set", "rx_horizontal=5",
        "--set", "rx_vertical=4", "--output", out2,
    )
    assert read_static_channel(out2).n_rx == 20


def test_generate_dynamic_writes_snapshot_sequence(tmp_path):
    out = tmp_path / "seq.mmwc"
    code = run_cli(
        "generate-dynamic",
        "--set", "seed=6", "--set", "v_rx_mps=20", "--set", "n_snapshots=5",
        "--set", "snapshot_period_s=1e-6",
        "--output", out,
    )
    assert code == 0
    channel = read_dynamic_channel(out)
    assert channel.n_snapshots == 5
    assert channel.snapshot_period == 1e-6
    run, _ = read_realization_metadata(tmp_path / "seq.json")
    assert run["command"] == "generate-dynamic"
    assert run["stream_ids"] == {"realization": 0, "evolution": 1}
    assert run["n_snapshots"] == 5


def test_dynamic_snapshot_zero_matches_static_tensor(tmp_path):
    static_out = tmp_path / "static.mmwc"
    dynamic_out = tmp_path / "dynamic.mmwc"
    common = ["--set", "seed=9", "--set", "distance_m=35"]
    run_cli("generate-static", *common, "--output", static_out)
    run_cli(
        "generate-dynamic", *common, "--set", "v_rx_mps=15",
        "--set", "n_snapshots=3", "--output", dynamic_out,
    )
    static = read_static_channel(static_out)
    dynamic = read_dynamic_channel(dynamic_out)
    np.testing.assert_array_equal(dynamic.snapshots[0], static.taps)
    assert dynamic.tap_offset == static.tap_offset


def test_eval_cdf_writes_csv_and_log(tmp_path, capsys):
    out = tmp_path / "cdf.csv"
    log = tmp_path / "trials.json"
    code = run_cli(
        "eval-cdf", "--set", "seed=2", "--set", "n_trials=5",
        "--output", out, "--trial-log", log,
    )
    assert code == 0
    assert "median" in capsys.readouterr().out
    se, cdf = read_cdf_csv(out)
    assert len(se) == 5
    assert np.all(np.diff(se) >= 0)
    np.testing.assert_allclose(cdf, np.arange(1, 6) / 5.0)
    doc = json.loads(log.read_text())
    assert doc["run"]["command"] == "eval-cdf"
    assert doc["run"]["n_trials"] == 5
    assert len(doc["trials"]) == 5
    assert [t["trial"] for t in doc["trials"]] == list(range(5))


def test_eval_cdf_repeat_runs_are_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["eval-cdf", "--set", "seed=3", "--set", "n_trials=4"]
    run_cli(*args, "--output", a)
    run_cli(*args, "--output", b)
    assert a.read_bytes() == b.read_bytes()


def test_unknown_config_key_exits_with_message(tmp_path):
    with pytest.raises(SystemExit, match="no_such_key"):
        run_cli(
            "generate-static", "--set", "no_such_key=1",
            "--output", tmp_path / "x.mmwc",
        )


def test_malformed_set_argument_exits(tmp_path):
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        run_cli(
            "generate-static", "--set", "distance_m", "--output", tmp_path / "x.mmwc"
        )


def test_invalid_value_exits_with_key_name(tmp_path):
    with pytest.raises(SystemExit, match="distance_m"):
        run_cli(
            "generate-static", "--set", "distance_m=-5",
            "--output", tmp_path / "x.mmwc",
        )
    with pytest.raises(SystemExit, match="configuration error: 'distance_m'"):
        run_cli("eval-cdf", "--set", "distance_m=nan", "--output", tmp_path / "x.csv")


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "drop.mmwc"
    proc = subprocess.run(
        [
            sys.executable, "-m", "mmwchan.cli",
            "generate-static", "--set", "seed=0", "--output", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert read_channel(out).n_rx == 20
