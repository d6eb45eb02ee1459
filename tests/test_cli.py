"""Tests for the command-line front end."""

import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mmwchan import (
    ScenarioConfig,
    evolve_channel,
    parse_config,
    realize_channel,
    sample_channel,
    timevariant,
)
from mmwchan.channel import _lay_paths
from mmwchan.cli import EVOLUTION_STREAM, REALIZATION_STREAM, main
from mmwchan.io import (
    read_cdf_csv,
    read_channel,
    read_dynamic_channel,
    read_realization_metadata,
    read_static_channel,
    write_dynamic_channel,
)
from mmwchan.sampling import RngStream
from mmwchan.timevariant import SnapshotStream


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


def _config_args(overrides):
    return [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]


ONE_BY_ONE = {
    "tx_horizontal": 1, "tx_vertical": 1, "rx_horizontal": 1, "rx_vertical": 1, "n_streams": 1
}


@pytest.mark.parametrize("n_snapshots", [1, 2, 9, 64])
def test_streamed_tensor_equals_in_memory_tensor(tmp_path, monkeypatch, n_snapshots):
    """generate-dynamic, and write_dynamic_channel given the drop's
    SnapshotStream, write chunk by chunk the bytes that evolve_channel and
    write_dynamic_channel write at once, which perfbench's traced run
    compares against: at 20 x 30 arrays, where a chunk's taps set its
    length, and at 1 x 1, where eight times its weights do."""
    for arrays in ({}, ONE_BY_ONE):
        overrides = {"seed": 7, "v_rx_mps": 20, "n_snapshots": n_snapshots, **arrays}
        config = parse_config(None, {k: str(v) for k, v in overrides.items()})
        real = realize_channel(config, RngStream(7, REALIZATION_STREAM).generator())

        def drop(render):
            """The drop's snapshot sequence from ``render``, drawn afresh."""
            return render(
                real, config.arrays(), config.pulse(), config.mobility(),
                RngStream(7, EVOLUTION_STREAM).generator(), config.energy_threshold,
                config.oversampling,
            )

        monkeypatch.setattr(timevariant, "CHUNK_BYTES", 1 << 40)  # one chunk
        channel = drop(evolve_channel)
        write_dynamic_channel(tmp_path / "memory.mmwc", channel)
        expected = (tmp_path / "memory.mmwc").read_bytes()
        plan = _lay_paths(real, config.arrays(), config.pulse(), config.oversampling)
        weight_bytes = 8 * 16 * len(plan.weights)
        assert (weight_bytes > channel.snapshots[0].nbytes) == bool(arrays)
        # one snapshot per chunk, five (dividing none of 2, 9, 64 and none of
        # 1, 8, 63) and more than the whole tensor
        for per_chunk in (1, 5, n_snapshots + 1):
            chunk_bytes = per_chunk * max(channel.snapshots[0].nbytes, weight_bytes)
            monkeypatch.setattr(timevariant, "CHUNK_BYTES", chunk_bytes)
            out = tmp_path / f"stream{per_chunk}.mmwc"
            run_cli("generate-dynamic", *_config_args(overrides), "--output", out)
            assert out.read_bytes() == expected, (arrays, per_chunk)
            library = tmp_path / f"library{per_chunk}.mmwc"
            write_dynamic_channel(library, drop(SnapshotStream))
            assert library.read_bytes() == expected, (arrays, per_chunk)
            run, _ = read_realization_metadata(out.with_suffix(".json"))
            assert run["n_snapshots"] == n_snapshots
            assert (run["n_taps"], run["tap_offset"]) == (channel.n_taps, channel.tap_offset)
            assert run["sample_period_s"] == channel.sample_period
            assert run["snapshot_period_s"] == channel.snapshot_period


STATIC_RUN_KEYS = {
    "command", "seed", "config", "stream_id", "n_taps", "tap_offset", "sample_period_s"
}
DYNAMIC_RUN_KEYS = STATIC_RUN_KEYS - {"stream_id"} | {
    "stream_ids", "n_snapshots", "snapshot_period_s"
}


def test_generate_commands_share_summary_line_and_run_record(tmp_path, capsys):
    """Both commands print one summary line (tensor shape, offset, LOS or
    NLOS, clusters / rays) and record the same run facts, the dynamic one
    with its snapshot facts in place of the one stream id."""
    config = ScenarioConfig(seed=3)
    real = realize_channel(config, RngStream(3, REALIZATION_STREAM).generator())
    channel = sample_channel(real, config.arrays(), config.pulse())
    offset, state = channel.tap_offset, "LOS" if real.los.present else "NLOS"
    for command, shape, keys in (
        ("generate-static", channel.taps.shape, STATIC_RUN_KEYS),
        ("generate-dynamic", (4, *channel.taps.shape), DYNAMIC_RUN_KEYS),
    ):
        out = tmp_path / f"{command}.mmwc"
        run_cli(command, "--set", "seed=3", "--set", "n_snapshots=4", "--output", out)
        assert capsys.readouterr().out == (
            f"wrote {out}: tensor {'x'.join(map(str, shape))}, offset {offset}, {state}, "
            f"{real.n_clusters} clusters / {real.total_rays} rays\n"
        )
        run, _ = read_realization_metadata(out.with_suffix(".json"))
        assert set(run) == keys
        assert (run["command"], run["n_taps"], run["tap_offset"]) == (
            command, channel.n_taps, offset
        )


def test_failed_render_leaves_no_partial_tensor(tmp_path, monkeypatch):
    path = tmp_path / "seq.mmwc"
    render = timevariant._render_taps
    calls, written = [], []

    def render_failing_in_a_later_chunk(plan, weights, out=None):
        # call k renders snapshot k - 1, so calls 1-4 write snapshots 0-3
        calls.append(len(weights))
        if len(calls) == 5:
            written.append(path.stat().st_size)
            raise RuntimeError("render failed")
        return render(plan, weights, out=out)

    monkeypatch.setattr(timevariant, "CHUNK_BYTES", 1)  # one snapshot per chunk
    monkeypatch.setattr(timevariant, "_render_taps", render_failing_in_a_later_chunk)
    with pytest.raises(RuntimeError, match="render failed"):
        run_cli("generate-dynamic", "--set", "v_rx_mps=20", "--set", "n_snapshots=8",
                "--output", path)
    assert written and written[0] > 0  # the file was open and partly written
    assert not path.exists()
    assert not path.with_suffix(".json").exists()


def test_generate_dynamic_memory_does_not_grow_with_snapshots(tmp_path):
    """Snapshots stream through one chunk buffer, their weights drawn chunk
    by chunk: the peak traced allocation stays below three chunks plus the
    size of one snapshot on the full grid, a margin for the plan (the
    full-grid tap plan and the row energies that select the tap
    window).  At 20 x 30 arrays the whole tensor of 256 snapshots is 81 MB;
    at 1 x 1 arrays the weights of 32768 snapshots of a 173-path drop would
    be 91 MB."""
    for overrides, min_file_bytes in (
        ({"seed": 5, "v_rx_mps": 20, "n_snapshots": 256}, 60e6),
        ({"seed": 152, "v_rx_mps": 20, "n_snapshots": 32768, **ONE_BY_ONE}, 20e6),
    ):
        config = parse_config(None, {k: str(v) for k, v in overrides.items()})
        real = realize_channel(config, RngStream(config.seed, REALIZATION_STREAM).generator())
        plan = _lay_paths(real, config.arrays(), config.pulse(), config.oversampling)
        full_grid_bytes = int(np.prod(plan.shape)) * 16
        out = tmp_path / "seq.mmwc"
        tracemalloc.start()
        try:
            run_cli("generate-dynamic", *_config_args(overrides), "--output", out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.stat().st_size >= min_file_bytes
        assert peak < 3 * timevariant.CHUNK_BYTES + full_grid_bytes, overrides


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


def test_unreadable_config_file_exits_with_its_path(tmp_path):
    missing = tmp_path / "missing.cfg"
    with pytest.raises(SystemExit, match=r"configuration error: .*missing\.cfg: cannot read"):
        run_cli("generate-static", "--config", missing, "--output", tmp_path / "x.mmwc")
    assert not (tmp_path / "x.mmwc").exists()


@pytest.mark.parametrize("command", ["generate-static", "generate-dynamic"])
def test_generate_refuses_output_that_is_its_sidecar(tmp_path, command):
    """A tensor written to the sidecar's path would be overwritten by the
    sidecar; the command exits before any drop runs, naming both paths."""
    out = tmp_path / "drop.json"
    with pytest.raises(SystemExit, match=r"--output .*drop\.json and its default sidecar"):
        run_cli(command, "--output", out)
    meta = tmp_path / "sub" / ".." / "drop.mmwc"
    with pytest.raises(SystemExit, match=r"--output .*drop\.mmwc and --metadata .*drop\.mmwc"):
        run_cli(command, "--output", tmp_path / "drop.mmwc", "--metadata", meta)
    assert not list(tmp_path.iterdir())


def test_eval_cdf_refuses_trial_log_that_is_its_output(tmp_path):
    out = tmp_path / "cdf.csv"
    with pytest.raises(SystemExit, match=r"--output .*cdf\.csv and --trial-log .*cdf\.csv"):
        run_cli("eval-cdf", "--set", "n_trials=2", "--output", out, "--trial-log", out)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config_name, outputs, label, target",
    [
        ("eval-cdf", "run.cfg", "--output run.cfg", "--output", "run.cfg"),
        ("eval-cdf", "run.cfg", "--output cdf.csv --trial-log run.cfg", "--trial-log", "run.cfg"),
        ("generate-static", "run.cfg", "--output run.cfg", "--output", "run.cfg"),
        ("generate-dynamic", "run.cfg", "--output run.cfg", "--output", "run.cfg"),
        ("generate-static", "run.cfg", "--output d.mmwc --metadata run.cfg", "--metadata",
         "run.cfg"),
        ("generate-dynamic", "run.cfg", "--output d.mmwc --metadata run.cfg", "--metadata",
         "run.cfg"),
        ("generate-static", "drop.json", "--output drop.mmwc", "its default sidecar", "drop.json"),
        ("eval-cdf", "run.cfg", "--output link.csv", "--output", "link.csv"),
    ],
    ids=[
        "cdf-output", "cdf-trial-log", "static-output", "dynamic-output",
        "static-metadata", "dynamic-metadata", "static-default-sidecar", "cdf-output-hard-link",
    ],
)
def test_no_output_overwrites_the_config_file(
    tmp_path, command, config_name, outputs, label, target
):
    """Every output is checked against ``--config`` before any drop runs, as
    a path and, when both exist, as a file (``target`` differs from the
    config's name for a hard link to it): the command exits naming both, and
    the config file keeps its bytes."""
    config = tmp_path / config_name
    config.write_text("seed = 4\nn_trials = 2\nn_snapshots = 2\n")
    before = config.read_bytes()
    if target != config_name:
        os.link(config, tmp_path / target)
    argv = [str(tmp_path / a) if i % 2 else a for i, a in enumerate(outputs.split())]
    name, other = re.escape(config_name), re.escape(target)
    message = rf"^--config .*{name} and {label} .*{other} are the same file"
    with pytest.raises(SystemExit, match=message):
        run_cli(command, "--config", config, *argv)
    assert config.read_bytes() == before
    assert {f.name for f in tmp_path.iterdir()} == {config_name, target}


@pytest.mark.parametrize(
    "command, flag",
    [
        ("generate-static", "--output"),
        ("generate-static", "--metadata"),
        ("generate-dynamic", "--output"),
        ("generate-dynamic", "--metadata"),
        ("eval-cdf", "--output"),
        ("eval-cdf", "--trial-log"),
    ],
)
def test_unusable_output_location_exits_before_any_drop(tmp_path, command, flag):
    """An output that is a directory, or whose directory does not exist,
    stops the command before any drop runs, naming the flag and the path;
    no file is written."""
    (tmp_path / "adir").mkdir()
    for target, message in (
        ("missing/x.out", r"missing/x\.out: .*missing is not a directory$"),
        ("adir", r"adir is a directory$"),
    ):
        argv = [flag, tmp_path / target]
        if flag != "--output":
            argv += ["--output", tmp_path / "out.bin"]
        with pytest.raises(SystemExit, match=rf"^{flag} .*{message}"):
            run_cli(command, "--set", "n_trials=2", "--set", "n_snapshots=2", *argv)
        assert [f.name for f in tmp_path.rglob("*")] == ["adir"]


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
    for jobs in ("0", "-1"):
        with pytest.raises(SystemExit, match="--jobs must be an integer >= 1"):
            run_cli("eval-cdf", "--jobs", jobs, "--output", tmp_path / "x.csv")
    assert not (tmp_path / "x.csv").exists()


def test_successive_calls_do_not_share_overrides(tmp_path):
    # main() reuses one parser; each call must still see only its own --set.
    for seed in (3, 4):
        run_cli(
            "generate-static", "--set", f"seed={seed}", "--output", tmp_path / f"{seed}.mmwc"
        )
    run_cli("generate-static", "--output", tmp_path / "default.mmwc")
    configs = [
        json.loads((tmp_path / f"{name}.json").read_text())["run"]["config"]
        for name in ("3", "4", "default")
    ]
    assert [c["seed"] for c in configs] == [3, 4, 0]
    assert configs[0] != configs[1]


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
