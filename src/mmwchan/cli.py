"""Command-line front end: generate tap tensors and evaluate rate CDFs."""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .channel import realize_channel, sample_channel
from .config import parse_config
from .io import (
    write_cdf_csv,
    write_dynamic_channel,
    write_realization_metadata,
    write_static_channel,
    write_trial_log,
)
from .link import run_cdf_experiment
from .sampling import RngStream
from .timevariant import evolve_channel

#: Substream labels used by the subcommands.
REALIZATION_STREAM = 0
EVOLUTION_STREAM = 1


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key = value file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one configuration key (repeatable)",
    )


def _load_config(args):
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise SystemExit(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    try:
        return parse_config(args.config, overrides)
    except ValueError as err:
        raise SystemExit(f"configuration error: {err}") from None


def _metadata_path(args) -> Path:
    if args.metadata is not None:
        return args.metadata
    return Path(args.output).with_suffix(".json")


def cmd_generate_static(args) -> int:
    config = _load_config(args)
    rng = RngStream(config.seed, REALIZATION_STREAM).generator()
    real = realize_channel(config, rng)
    channel = sample_channel(
        real,
        config.arrays(),
        config.pulse(),
        config.energy_threshold,
        config.oversampling,
    )
    write_static_channel(args.output, channel)
    run_info = {
        "command": "generate-static",
        "seed": config.seed,
        "stream_id": REALIZATION_STREAM,
        "config": asdict(config),
        "n_taps": channel.n_taps,
        "tap_offset": channel.tap_offset,
        "sample_period_s": channel.sample_period,
    }
    write_realization_metadata(_metadata_path(args), real, run_info)
    print(
        f"wrote {args.output}: {channel.n_taps} taps "
        f"({channel.n_rx}x{channel.n_tx}), offset {channel.tap_offset}, "
        f"{'LOS' if real.los.present else 'NLOS'}, "
        f"{real.n_clusters} clusters / {real.total_rays} rays"
    )
    return 0


def cmd_generate_dynamic(args) -> int:
    config = _load_config(args)
    realization_rng = RngStream(config.seed, REALIZATION_STREAM).generator()
    real = realize_channel(config, realization_rng)
    evolution_rng = RngStream(config.seed, EVOLUTION_STREAM).generator()
    channel = evolve_channel(
        real,
        config.arrays(),
        config.pulse(),
        config.mobility(),
        evolution_rng,
        config.energy_threshold,
        config.oversampling,
    )
    write_dynamic_channel(args.output, channel)
    run_info = {
        "command": "generate-dynamic",
        "seed": config.seed,
        "stream_ids": {
            "realization": REALIZATION_STREAM,
            "evolution": EVOLUTION_STREAM,
        },
        "config": asdict(config),
        "n_snapshots": channel.n_snapshots,
        "snapshot_period_s": channel.snapshot_period,
        "n_taps": channel.n_taps,
        "tap_offset": channel.tap_offset,
        "sample_period_s": channel.sample_period,
    }
    write_realization_metadata(_metadata_path(args), real, run_info)
    print(
        f"wrote {args.output}: {channel.n_snapshots} snapshots x "
        f"{channel.n_taps} taps, offset {channel.tap_offset}, "
        f"{'LOS' if real.los.present else 'NLOS'}"
    )
    return 0


def cmd_eval_cdf(args) -> int:
    config = _load_config(args)
    result = run_cdf_experiment(config, n_jobs=args.jobs)
    write_cdf_csv(args.output, result.spectral_efficiency, result.cdf)
    if args.trial_log is not None:
        run_info = {
            "command": "eval-cdf",
            "seed": config.seed,
            "n_trials": config.n_trials,
            "n_streams": config.n_streams,
            "tx_power_w": config.tx_power_w,
            "noise_variance_w": config.noise_variance(),
            "config": asdict(config),
        }
        write_trial_log(args.trial_log, run_info, result.trials)
    se = result.spectral_efficiency
    print(
        f"wrote {args.output}: {len(se)} trials, median "
        f"{float(np.median(se)):.3f} bits/s/Hz, "
        f"10th pct {float(np.percentile(se, 10)):.3f}, "
        f"90th pct {float(np.percentile(se, 90)):.3f}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwchan",
        description="Clustered statistical mmWave MIMO channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, what in (
        ("generate-static", cmd_generate_static, "its tap tensor"),
        ("generate-dynamic", cmd_generate_dynamic, "a snapshot sequence"),
    ):
        p_gen = sub.add_parser(name, help=f"draw one drop and write {what}")
        _add_config_arguments(p_gen)
        p_gen.add_argument("--output", type=Path, required=True, help="binary tensor path")
        p_gen.add_argument(
            "--metadata", type=Path, default=None,
            help="sidecar JSON path (default: output with .json suffix)",
        )
        p_gen.set_defaults(handler=handler)

    p_cdf = sub.add_parser(
        "eval-cdf", help="Monte-Carlo spectral-efficiency CDF over many drops"
    )
    _add_config_arguments(p_cdf)
    p_cdf.add_argument("--output", type=Path, required=True, help="CDF CSV path")
    p_cdf.add_argument(
        "--trial-log", type=Path, default=None, help="optional per-trial JSON log"
    )
    p_cdf.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (results are identical for any value)",
    )
    p_cdf.set_defaults(handler=cmd_eval_cdf)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
