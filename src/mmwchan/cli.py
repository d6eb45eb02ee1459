"""Command-line front end: generate tap tensors and evaluate rate CDFs."""

from __future__ import annotations

import argparse
import functools
import itertools
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
from .timevariant import SnapshotStream

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


def _check_outputs(args, *outputs: tuple[str, Path | None]) -> None:
    """Exit, naming flag and path, when two outputs (``(label, path)`` in
    writing order; ``None`` is not written), or an output and ``--config``,
    are one path or, both existing, one file (a hard link); or when an output
    is a directory or lies in none.  The commands call it before any drop."""
    named = [(label, p) for label, p in outputs if p is not None]
    config_file = [("--config", args.config)] if args.config is not None else []
    for (first, a), (second, b) in itertools.combinations(config_file + named, 2):
        if a.resolve() == b.resolve() or (a.exists() and b.exists() and a.samefile(b)):
            raise SystemExit(f"{first} {a} and {second} {b} are the same file")
    for label, path in named:
        if path.is_dir():
            raise SystemExit(f"{label} {path} is a directory")
        if not path.parent.is_dir():
            raise SystemExit(f"{label} {path}: {path.parent} is not a directory")


def _run_info(command: str, config, **facts) -> dict:
    """The ``run`` object of a sidecar or trial log: the command, its seed
    and configuration, and the command's own ``facts``."""
    return {"command": command, "seed": config.seed, "config": asdict(config), **facts}


def _draw_drop(args):
    """Check the tensor and sidecar paths, load the configuration and
    realize the drop on :data:`REALIZATION_STREAM`; return the config, the
    realization and the sidecar path."""
    label, sidecar = "--metadata", args.metadata
    if sidecar is None:
        label, sidecar = "its default sidecar", args.output.with_suffix(".json")
    _check_outputs(args, ("--output", args.output), (label, sidecar))
    config = _load_config(args)
    real = realize_channel(config, RngStream(config.seed, REALIZATION_STREAM).generator())
    return config, real, sidecar


def _record_drop(args, config, real, sidecar, tensor, **facts) -> None:
    """Write the sidecar of a drop whose ``tensor`` (``shape``, ``tap_offset``,
    ``sample_period``) is written, and print the command's summary line."""
    run_info = _run_info(
        args.command, config, n_taps=tensor.shape[-3], tap_offset=tensor.tap_offset,
        sample_period_s=tensor.sample_period, **facts,
    )
    write_realization_metadata(sidecar, real, run_info)
    print(
        f"wrote {args.output}: tensor {'x'.join(map(str, tensor.shape))}, "
        f"offset {tensor.tap_offset}, {'LOS' if real.los.present else 'NLOS'}, "
        f"{real.n_clusters} clusters / {real.total_rays} rays"
    )


def cmd_generate_static(args) -> int:
    config, real, sidecar = _draw_drop(args)
    channel = sample_channel(
        real, config.arrays(), config.pulse(), config.energy_threshold, config.oversampling
    )
    write_static_channel(args.output, channel)
    _record_drop(args, config, real, sidecar, channel, stream_id=REALIZATION_STREAM)
    return 0


def cmd_generate_dynamic(args) -> int:
    """Render the drop's :class:`~mmwchan.timevariant.SnapshotStream` into
    :func:`mmwchan.io.write_dynamic_channel`, the one snapshot-sequence
    writer, chunk by chunk (:data:`mmwchan.timevariant.CHUNK_BYTES`)."""
    config, real, sidecar = _draw_drop(args)
    stream = SnapshotStream(
        real, config.arrays(), config.pulse(), config.mobility(),
        RngStream(config.seed, EVOLUTION_STREAM).generator(), config.energy_threshold,
        config.oversampling,
    )
    write_dynamic_channel(args.output, stream)
    _record_drop(
        args, config, real, sidecar, stream,
        stream_ids={"realization": REALIZATION_STREAM, "evolution": EVOLUTION_STREAM},
        n_snapshots=stream.shape[0], snapshot_period_s=stream.snapshot_period,
    )
    return 0


def cmd_eval_cdf(args) -> int:
    if args.jobs < 1:
        raise SystemExit(f"--jobs must be an integer >= 1, got {args.jobs}")
    _check_outputs(args, ("--output", args.output), ("--trial-log", args.trial_log))
    config = _load_config(args)
    result = run_cdf_experiment(config, n_jobs=args.jobs)
    write_cdf_csv(args.output, result.spectral_efficiency, result.cdf)
    if args.trial_log is not None:
        run_info = _run_info(
            "eval-cdf",
            config,
            n_trials=config.n_trials,
            n_streams=config.n_streams,
            tx_power_w=config.tx_power_w,
            noise_variance_w=config.noise_variance(),
        )
        write_trial_log(args.trial_log, run_info, result.trials)
    se = result.spectral_efficiency
    print(
        f"wrote {args.output}: {len(se)} trials, median "
        f"{float(np.median(se)):.3f} bits/s/Hz, "
        f"10th pct {float(np.percentile(se, 10)):.3f}, "
        f"90th pct {float(np.percentile(se, 90)):.3f}"
    )
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it, so successive :func:`main` calls can share it."""
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
        help="worker processes, at most one per drop (results are identical for any value)",
    )
    p_cdf.set_defaults(handler=cmd_eval_cdf)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
