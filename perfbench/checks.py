"""Correctness checks on mmwchan's artifacts.

Each check has a name; a failed check fails the benchmark run under that
name.  Functions here read artifacts only through mmwchan's public readers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mmwchan import RngStream, realize_channel, sample_channel
from mmwchan.cli import REALIZATION_STREAM
from mmwchan.config import parse_config
from mmwchan.io import read_cdf_csv, read_channel, read_realization_metadata

CSV_READBACK = "csv_readback"
JOBS_IDENTICAL = "jobs_identical"
TRACE_MATCHES_UNTRACED = "trace_matches_untraced"
SNAPSHOT0_STATIC = "snapshot0_static"
TENSOR_ROUNDTRIP = "tensor_roundtrip"
COUNTS_REPEAT = "counts_repeat"


class Checks:
    """Named check failures of one run; the first detail of each is kept."""

    def __init__(self):
        self.failures: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str) -> bool:
        if not ok:
            self.failures.setdefault(name, detail)
        return ok

    @property
    def ok(self) -> bool:
        return not self.failures


def cdf_bad_rows(path, n_drops: int, checks: Checks) -> int:
    """Read an ``eval-cdf`` CSV back; return how many drops it shows as
    failed (missing rows count as failed) and fail ``csv_readback`` unless
    there is one finite, non-negative row per drop."""
    try:
        se, cdf = read_cdf_csv(path)
    except (OSError, ValueError, IndexError) as err:
        checks.expect(CSV_READBACK, False, f"{path}: {err!r}")
        return n_drops
    bad = int(np.count_nonzero(~np.isfinite(se) | (se < 0) | ~np.isfinite(cdf)))
    bad += max(n_drops - len(se), 0)
    checks.expect(
        CSV_READBACK,
        len(se) == n_drops and bad == 0,
        f"{path}: {len(se)} rows for {n_drops} drops, {bad} non-finite or negative",
    )
    return bad


def trial_log_se(path) -> list[float]:
    """Per-drop spectral efficiencies of a trial log, in drop order."""
    trials = json.loads(Path(path).read_text())["trials"]
    return [t["spectral_efficiency_bits_s_hz"] for t in sorted(trials, key=lambda t: t["trial"])]


def same_bytes(name: str, a, b, checks: Checks) -> bool:
    a, b = Path(a), Path(b)
    ok = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    return checks.expect(name, ok, f"{a} and {b} differ")


def same_floats(name: str, traced, untraced, checks: Checks) -> bool:
    """Bitwise equality of two float sequences."""
    ok = len(traced) == len(untraced) and all(
        float(a).hex() == float(b).hex() for a, b in zip(traced, untraced)
    )
    return checks.expect(name, ok, f"{len(traced)} traced vs {len(untraced)} untraced values differ")


def dynamic_file_ok(path, metadata_path, overrides: dict, checks: Checks) -> bool:
    """Check a ``generate-dynamic`` tensor written by the untraced pass.

    ``read_channel`` must return the header the sidecar records and exactly
    the payload in the file (``tensor_roundtrip``), and snapshot 0 must equal
    ``sample_channel`` of the same realization bitwise (``snapshot0_static``).
    Returns whether the drop succeeded: readable and all taps finite.
    """
    try:
        blob = Path(path).read_bytes()
        back = read_channel(path)
        run, _ = read_realization_metadata(metadata_path)
    except (OSError, ValueError, KeyError) as err:
        checks.expect(TENSOR_ROUNDTRIP, False, f"{path}: {err!r}")
        return False
    payload = np.ascontiguousarray(back.snapshots, dtype="<c16").tobytes()
    checks.expect(
        TENSOR_ROUNDTRIP,
        back.n_snapshots == run["n_snapshots"]
        and back.n_taps == run["n_taps"]
        and back.tap_offset == run["tap_offset"]
        and back.sample_period == run["sample_period_s"]
        and back.snapshot_period == run["snapshot_period_s"]
        and blob.endswith(payload),
        f"{path}: tensor read back differs from the file or its sidecar",
    )
    config = parse_config(None, overrides)
    real = realize_channel(config, RngStream(config.seed, REALIZATION_STREAM).generator())
    static = sample_channel(
        real, config.arrays(), config.pulse(), config.energy_threshold, config.oversampling
    )
    checks.expect(
        SNAPSHOT0_STATIC,
        static.tap_offset == back.tap_offset and np.array_equal(static.taps, back.snapshots[0]),
        f"{path}: snapshot 0 differs from sample_channel of its realization",
    )
    return bool(np.isfinite(back.snapshots).all())
