"""Time-variant channel snapshots: gain aging and Doppler rotation.

Per-path gains follow a stationary AR(1) process seeded at the static
realization's draw, each path additionally rotating at its geometric
Doppler frequency.  The direct path keeps unit gain magnitude; only its
phase wanders.

Snapshots are rendered by the banded per-tap products of
:mod:`mmwchan.channel` with per-snapshot weights.  Snapshot 0 goes through
the same full-grid render as static sampling and fixes the tap window;
snapshots 1 ... N-1 then render only the window's rows, split into
contiguous blocks, one per usable core, rendered concurrently.  Every block
still runs one product per tap and snapshot, and each tap's product sees
the same path range, pulse row and weights whichever block or thread runs
it, so the bits depend on neither the block count nor the core count.
Snapshot 0 reproduces the static channel bit for bit, and so does every
snapshot in the static limit (zero velocity, coefficient 1); see
:func:`mmwchan.channel._render_taps`.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._bounds import COUNT, FINITE, POSITIVE, UNIT_CLOSED_OR_AUTO, admissible, check_fields
from .arrays import ArrayPair
from .channel import (
    DEFAULT_ENERGY_THRESHOLD,
    ChannelRealization,
    _path_table,
    _render_taps,
    _select_window,
    _tap_grid,
    _TapGrid,
)
from .geometry import SPEED_OF_LIGHT, RayAngles
from .pulse import PulseSpec
from .sampling import ar1_complex_sequence

__all__ = [
    "MobilitySpec",
    "TimeVariantChannel",
    "doppler_shift",
    "default_gain_correlation",
    "evolve_channel",
]


@dataclass(frozen=True)
class MobilitySpec:
    """Terminal speeds, snapshot spacing, and gain-aging coefficient.

    ``gain_correlation`` is the per-snapshot AR(1) coefficient; ``None``
    selects :func:`default_gain_correlation`.
    """

    v_rx: float = admissible(FINITE, 0.0)
    v_tx: float = admissible(FINITE, 0.0)
    snapshot_period: float = admissible(POSITIVE, 1e-6)
    n_snapshots: int = admissible(COUNT, 1)
    gain_correlation: float | None = admissible(UNIT_CLOSED_OR_AUTO, None)

    __post_init__ = check_fields


@dataclass(eq=False)
class TimeVariantChannel:
    """Sequence of tap tensors sharing one grid and tap window."""

    snapshots: np.ndarray  # (n_snapshots, P, N_R, N_T)
    sample_period: float
    tap_offset: int
    snapshot_period: float

    @property
    def n_snapshots(self) -> int:
        return self.snapshots.shape[0]

    @property
    def n_taps(self) -> int:
        return self.snapshots.shape[1]


def doppler_shift(angles: RayAngles, v_rx, v_tx, carrier_frequency: float):
    """Doppler frequency (Hz) of a path under radial terminal motion.

    ``-(f/c) (v_rx cos(aoa_el) cos(aoa_az) + v_tx cos(aod_el) cos(aod_az))``;
    motion along each terminal's azimuth reference direction.  Angle fields
    may be arrays for vectorized evaluation.
    """
    radial = v_rx * np.cos(angles.aoa_elevation) * np.cos(angles.aoa_azimuth)
    radial = radial + v_tx * np.cos(angles.aod_elevation) * np.cos(angles.aod_azimuth)
    return -(carrier_frequency / SPEED_OF_LIGHT) * radial


def default_gain_correlation(mob: MobilitySpec, carrier_frequency: float) -> float:
    """AR(1) coefficient tied to the worst-case Doppler of the drop:
    ``exp(-2 pi nu_max T)`` with ``nu_max = (f/c)(|v_rx| + |v_tx|)``."""
    nu_max = (carrier_frequency / SPEED_OF_LIGHT) * (abs(mob.v_rx) + abs(mob.v_tx))
    return float(np.clip(np.exp(-2.0 * np.pi * nu_max * mob.snapshot_period), 0.0, 1.0))


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _render_moving(
    grid: _TapGrid, weights: np.ndarray, rows: range, snapshots: np.ndarray
) -> None:
    """Render snapshots 1 ... N-1 at ``rows`` into ``snapshots`` in place.

    The snapshots are split into contiguous blocks, one per usable core;
    block 0 renders in the calling thread and the others in helper threads
    (numpy releases the GIL in the products).  Every helper's result is
    taken, so an exception in any block reaches the caller.  The helpers
    live for one call only: a module-level pool's threads would not survive
    the fork of a process pool, and would sit idle in library callers.
    """
    moving = snapshots.shape[0] - 1
    if moving == 0:
        return
    n_blocks = min(_usable_cores(), moving)
    edges = [1 + moving * b // n_blocks for b in range(n_blocks + 1)]
    blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]

    def render(block: slice) -> None:
        _render_taps(grid, weights[block], rows, out=snapshots[block])

    if n_blocks == 1:
        render(blocks[0])
        return
    with ThreadPoolExecutor(max_workers=n_blocks - 1) as pool:
        helpers = [pool.submit(render, block) for block in blocks[1:]]
        render(blocks[0])
        for helper in helpers:
            helper.result()


def evolve_channel(
    real: ChannelRealization,
    arrays: ArrayPair,
    spec: PulseSpec,
    mob: MobilitySpec,
    rng: np.random.Generator,
    energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
    oversampling: int = 1,
) -> TimeVariantChannel:
    """Render a realization as a sequence of tap-tensor snapshots.

    Per-path AR(1) innovation draws run in path order (direct path last);
    nothing is drawn at coefficient 1.  The tap window is selected once from
    snapshot 0 — which equals the static sampling of the same realization —
    and shared by all snapshots.
    """
    rho = mob.gain_correlation
    if rho is None:
        rho = default_gain_correlation(mob, real.carrier_frequency)
    table = _path_table(real, arrays)
    n_snap = mob.n_snapshots

    gains = ar1_complex_sequence(rho, n_snap, 1.0, rng, initial=table.base_gain)
    if table.los_index is not None and rho < 1.0 and n_snap > 1:
        # Direct path: phase-only aging.  Snapshot 0 is exp(j*phase), already
        # on the unit circle; later samples are projected back onto it.  At
        # coefficient 1 the process is frozen and projection is a no-op.
        z = gains[1:, table.los_index]
        gains[1:, table.los_index] = z / np.abs(z)

    if mob.v_rx != 0.0 or mob.v_tx != 0.0:
        nu = doppler_shift(table.angles, mob.v_rx, mob.v_tx, real.carrier_frequency)
        t = np.arange(n_snap) * mob.snapshot_period
        gains = gains * np.exp(-2j * np.pi * nu[None, :] * t[:, None])
    weights = table.static_scale * gains

    grid = _tap_grid(table, spec, oversampling)
    taps = _render_taps(grid, weights[0])
    start, width = _select_window(taps, energy_threshold)
    snapshots = np.empty((n_snap, width) + taps.shape[1:], dtype=np.complex128)
    snapshots[0] = taps[start : start + width]
    _render_moving(grid, weights, range(start, start + width), snapshots)
    return TimeVariantChannel(
        snapshots=snapshots,
        sample_period=spec.symbol_period / oversampling,
        tap_offset=grid.n_lo + start,
        snapshot_period=mob.snapshot_period,
    )
