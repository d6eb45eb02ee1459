"""Time-variant channel snapshots: gain aging and Doppler rotation.

Per-path gains follow a stationary AR(1) process seeded at the static
realization's draw, each path additionally rotating at its geometric
Doppler frequency.  The direct path keeps unit gain magnitude; only its
phase wanders.

Snapshots are rendered by the per-tap products of :mod:`mmwchan.channel`
with per-snapshot weights.  Snapshot 0 goes through the same full-grid
render as static sampling and fixes the tap window; later snapshots render
only the window's rows.  Each tap's product sees the same inputs either
way, so snapshot 0 reproduces the static channel bit for bit, and so does
every snapshot in the static limit (zero velocity, coefficient 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayPair
from .channel import (
    ChannelRealization,
    _path_table,
    _pulse_matrix,
    _render_taps,
    _select_window,
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

    v_rx: float = 0.0
    v_tx: float = 0.0
    snapshot_period: float = 1e-6
    n_snapshots: int = 1
    gain_correlation: float | None = None

    def __post_init__(self):
        for name in ("v_rx", "v_tx"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0.0 < self.snapshot_period < np.inf:
            raise ValueError(
                f"snapshot_period must be finite and > 0, got {self.snapshot_period!r}"
            )
        if not 1 <= self.n_snapshots < np.inf or self.n_snapshots % 1:
            raise ValueError(f"n_snapshots must be a finite integer >= 1, got {self.n_snapshots}")
        if self.gain_correlation is not None and not 0.0 <= self.gain_correlation <= 1.0:
            raise ValueError(
                f"gain correlation must lie in [0, 1], got {self.gain_correlation!r}"
            )


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


def evolve_channel(
    real: ChannelRealization,
    arrays: ArrayPair,
    spec: PulseSpec,
    mob: MobilitySpec,
    rng: np.random.Generator,
    energy_threshold: float = 1e-4,
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

    pulse, n_lo = _pulse_matrix(table, spec, oversampling)
    grid = _render_taps(table, pulse, weights[0])
    start, width = _select_window(grid, energy_threshold)
    snapshots = np.empty((n_snap, width) + grid.shape[1:], dtype=np.complex128)
    snapshots[0] = grid[start : start + width]
    window = pulse[start : start + width]
    for k in range(1, n_snap):
        _render_taps(table, window, weights[k], out=snapshots[k])
    return TimeVariantChannel(
        snapshots=snapshots,
        sample_period=spec.symbol_period / oversampling,
        tap_offset=n_lo + start,
        snapshot_period=mob.snapshot_period,
    )
