"""Time-variant channel snapshots: gain aging and Doppler rotation.

Per-path gains follow a stationary AR(1) process seeded at the static
realization's draw, each path additionally rotating at its geometric
Doppler frequency.  The direct path keeps unit gain magnitude; only its
phase wanders.

The gains are drawn along the path table, in realization order.  The
per-snapshot weights then go into the drop's one tap plan of
:mod:`mmwchan.channel`, which sorts them by delay with the paths and keeps
the tap window chosen from snapshot 0 as for static sampling, so every
snapshot renders only the window's rows by the banded per-tap products.
The snapshots are rendered in chunks on the calling thread: all at once
into the returned array by :func:`evolve_channel`, or a few MiB at a time
into one reused buffer by ``generate-dynamic``, which writes each chunk
before rendering the next.  Every chunk runs one product per tap, stacked
over the chunk's snapshots, and each tap's product sees the same path
range, pulse row and weights whichever chunk runs it, so the bits do not
depend on the chunk size.  Snapshot 0 reproduces the static channel bit for
bit, and so does every snapshot in the static limit (zero velocity,
coefficient 1); see :func:`mmwchan.channel._render_taps`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._bounds import COUNT, FINITE, POSITIVE, UNIT_CLOSED_OR_AUTO, admissible, check_fields
from .arrays import ArrayPair
from .channel import (
    DEFAULT_ENERGY_THRESHOLD,
    ChannelRealization,
    _path_table,
    _plan_taps,
    _render_taps,
    _TapPlan,
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


#: Bytes of the one buffer that ``generate-dynamic`` renders and writes its
#: snapshots through, chunk by chunk (a chunk holds at least one snapshot);
#: the per-path weights of :func:`_plan_evolution` grow with the snapshot
#: count: one (snapshots x paths) complex array, about three at the peak while
#: they are drawn (4096 snapshots of 173 paths: 33 MiB under tracemalloc).
CHUNK_BYTES = 8 << 20


def _plan_evolution(
    real: ChannelRealization,
    arrays: ArrayPair,
    spec: PulseSpec,
    mob: MobilitySpec,
    rng: np.random.Generator,
    energy_threshold: float,
    oversampling: int,
) -> _TapPlan:
    """Draw each snapshot's path weights and plan their taps; see :func:`evolve_channel`."""
    rho = mob.gain_correlation
    if rho is None:
        rho = default_gain_correlation(mob, real.carrier_frequency)
    table = _path_table(real, arrays)
    n_snap = mob.n_snapshots
    weights = ar1_complex_sequence(rho, n_snap, 1.0, rng, initial=table.base_gain)
    if table.los_index is not None and rho < 1.0:
        # Direct path: phase-only aging; snapshots 1.. are projected back onto
        # the unit circle, where snapshot 0, exp(j*phase), lies.  Not when
        # frozen: z / |z| is not bitwise z even on the unit circle, and the
        # frozen limit must equal the static taps bitwise.
        z = weights[1:, table.los_index]
        weights[1:, table.los_index] = z / np.abs(z)
    nu = doppler_shift(table.angles, mob.v_rx, mob.v_tx, real.carrier_frequency)
    t = np.arange(n_snap) * mob.snapshot_period
    weights *= np.exp(-2j * np.pi * nu[None, :] * t[:, None])
    weights *= table.static_scale
    return _plan_taps(table, arrays, spec, weights, energy_threshold, oversampling)


def _snapshot_chunks(plan: _TapPlan) -> Iterator[np.ndarray]:
    """The whole sequence in time order, rendered chunk by chunk into one
    reused buffer of :data:`CHUNK_BYTES`, at least one snapshot and at most
    the sequence: each chunk is a view of that buffer, valid until the next
    one is drawn."""
    n_snap, *snapshot = plan.shape
    snapshot_bytes = np.dtype(np.complex128).itemsize * int(np.prod(snapshot))
    per_chunk = min(max(1, CHUNK_BYTES // snapshot_bytes), n_snap)
    buffer = np.empty((per_chunk, *snapshot), dtype=np.complex128)
    for start in range(0, n_snap, per_chunk):
        chunk = buffer[: min(per_chunk, n_snap - start)]
        _render_taps(plan, plan.weights[start : start + len(chunk)], out=chunk)
        yield chunk


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
    nothing is drawn at coefficient 1.  The tap window is selected once, from
    snapshot 0's row energies before any snapshot is rendered, and shared by
    all snapshots; snapshot 0 equals the static sampling of the same
    realization.
    """
    plan = _plan_evolution(real, arrays, spec, mob, rng, energy_threshold, oversampling)
    return TimeVariantChannel(
        snapshots=_render_taps(plan, plan.weights),
        sample_period=plan.sample_period,
        tap_offset=plan.tap_offset,
        snapshot_period=mob.snapshot_period,
    )
