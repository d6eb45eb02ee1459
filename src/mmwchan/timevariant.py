"""Time-variant channel snapshots: gain aging and Doppler rotation.

Per-path gains follow a stationary AR(1) process seeded at the static
realization's draw, each path additionally rotating at its geometric
Doppler frequency.  The direct path keeps unit gain magnitude; only its
phase wanders.

One iterator, :meth:`SnapshotStream.chunks`, renders the snapshots in time
order, chunk by chunk: into the array :func:`evolve_channel` returns, or
into one reused buffer of :data:`CHUNK_BYTES` that ``generate-dynamic``
writes out before rendering the next chunk.  The tap window is chosen from
snapshot 0 before anything is drawn, as for static sampling; each chunk
continues the gains' AR(1) draws from the last chunk's state, step by step,
each step along the drop's paths in delay order, the tap plan's.  So peak
memory does not depend on the snapshot count beyond that buffer and the
drop's tap plan, and as each tap's product sees the same path range, pulse
row and weights whichever chunk runs it, neither do the bits depend on the
chunk size.  Snapshot 0 reproduces the static channel bit for bit, and so
does every snapshot in the static limit (zero velocity, coefficient 1); see
:func:`mmwchan.channel._render_taps`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ._bounds import COUNT, FINITE, POSITIVE, UNIT_CLOSED_OR_AUTO, admissible, check_fields
from .arrays import ArrayPair
from .channel import DEFAULT_ENERGY_THRESHOLD, ChannelRealization, _plan_taps, _render_taps
from .geometry import SPEED_OF_LIGHT, RayAngles
from .pulse import PulseSpec
from .sampling import ar1_complex_sequence

__all__ = [
    "MobilitySpec",
    "TimeVariantChannel",
    "SnapshotStream",
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
    def shape(self) -> tuple[int, ...]:
        return self.snapshots.shape

    @property
    def n_snapshots(self) -> int:
        return self.shape[0]

    @property
    def n_taps(self) -> int:
        return self.shape[1]

    def chunks(self) -> Iterator[np.ndarray]:
        yield self.snapshots


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


#: Bytes of the buffer that a :class:`SnapshotStream` renders its snapshots
#: into, chunk by chunk: a chunk holds at least one snapshot, and its taps,
#: or eight times its weights (room for the AR(1) draws and Doppler phasors
#: beside them), fit in it.  Peak memory does not grow with the snapshot count.
CHUNK_BYTES = 8 << 20


class SnapshotStream:
    """A drop's snapshot sequence whose tap window is chosen from snapshot 0,
    the static weights, on construction, so its tensor header, :attr:`shape`
    (n_snapshots, P, N_R, N_T), :attr:`sample_period`, :attr:`tap_offset` and
    :attr:`snapshot_period`, is known before anything is drawn; :meth:`chunks`
    renders it, once: it continues the generator it was given, so a second
    pass would render other snapshots and raises RuntimeError instead."""

    def __init__(
        self, real: ChannelRealization, arrays: ArrayPair, spec: PulseSpec, mob: MobilitySpec,
        rng: np.random.Generator, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
        oversampling: int = 1,
    ):
        self._rho = mob.gain_correlation
        if self._rho is None:
            self._rho = default_gain_correlation(mob, real.carrier_frequency)
        self._plan = _plan_taps(real, arrays, spec, energy_threshold, oversampling)
        self._nu = doppler_shift(self._plan.angles, mob.v_rx, mob.v_tx, real.carrier_frequency)
        self._rng, self.snapshot_period = rng, mob.snapshot_period
        self._rendered = False
        self.shape = (mob.n_snapshots, *self._plan.shape)
        self.sample_period, self.tap_offset = self._plan.sample_period, self._plan.tap_offset

    def chunks(self, out: np.ndarray | None = None) -> Iterator[np.ndarray]:
        """The snapshots in time order, chunk by chunk, each rendered into
        ``out[start:stop]`` when ``out`` of :attr:`shape` is given, else into
        one reused buffer and valid only until the next chunk is drawn.

        A chunk continues the gains' AR(1) sequence from the last chunk's
        state, so the bits do not depend on the chunk length.  The direct
        path's gains are projected onto the unit circle, where snapshot 0,
        exp(j*phase), lies; not when frozen: z / |z| is not bitwise z, and the
        frozen limit must equal the static taps bitwise.  Then each path
        rotates at its Doppler frequency and takes its static scale."""
        if self._rendered:
            raise RuntimeError("a SnapshotStream renders once; build another to render again")
        self._rendered = True
        plan, rho = self._plan, self._rho
        n_snap, *snapshot = self.shape
        per_snapshot = 16 * max(int(np.prod(snapshot)), 8 * len(plan.weights))
        per_chunk = min(max(1, CHUNK_BYTES // per_snapshot), n_snap)
        buffer = np.empty((per_chunk, *snapshot), dtype=np.complex128) if out is None else None
        state = plan.base_gain
        for start in range(0, n_snap, per_chunk):
            stop = min(start + per_chunk, n_snap)
            # row 0 is snapshot 0 itself, or the last chunk's state
            last = int(start > 0)
            gains = ar1_complex_sequence(rho, stop - start + last, 1.0, self._rng, initial=state)
            state = gains[-1].copy()
            if plan.los is not None and rho < 1.0:
                gains[1:, plan.los] /= np.abs(gains[1:, plan.los])
            weights = gains[last:]
            t = np.arange(start, stop) * self.snapshot_period
            weights *= np.exp(-2j * np.pi * self._nu[None, :] * t[:, None])
            weights *= plan.static_scale
            chunk = out[start:stop] if buffer is None else buffer[: stop - start]
            _render_taps(plan, weights, out=chunk)
            yield chunk


def evolve_channel(
    real: ChannelRealization, arrays: ArrayPair, spec: PulseSpec, mob: MobilitySpec,
    rng: np.random.Generator, energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
    oversampling: int = 1,
) -> TimeVariantChannel:
    """Render a realization as a sequence of tap-tensor snapshots: the chunks
    of :class:`SnapshotStream`, rendered into the returned array; either one
    gives :func:`mmwchan.io.write_dynamic_channel` the same file.  Per-path
    AR(1) innovations are drawn snapshot by snapshot, each step along the paths
    in delay order; nothing is drawn at coefficient 1.  The tap window,
    chosen from snapshot 0, is shared by all snapshots; snapshot 0 equals the
    static sampling of the same realization."""
    stream = SnapshotStream(real, arrays, spec, mob, rng, energy_threshold, oversampling)
    snapshots = np.empty(stream.shape, dtype=np.complex128)
    for _ in stream.chunks(out=snapshots):
        pass
    return TimeVariantChannel(
        snapshots, stream.sample_period, stream.tap_offset, stream.snapshot_period
    )
