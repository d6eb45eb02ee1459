"""Clustered statistical channel realizations and tap-domain sampling.

A realization draws the full cluster/ray geometry, per-ray complex gains,
attenuations, and the direct-path state for one link drop.  Sampling renders
the realization onto a uniform delay grid through the end-to-end pulse and
trims the grid to the shortest window that retains the requested share of
the total tap energy.

Rendering is shared with :mod:`mmwchan.timevariant`.  A realization is
flattened once into a path table holding the steering matrices ``A_r``
(paths x N_R) and ``A_t`` (paths x N_T); the truncated pulse of every path
on the delay grid forms a matrix ``Pi`` (taps x paths).  Under per-path
weights ``w`` tap ``n`` is ``A_r^T diag(Pi[n] * w) conj(A_t)``, one small
matrix product per tap, so a tap's value never depends on which other
taps are rendered with it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .arrays import ArrayPair, steering_vector
from .geometry import (
    SPEED_OF_LIGHT,
    LinkGeometry,
    LosGeometry,
    RayAngles,
    clip_cluster_distance,
    los_geometry,
    ray_path_length,
)
from .propagation import draw_los, path_loss_db, sample_shadow_fading, scenario_parameters
from .pulse import PulseSpec, end_to_end_pulse
from .sampling import (
    sample_cluster_count,
    sample_complex_gain,
    sample_laplacian,
    sample_ray_count,
)

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

__all__ = [
    "ClusterRealization",
    "LosComponent",
    "ChannelRealization",
    "SampledChannel",
    "realize_channel",
    "sample_channel",
    "total_tap_energy",
]

#: Lower bound of the cluster first-leg distance draw, meters.
MIN_CLUSTER_DISTANCE = 1.0

#: Default share of tap energy that adaptive trimming may discard.
DEFAULT_ENERGY_THRESHOLD = 1e-4


@dataclass(eq=False)
class ClusterRealization:
    """One scattering cluster: mean geometry plus per-ray draws."""

    distance: float
    mean_angles: RayAngles
    aod_azimuth: np.ndarray
    aod_elevation: np.ndarray
    aoa_azimuth: np.ndarray
    aoa_elevation: np.ndarray
    gains: np.ndarray
    shadow_db: np.ndarray
    attenuation_db: np.ndarray
    path_lengths: np.ndarray
    delays: np.ndarray

    @property
    def n_rays(self) -> int:
        return len(self.gains)


@dataclass(eq=False)
class LosComponent:
    """Direct-path state; geometry fields are populated even when blocked."""

    present: bool
    angles: RayAngles
    path_length: float
    delay: float
    attenuation_db: float
    shadow_db: float
    phase: float


@dataclass(eq=False)
class ChannelRealization:
    """Complete small-scale draw for one link drop."""

    scenario: str
    carrier_frequency: float
    geometry: LinkGeometry
    clusters: list[ClusterRealization]
    los: LosComponent
    gain_normalization: float

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_rays(self) -> int:
        return sum(c.n_rays for c in self.clusters)


@dataclass(eq=False)
class SampledChannel:
    """Tap tensor on a uniform delay grid.

    ``taps[l]`` is the N_R x N_T matrix at delay
    ``(tap_offset + l) * sample_period`` measured from the direct-path
    delay; ``tap_offset`` may be negative because the pulse is acausal.
    """

    taps: np.ndarray
    sample_period: float
    tap_offset: int

    @property
    def n_taps(self) -> int:
        return self.taps.shape[0]

    @property
    def n_rx(self) -> int:
        return self.taps.shape[1]

    @property
    def n_tx(self) -> int:
        return self.taps.shape[2]


def _gain_normalization(n_rx: int, n_tx: int, total_rays: int) -> float:
    return float(np.sqrt(n_rx * n_tx / total_rays))


def realize_channel(config: "ScenarioConfig", rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Draw order (fixed for reproducibility): LOS state; cluster count; ray
    counts; per cluster its four mean angles, first-leg distance, per-ray
    angle offsets, gains, and shadow fading; finally the LOS phase and LOS
    shadow fading.  LOS-side draws happen even for blocked links so the
    direct-path fields are always populated.
    """
    geom = config.geometry()
    wavelength = config.wavelength
    sigma_angle = np.deg2rad(config.angle_spread_deg)
    nlos_params = scenario_parameters(config.scenario, "nlos")
    los_params = scenario_parameters(config.scenario, "los")

    is_los = draw_los(config.scenario, geom.distance, rng)
    scattered_params = nlos_params
    if config.scattered_pathloss == "follow-los" and is_los:
        scattered_params = los_params

    n_clusters = sample_cluster_count(config.cluster_rate, rng)
    ray_counts = sample_ray_count(rng, size=n_clusters)
    raw_max = config.max_distance_factor * geom.distance

    clusters = []
    for n_rays in ray_counts:
        n_rays = int(n_rays)
        mean = RayAngles(
            aod_azimuth=rng.uniform(-np.pi / 2, np.pi / 2),
            aod_elevation=rng.uniform(-np.pi / 2, np.pi / 2),
            aoa_azimuth=rng.uniform(0.0, 2.0 * np.pi),
            aoa_elevation=rng.uniform(-np.pi / 2, np.pi / 2),
        )
        upper = float(clip_cluster_distance(raw_max, mean.aod_elevation, geom))
        upper = max(upper, MIN_CLUSTER_DISTANCE)
        distance = rng.uniform(MIN_CLUSTER_DISTANCE, upper)

        aod_az = sample_laplacian(mean.aod_azimuth, sigma_angle, rng, size=n_rays)
        aod_el = sample_laplacian(mean.aod_elevation, sigma_angle, rng, size=n_rays)
        aoa_az = sample_laplacian(mean.aoa_azimuth, sigma_angle, rng, size=n_rays)
        aoa_el = sample_laplacian(mean.aoa_elevation, sigma_angle, rng, size=n_rays)
        gains = sample_complex_gain(rng, size=n_rays)
        if config.shadow_per_cluster:
            shadow = np.full(n_rays, sample_shadow_fading(scattered_params, rng))
        else:
            shadow = sample_shadow_fading(scattered_params, rng, size=n_rays)

        lengths = ray_path_length(distance, aod_az, aod_el, geom)
        attenuation = path_loss_db(lengths, wavelength, scattered_params, shadow)
        clusters.append(
            ClusterRealization(
                distance=distance,
                mean_angles=mean,
                aod_azimuth=aod_az,
                aod_elevation=aod_el,
                aoa_azimuth=aoa_az + config.rx_orientation_rad,
                aoa_elevation=aoa_el,
                gains=gains,
                shadow_db=shadow,
                attenuation_db=np.asarray(attenuation, dtype=float),
                path_lengths=np.asarray(lengths, dtype=float),
                delays=np.asarray(lengths, dtype=float) / SPEED_OF_LIGHT,
            )
        )

    direct: LosGeometry = los_geometry(geom, config.rx_orientation_rad)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    los_shadow = float(sample_shadow_fading(los_params, rng))
    # Eq.-style literal reading: the direct-path attenuation uses the ground
    # distance d while its delay uses the slant range.
    los_attenuation = path_loss_db(geom.distance, wavelength, los_params, los_shadow)
    los = LosComponent(
        present=is_los,
        angles=direct.angles,
        path_length=direct.path_length,
        delay=direct.delay,
        attenuation_db=float(los_attenuation),
        shadow_db=los_shadow,
        phase=phase,
    )

    arrays = config.arrays()
    gamma = _gain_normalization(
        arrays.rx.n_elements, arrays.tx.n_elements, int(np.sum(ray_counts))
    )
    return ChannelRealization(
        scenario=config.scenario,
        carrier_frequency=config.carrier_frequency_hz,
        geometry=geom,
        clusters=clusters,
        los=los,
        gain_normalization=gamma,
    )


@dataclass(eq=False)
class _PathTable:
    """Per-path quantities shared by static sampling and snapshot evolution.

    Row ``p`` of every array describes path ``p``; the direct path, when
    present, is the last row.  ``static_scale`` holds the deterministic
    amplitude (normalization times attenuation); ``base_gain`` the stochastic
    unit-variance gain (``alpha`` per scattered ray, ``exp(j*phase)`` for the
    direct path).
    """

    a_r: np.ndarray          # (n_paths, N_R) receive steering vectors
    a_t: np.ndarray          # (n_paths, N_T) transmit steering vectors
    static_scale: np.ndarray  # (n_paths,) real
    base_gain: np.ndarray    # (n_paths,) complex
    tau_rel: np.ndarray      # (n_paths,) delay relative to the direct path
    angles: RayAngles        # (n_paths,) arrays
    los_index: int | None


def _path_table(real: ChannelRealization, arrays: ArrayPair) -> _PathTable:
    """Flatten a realization into per-path rendering quantities.

    The power normalization is recomputed from the supplied arrays, so a
    fixed realization can be re-sampled under different array geometries.
    """
    los = real.los
    if not real.clusters and not los.present:
        raise ValueError("realization has no propagation paths")
    n_rx = arrays.rx.n_elements
    n_tx = arrays.tx.n_elements
    gamma = _gain_normalization(n_rx, n_tx, real.total_rays) if real.clusters else 0.0

    def column(name: str, los_value, dtype=float) -> np.ndarray:
        """Every cluster's per-ray ``name`` field, then the direct path's value."""
        parts = [getattr(c, name) for c in real.clusters]
        if los.present:
            parts.append([los_value])
        return np.concatenate(parts).astype(dtype)

    angles = RayAngles(
        **{f.name: column(f.name, getattr(los.angles, f.name)) for f in fields(RayAngles)}
    )
    amplitude = np.full(len(angles.aod_azimuth), gamma)
    if los.present:
        amplitude[-1] = np.sqrt(n_rx * n_tx)
    attenuation_db = column("attenuation_db", los.attenuation_db)
    return _PathTable(
        a_r=steering_vector(arrays.rx, angles.aoa_azimuth, angles.aoa_elevation),
        a_t=steering_vector(arrays.tx, angles.aod_azimuth, angles.aod_elevation),
        static_scale=amplitude * 10.0 ** (attenuation_db / 20.0),
        base_gain=column("gains", np.exp(1j * los.phase), np.complex128),
        tau_rel=column("delays", los.delay) - los.delay,
        angles=angles,
        los_index=len(amplitude) - 1 if los.present else None,
    )


def _pulse_matrix(
    table: _PathTable, spec: PulseSpec, oversampling: int
) -> tuple[np.ndarray, int]:
    """Truncated pulse of every path on the full delay grid.

    Entry ``[i, p]`` is path ``p``'s pulse at grid index ``n_lo + i``, zero
    outside its truncated support.  The grid covers every path's support;
    returns the matrix and ``n_lo``, the grid index of its first row
    relative to the direct-path delay.
    """
    if oversampling < 1 or int(oversampling) != oversampling:
        raise ValueError(f"oversampling must be a positive integer, got {oversampling!r}")
    dt = spec.symbol_period / oversampling
    half_t = spec.truncation_half_length * spec.symbol_period
    starts = np.ceil((table.tau_rel - half_t) / dt).astype(int)
    stops = np.floor((table.tau_rel + half_t) / dt).astype(int)
    n = np.arange(starts.min(), stops.max() + 1)[:, None]
    inside = (n >= starts) & (n <= stops)
    pulse = np.where(inside, end_to_end_pulse(spec, n * dt - table.tau_rel), 0.0)
    return pulse, int(starts.min())


def _render_taps(
    table: _PathTable, pulse: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Tap tensor for the grid rows of ``pulse`` under per-path ``weights``.

    Row ``i`` is ``A_r^T diag(pulse[i] * weights) conj(A_t)``, one small
    (N_R x paths) @ (paths x N_T) product per tap.  Each tap's product
    depends only on its own pulse row and the weights, so any subset of rows
    renders bit for bit as it would within the full grid.  Folding all taps
    into one (taps x paths) @ (paths x N_R*N_T) product is faster alone but
    crosses the BLAS threading threshold and slows multi-drop runs.
    """
    coeff = pulse * weights
    return np.matmul(table.a_r.T * coeff[:, None, :], table.a_t.conj(), out=out)


def _select_window(grid: np.ndarray, energy_threshold: float) -> tuple[int, int]:
    """Leftmost shortest contiguous tap window keeping >= (1 - threshold)
    of the total energy.  Returns (start index, length)."""
    if not 0.0 < energy_threshold < 1.0:
        raise ValueError(f"energy threshold must lie in (0, 1), got {energy_threshold!r}")
    energy = np.einsum("prt,prt->p", grid, grid.conj()).real
    total = float(energy.sum())
    if total <= 0.0:
        return 0, grid.shape[0]
    target = (1.0 - energy_threshold) * total
    csum = np.concatenate(([0.0], np.cumsum(energy))).tolist()
    # Two pointers: window sums csum[stop] - csum[start] never fall as the end
    # grows or the start drops, so the first shortest window is the leftmost.
    best = (0, grid.shape[0])
    start = 0
    for stop in range(1, len(csum)):
        while start + 1 < stop and csum[stop] - csum[start + 1] >= target:
            start += 1
        if stop - start < best[1] and csum[stop] - csum[start] >= target:
            best = (start, stop - start)
    return best


def sample_channel(
    real: ChannelRealization,
    arrays: ArrayPair,
    spec: PulseSpec,
    energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
    oversampling: int = 1,
) -> SampledChannel:
    """Render a realization onto a uniform tap grid.

    The delay origin is the direct-path delay (grid index 0), so a present
    direct path lands exactly on a Nyquist-aligned tap.  The grid covers
    every path's truncated pulse support and is then trimmed to the leftmost
    shortest window holding at least ``1 - energy_threshold`` of the energy.
    """
    table = _path_table(real, arrays)
    pulse, n_lo = _pulse_matrix(table, spec, oversampling)
    grid = _render_taps(table, pulse, table.static_scale * table.base_gain)
    start, width = _select_window(grid, energy_threshold)
    return SampledChannel(
        taps=grid[start : start + width],
        sample_period=spec.symbol_period / oversampling,
        tap_offset=n_lo + start,
    )


def total_tap_energy(channel: SampledChannel) -> float:
    """Sum of squared Frobenius norms over all retained taps."""
    return float(np.vdot(channel.taps, channel.taps).real)
