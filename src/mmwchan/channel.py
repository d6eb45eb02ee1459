"""Clustered statistical channel realizations and tap-domain sampling.

A realization draws the full cluster/ray geometry, per-ray complex gains,
attenuations, and the direct-path state for one link drop.  Sampling lays
the realization on a uniform delay grid through the end-to-end pulse and
renders only the grid's shortest window that retains the requested share of
the total tap energy.

Rendering is shared with :mod:`mmwchan.timevariant`.  One function,
:func:`_lay_paths`, flattens a realization and sorts its paths by delay, the
only reordering a drop sees, into the drop's one path record, its tap plan:
in delay order, the per-path gains that gain aging ages, the steering
matrices ``A_r`` (N_R x paths) and ``A_t`` (paths x N_T), the per-path
weights, and the truncated pulse of every path on the delay grid as a matrix
``Pi`` (taps x paths).  A path's first and last covered taps grow with its
delay, so the paths covering tap ``n`` form one contiguous range, and under
per-path weights ``w`` tap ``n`` is ``A_r^T diag(Pi[n] * w) conj(A_t)`` over
that range only: one small matrix product per tap.  A tap's value never
depends on which other taps, or which other weight sets, are rendered with
it, so the window is chosen first (:func:`_plan_taps`), from each tap's
energy as a Hermitian form in the path Gram, and kept as a slice of the
plan's rows, which a :class:`SampledChannel` holds: it renders its taps on
first access, and the link reads the plan instead, so ``eval-cdf`` renders
only the strongest tap.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING

import numpy as np

from ._bounds import COUNT, UNIT_OPEN, check
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
    """Complete small-scale draw for one link drop; the arrays enter only
    when it is sampled."""

    scenario: str
    carrier_frequency: float
    geometry: LinkGeometry
    clusters: list[ClusterRealization]
    los: LosComponent

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def total_rays(self) -> int:
        return sum(c.n_rays for c in self.clusters)


class SampledChannel:
    """Tap tensor on a uniform delay grid.

    ``taps[l]`` is the N_R x N_T matrix at delay
    ``(tap_offset + l) * sample_period`` measured from the direct-path
    delay; ``tap_offset`` may be negative because the pulse is acausal.
    A channel from :func:`sample_channel` holds its window's tap plan and
    renders ``taps``, read-only, on first access, to the bits of a render
    of the whole window; its :attr:`shape` is known without rendering.
    """

    def __init__(self, taps: np.ndarray, sample_period: float, tap_offset: int):
        self._taps, self._plan = taps, None
        self.sample_period, self.tap_offset = sample_period, tap_offset

    @property
    def taps(self) -> np.ndarray:
        if self._taps is None:
            self._taps = _render_taps(self._plan, self._plan.weights)
            self._taps.flags.writeable = False  # the link reads the plan, not these
        return self._taps

    @property
    def shape(self) -> tuple[int, ...]:
        return self.taps.shape if self._plan is None else self._plan.shape

    @property
    def n_taps(self) -> int:
        return self.shape[0]

    @property
    def n_rx(self) -> int:
        return self.shape[1]

    @property
    def n_tx(self) -> int:
        return self.shape[2]

    def _strongest(self) -> tuple[int, np.ndarray]:
        """Index and matrix of the tap with the largest energy, ties to the
        smallest index: from the plan's row energies, rendering that row
        alone, else from the taps' sums of squared magnitudes."""
        if self._plan is not None:
            mu = int(np.argmax(self._plan.energy))
            return mu, _render_taps(self._plan.rows(mu, mu + 1), self._plan.weights)[0]
        rows = np.ascontiguousarray(self.taps, dtype=np.complex128).reshape(self.n_taps, -1)
        rows = rows.view(np.float64)
        mu = int(np.argmax(np.einsum("ij,ij->i", rows, rows)))
        return mu, self.taps[mu]

    def _project(self, combiner: np.ndarray, precoder: np.ndarray) -> np.ndarray:
        """Every tap projected, ``D^H H(l) Q`` as (P, M, M): from the plan,
        ``sum_q pulse[l, q] w_q (D^H a_r)_q (a_t Q)_q`` over its paths,
        without rendering a tap."""
        dh = combiner.conj().T
        if self._plan is None:
            return dh @ self.taps @ precoder
        plan = self._plan
        coeff = (plan.pulse * plan.weights)[:, None, :]
        return ((dh @ plan.a_r)[None] * coeff) @ (plan.a_t @ precoder)


def realize_channel(config: "ScenarioConfig", rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization.

    Draw order (fixed for reproducibility): LOS state; cluster count; ray
    counts; per cluster its four mean angles, first-leg distance, per-ray
    angle offsets, gains, and shadow fading; finally the LOS phase and LOS
    shadow fading.  LOS-side draws happen even for blocked links so the
    direct-path fields are always populated.  The draw does not depend on
    the arrays: configs that differ only in them draw the same realization.
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
    return ChannelRealization(
        scenario=config.scenario,
        carrier_frequency=config.carrier_frequency_hz,
        geometry=geom,
        clusters=clusters,
        los=los,
    )


@dataclass(eq=False)
class _TapPlan:
    """A drop's paths in delay order and their truncated pulses on
    consecutive rows of the delay grid.

    Entry ``q`` of every per-path array (column ``q`` of ``pulse`` and
    ``a_r``, row ``q`` of ``a_t``) describes the ``q``-th path by delay, in a
    stable sort of the realization's paths (cluster by cluster, ray by ray,
    the direct path last), so tied paths keep that order; ``los`` is the
    direct path's column, ``None`` when it is blocked.  ``static_scale`` is
    a path's deterministic amplitude (normalization times attenuation),
    ``base_gain`` its unit-variance gain (``alpha`` per scattered ray,
    ``exp(j*phase)`` for the direct path) and ``weights`` their product,
    snapshot 0 of any evolution.  Row ``i`` is the tap at grid index
    ``tap_offset + i`` from the direct-path delay.  Every path's first and
    last covered grid rows grow with its delay, so the paths covering row
    ``i`` are the contiguous columns ``lo[i]:hi[i]`` (empty for a row no path
    covers).
    """

    pulse: np.ndarray         # (rows, paths) truncated pulse, zero outside support
    lo: np.ndarray            # (rows,) first column covering each row
    hi: np.ndarray            # (rows,) one past the last column covering it
    a_r: np.ndarray           # (N_R, paths) receive steering vectors as columns
    a_t: np.ndarray           # (paths, N_T) conjugated transmit steering vectors
    static_scale: np.ndarray  # (paths,) real
    base_gain: np.ndarray     # (paths,) complex
    weights: np.ndarray       # (paths,) static_scale * base_gain
    angles: RayAngles         # (paths,) arrays
    los: int | None
    tap_offset: int
    sample_period: float
    energy: np.ndarray | None = None  # (rows,) each tap's energy, set by _lay_paths

    def rows(self, start: int, stop: int) -> "_TapPlan":
        """The plan of rows ``start:stop`` only, its pulse copied off the grid."""
        return replace(self, pulse=self.pulse[start:stop].copy(), lo=self.lo[start:stop],
                       hi=self.hi[start:stop], energy=self.energy[start:stop],
                       tap_offset=self.tap_offset + start)

    @property
    def shape(self) -> tuple[int, ...]:
        """(P, N_R, N_T) of one snapshot."""
        return (len(self.pulse), self.a_r.shape[0], self.a_t.shape[1])


def _lay_paths(
    real: ChannelRealization, arrays: ArrayPair, spec: PulseSpec, oversampling: int
) -> _TapPlan:
    """Flatten a realization, stable-sort its paths by delay (the one
    reordering of a drop) and lay their truncated pulses on the grid covering
    every path's support.  The power normalization
    ``sqrt(N_R N_T / total rays)`` is computed here from the supplied arrays,
    so a fixed realization can be re-sampled under different array
    geometries."""
    check("oversampling", oversampling, COUNT, integer=True)
    los = real.los
    if not real.clusters and not los.present:
        raise ValueError("realization has no propagation paths")
    n_rx = arrays.rx.n_elements
    n_tx = arrays.tx.n_elements
    gamma = float(np.sqrt(n_rx * n_tx / real.total_rays)) if real.clusters else 0.0

    def column(name: str, los_value, dtype=float) -> np.ndarray:
        """Every cluster's per-ray ``name`` field, then the direct path's value."""
        parts = [getattr(c, name) for c in real.clusters]
        if los.present:
            parts.append([los_value])
        return np.concatenate(parts).astype(dtype)

    tau = column("delays", los.delay) - los.delay
    order = np.argsort(tau, kind="stable")
    tau = tau[order]
    angles = RayAngles(**{
        f.name: column(f.name, getattr(los.angles, f.name))[order] for f in fields(RayAngles)
    })
    amplitude = np.full(len(tau), gamma)
    los_column = int(np.argmax(order == len(tau) - 1)) if los.present else None
    if los_column is not None:
        amplitude[los_column] = np.sqrt(n_rx * n_tx)
    static_scale = amplitude * 10.0 ** (column("attenuation_db", los.attenuation_db)[order] / 20.0)
    base_gain = column("gains", np.exp(1j * los.phase), np.complex128)[order]

    dt = spec.symbol_period / oversampling
    half_t = spec.truncation_half_length * spec.symbol_period
    starts = np.ceil((tau - half_t) / dt).astype(int)
    stops = np.floor((tau + half_t) / dt).astype(int)
    n = np.arange(starts.min(), stops.max() + 1)
    row, col = np.nonzero((n[:, None] >= starts) & (n[:, None] <= stops))
    pulse = np.zeros((len(n), len(tau)))
    pulse[row, col] = end_to_end_pulse(spec, n[row] * dt - tau[col])
    a_r = steering_vector(arrays.rx, angles.aoa_azimuth, angles.aoa_elevation)
    a_t = steering_vector(arrays.tx, angles.aod_azimuth, angles.aod_elevation)
    plan = _TapPlan(
        pulse=pulse,
        lo=np.searchsorted(stops, n, side="left"),
        hi=np.searchsorted(starts, n, side="right"),
        a_r=np.ascontiguousarray(a_r.T),
        a_t=a_t.conj(),
        static_scale=static_scale,
        base_gain=base_gain,
        weights=static_scale * base_gain,
        angles=angles,
        los=los_column,
        tap_offset=int(n[0]),
        sample_period=dt,
    )
    plan.energy = _row_energies(plan, plan.weights)
    return plan


def _render_taps(plan: _TapPlan, weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Every row's tap under per-path ``weights`` of shape (..., paths) in
    the plan's delay order; (..., rows, N_R, N_T).

    Tap ``i`` is ``A_r^T diag(pulse[i] * w) conj(A_t)`` over the paths
    covering it only: one (N_R x K) @ (K x N_T) product over the columns
    ``lo[i]:hi[i]``, stacked over the leading weight axes, and exact zeros
    where K = 0.

    The products stay per tap so that a tap depends only on its own range,
    pulse row and weights: any subset of rows or weight sets renders bit for
    bit as within the full grid.  That lets callers render only the tap
    window, keeps snapshot 0 and the frozen limit of
    :func:`mmwchan.timevariant.evolve_channel` equal to the static taps, also
    when those are recomputed in another process, and lets that function
    render chunks of snapshots one after another with the bits of one call.
    (A render folded into one (S x K) @ (K x N_R N_T) product would not:
    numpy hands its one-snapshot case to ``gemv`` and the stacked case to
    ``gemm``, which round differently.)  OpenBLAS threads products above a
    size its build fixes, so a row covered by many paths can render with
    bits that depend on the BLAS thread count (README, on determinism).
    """
    weights = np.ascontiguousarray(weights)  # numpy rounds strided operands differently
    if out is None:
        shape = weights.shape[:-1] + (len(plan.pulse), plan.a_r.shape[0], plan.a_t.shape[1])
        out = np.empty(shape, dtype=np.complex128)
    for i, (lo, hi) in enumerate(zip(plan.lo.tolist(), plan.hi.tolist())):
        if lo == hi:
            out[..., i, :, :] = 0.0
            continue
        coeff = plan.pulse[i, lo:hi] * weights[..., lo:hi]
        np.matmul(plan.a_r[:, lo:hi] * coeff[..., None, :], plan.a_t[lo:hi], out=out[..., i, :, :])
    return out


def _row_energies(plan: _TapPlan, weights: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every row's tap under per-path ``weights``
    (delay order), unrendered: ``c^H M c`` with ``c = pulse[i] * w`` and the
    path Gram ``M = (a_r^H a_r) * (conj(a_t) a_t^T)``, round-off negatives
    clipped to 0."""
    coeff = plan.pulse * weights
    gram = (plan.a_r.conj().T @ plan.a_r) * (plan.a_t.conj() @ plan.a_t.T)
    energy = np.einsum("ik,ik->i", coeff.conj() @ gram, coeff)
    return np.maximum(energy.real, 0.0)


def _select_window(energy: np.ndarray, energy_threshold: float) -> tuple[int, int]:
    """Leftmost shortest contiguous window of rows with per-row ``energy``
    keeping >= (1 - threshold) of the total.  Returns (start index, length)."""
    check("energy_threshold", energy_threshold, UNIT_OPEN)
    total = float(energy.sum())
    if total <= 0.0:
        return 0, len(energy)
    target = (1.0 - energy_threshold) * total
    csum = np.concatenate(([0.0], np.cumsum(energy))).tolist()
    # Two pointers: window sums csum[stop] - csum[start] never fall as the end
    # grows or the start drops, so the first shortest window is the leftmost.
    best = (0, len(energy))
    start = 0
    for stop in range(1, len(csum)):
        while start + 1 < stop and csum[stop] - csum[start + 1] >= target:
            start += 1
        if stop - start < best[1] and csum[stop] - csum[start] >= target:
            best = (start, stop - start)
    return best


def _plan_taps(
    real: ChannelRealization, arrays: ArrayPair, spec: PulseSpec, energy_threshold: float,
    oversampling: int,
) -> _TapPlan:
    """Lay ``real``'s paths on their delay grid and keep the leftmost
    shortest window of rows holding >= (1 - energy_threshold) of the energy
    under the static weights, the one window static and time-variant renders
    share."""
    plan = _lay_paths(real, arrays, spec, oversampling)
    start, width = _select_window(plan.energy, energy_threshold)
    return plan.rows(start, start + width)


def sample_channel(
    real: ChannelRealization,
    arrays: ArrayPair,
    spec: PulseSpec,
    energy_threshold: float = DEFAULT_ENERGY_THRESHOLD,
    oversampling: int = 1,
) -> SampledChannel:
    """Lay a realization on a uniform tap grid.

    The delay origin is the direct-path delay (grid index 0), so a present
    direct path lands exactly on a Nyquist-aligned tap.  The grid covers
    every path's truncated pulse support.  Its leftmost shortest window
    holding at least ``1 - energy_threshold`` of the energy is chosen from
    the rows' energies; the channel keeps that window's plan and renders
    ``taps`` on first access, and ``eval-cdf`` only the strongest tap.
    """
    plan = _plan_taps(real, arrays, spec, energy_threshold, oversampling)
    channel = SampledChannel(None, plan.sample_period, plan.tap_offset)
    channel._plan = plan
    return channel


def total_tap_energy(channel: SampledChannel) -> float:
    """Sum of squared Frobenius norms over all retained taps."""
    return float(np.vdot(channel.taps, channel.taps).real)
