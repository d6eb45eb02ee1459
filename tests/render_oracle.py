"""Per-ray reference renderer, kept as a test oracle.

This is the straightforward loop form of tap rendering: one ``np.kron``
steering vector and one N_R x N_T outer product per ray, added onto the
delay grid path by path, and one scalar AR(1) recursion per path for the
snapshot gains, on innovations drawn snapshot by snapshot, each step's draws
going to the paths in (stable) delay order; the tap window is searched width
by width.  The library renders the same quantities as stacked per-tap
products and finds the window with a two-pointer scan; the tests compare the
two on seeded drops.
"""

from __future__ import annotations

import numpy as np

from mmwchan.channel import SampledChannel
from mmwchan.geometry import RayAngles
from mmwchan.pulse import end_to_end_pulse
from mmwchan.timevariant import TimeVariantChannel, default_gain_correlation, doppler_shift


def kron_steering_vector(array, azimuth, elevation):
    kd = 2.0 * np.pi * array.spacing_wavelengths
    m = np.arange(array.horizontal)
    n = np.arange(array.vertical)
    a_h = np.exp(-1j * kd * m * (np.sin(azimuth) * np.sin(elevation)))
    a_v = np.exp(-1j * kd * n * np.cos(elevation))
    return np.kron(a_h, a_v) / np.sqrt(array.n_elements)


def path_table(real, arrays):
    """Per-path outer products, amplitudes, gains, delays and angles.

    The direct path, when present, is the last row.
    """
    n_rx = arrays.rx.n_elements
    n_tx = arrays.tx.n_elements
    gamma = np.sqrt(n_rx * n_tx / real.total_rays) if real.clusters else 0.0
    rows = []
    for c in real.clusters:
        for l in range(c.n_rays):
            rows.append((
                c.aoa_azimuth[l], c.aoa_elevation[l], c.aod_azimuth[l], c.aod_elevation[l],
                gamma * 10.0 ** (c.attenuation_db[l] / 20.0),
                c.gains[l],
                c.delays[l] - real.los.delay,
            ))
    los_index = None
    if real.los.present:
        los_index = len(rows)
        ang = real.los.angles
        rows.append((
            ang.aoa_azimuth, ang.aoa_elevation, ang.aod_azimuth, ang.aod_elevation,
            np.sqrt(n_rx * n_tx) * 10.0 ** (real.los.attenuation_db / 20.0),
            np.exp(1j * real.los.phase),
            0.0,
        ))
    outer = np.array([
        np.outer(
            kron_steering_vector(arrays.rx, aoa_az, aoa_el),
            kron_steering_vector(arrays.tx, aod_az, aod_el).conj(),
        )
        for aoa_az, aoa_el, aod_az, aod_el, *_ in rows
    ])
    columns = [np.array(col) for col in zip(*rows)]
    return {
        "outer": outer,
        "aoa_azimuth": columns[0],
        "aoa_elevation": columns[1],
        "aod_azimuth": columns[2],
        "aod_elevation": columns[3],
        "static_scale": columns[4].astype(float),
        "base_gain": columns[5].astype(np.complex128),
        "tau_rel": columns[6].astype(float),
        "los_index": los_index,
    }


def assemble_grid(table, weights, spec, oversampling):
    """Add each weighted, pulse-shaped path onto the full delay grid."""
    dt = spec.symbol_period / oversampling
    half_t = spec.truncation_half_length * spec.symbol_period
    tau = table["tau_rel"]
    starts = np.ceil((tau - half_t) / dt).astype(int)
    stops = np.floor((tau + half_t) / dt).astype(int)
    n_lo = int(starts.min())
    outer = table["outer"]
    grid = np.zeros((int(stops.max()) - n_lo + 1,) + outer.shape[1:], dtype=np.complex128)
    for p in range(len(tau)):
        n = np.arange(starts[p], stops[p] + 1)
        h = end_to_end_pulse(spec, n * dt - tau[p])
        grid[starts[p] - n_lo : stops[p] + 1 - n_lo] += h[:, None, None] * (
            weights[p] * outer[p]
        )
    return grid, n_lo


def select_window(grid, energy_threshold):
    """Leftmost shortest window holding >= (1 - threshold) of the energy,
    searched width by width over every start: O(P^2) window sums."""
    if not 0.0 < energy_threshold < 1.0:
        raise ValueError(f"energy threshold must lie in (0, 1), got {energy_threshold!r}")
    energy = np.einsum("prt,prt->p", grid, grid.conj()).real
    total = float(energy.sum())
    if total <= 0.0:
        return 0, grid.shape[0]
    target = (1.0 - energy_threshold) * total
    csum = np.concatenate(([0.0], np.cumsum(energy)))
    for width in range(1, grid.shape[0] + 1):
        sums = csum[width:] - csum[:-width]
        hits = sums >= target
        if hits.any():
            return int(np.argmax(hits)), width
    return 0, grid.shape[0]


def sample_channel(real, arrays, spec, energy_threshold=1e-4, oversampling=1):
    table = path_table(real, arrays)
    weights = table["static_scale"] * table["base_gain"]
    grid, n_lo = assemble_grid(table, weights, spec, oversampling)
    start, width = select_window(grid, energy_threshold)
    return SampledChannel(
        taps=grid[start : start + width],
        sample_period=spec.symbol_period / oversampling,
        tap_offset=n_lo + start,
    )


def evolve_channel(real, arrays, spec, mob, rng, energy_threshold=1e-4, oversampling=1):
    """Snapshot sequence from one scalar AR(1) recursion per path and one
    full-grid assembly per snapshot.  The innovations are drawn for all paths
    at once, snapshot by snapshot, real parts then imaginary parts, draw
    column q going to the q-th path by stable delay rank; none at
    coefficient 1."""
    rho = mob.gain_correlation
    if rho is None:
        rho = default_gain_correlation(mob, real.carrier_frequency)
    table = path_table(real, arrays)
    n_snap = mob.n_snapshots
    n_paths = len(table["tau_rel"])
    gains = np.empty((n_snap, n_paths), dtype=np.complex128)
    gains[0] = table["base_gain"]
    if rho < 1.0:
        z = rng.standard_normal((n_snap - 1, 2, n_paths))
        innovations = np.empty((n_snap - 1, n_paths), dtype=np.complex128)
        rank = sorted(range(n_paths), key=lambda p: (table["tau_rel"][p], p))
        innovations[:, rank] = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
        for p in range(n_paths):
            for k in range(1, n_snap):
                gains[k, p] = rho * gains[k - 1, p] + np.sqrt(1.0 - rho**2) * innovations[k - 1, p]
    else:
        gains[1:] = gains[0]
    los = table["los_index"]
    if los is not None and rho < 1.0 and n_snap > 1:
        z = gains[1:, los]
        gains[1:, los] = z / np.abs(z)
    if mob.v_rx != 0.0 or mob.v_tx != 0.0:
        angles = RayAngles(
            table["aod_azimuth"], table["aod_elevation"],
            table["aoa_azimuth"], table["aoa_elevation"],
        )
        nu = doppler_shift(angles, mob.v_rx, mob.v_tx, real.carrier_frequency)
        t = np.arange(n_snap) * mob.snapshot_period
        gains = gains * np.exp(-2j * np.pi * nu[None, :] * t[:, None])
    grid, n_lo = assemble_grid(table, table["static_scale"] * gains[0], spec, oversampling)
    start, width = select_window(grid, energy_threshold)
    snapshots = [grid[start : start + width]]
    for k in range(1, n_snap):
        grid, _ = assemble_grid(table, table["static_scale"] * gains[k], spec, oversampling)
        snapshots.append(grid[start : start + width])
    return TimeVariantChannel(
        snapshots=np.array(snapshots),
        sample_period=spec.symbol_period / oversampling,
        tap_offset=n_lo + start,
        snapshot_period=mob.snapshot_period,
    )
