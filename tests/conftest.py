"""Shared hand-built fixtures for deterministic channel instances."""

import numpy as np

import link_oracle
from mmwchan import SPEED_OF_LIGHT, PulseSpec
from mmwchan.channel import ChannelRealization, ClusterRealization, LosComponent
from mmwchan.geometry import LinkGeometry, RayAngles
from mmwchan.link import StackedModel

# Dyadic symbol period: exactly representable, so integer multiples and
# their differences are exact in floating point.
DYADIC_SYMBOL_PERIOD = 2.0 ** -29


def dyadic_pulse(rolloff=0.22, truncation=8):
    return PulseSpec(
        symbol_period=DYADIC_SYMBOL_PERIOD,
        rolloff=rolloff,
        truncation_half_length=truncation,
    )


def fixed_realization(
    n_rays=1,
    same_angles=True,
    attenuation_db=-80.0,
    los=False,
    los_attenuation_db=-90.0,
    delay_step=3.0,
    seed=11,
):
    """Deterministic single-cluster realization with pinned geometry.

    ``same_angles=True`` gives every ray identical directions, which makes
    per-path energies add exactly; otherwise directions are spread randomly.
    """
    rng = np.random.default_rng(seed)
    geom = LinkGeometry(30.0, 7.0, 1.0)
    if same_angles:
        aod_az = np.full(n_rays, 0.35)
        aod_el = np.full(n_rays, -0.2)
        aoa_az = np.full(n_rays, 1.1)
        aoa_el = np.full(n_rays, 0.15)
    else:
        aod_az = rng.uniform(-1.5, 1.5, n_rays)
        aod_el = rng.uniform(-1.5, 1.5, n_rays)
        aoa_az = rng.uniform(0.0, 2.0 * np.pi, n_rays)
        aoa_el = rng.uniform(-1.5, 1.5, n_rays)
    lengths = 35.0 + delay_step * np.arange(n_rays)
    gains = (rng.standard_normal(n_rays) + 1j * rng.standard_normal(n_rays)) / np.sqrt(2)
    cluster = ClusterRealization(
        distance=10.0,
        mean_angles=RayAngles(0.35, -0.2, 1.1, 0.15),
        aod_azimuth=aod_az,
        aod_elevation=aod_el,
        aoa_azimuth=aoa_az,
        aoa_elevation=aoa_el,
        gains=gains,
        shadow_db=np.zeros(n_rays),
        attenuation_db=np.full(n_rays, float(attenuation_db)),
        path_lengths=lengths,
        delays=lengths / SPEED_OF_LIGHT,
    )
    slant = geom.slant_range
    direct = LosComponent(
        present=los,
        angles=RayAngles(0.0, -np.arctan2(6.0, 30.0), 0.0, np.arctan2(6.0, 30.0)),
        path_length=slant,
        delay=slant / SPEED_OF_LIGHT,
        attenuation_db=float(los_attenuation_db),
        shadow_db=0.0,
        phase=1.0,
    )
    return ChannelRealization(
        scenario="umi-street-canyon",
        carrier_frequency=73e9,
        geometry=geom,
        clusters=[cluster],
        los=direct,
    )


def _complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def random_stacked_model(rng, p_max=3, m_max=2, n_max=4, noise_variance=0.3):
    """Random projected-tap model with an orthonormal-column combiner."""
    p = int(rng.integers(1, p_max + 1))
    m = int(rng.integers(1, m_max + 1))
    n = int(rng.integers(m, n_max + 1))
    return stacked_model(rng, p, m, n, noise_variance)


def stacked_model(rng, p, m, n, noise_variance=0.3):
    """Projected-tap model of P random M x M taps with an orthonormal-column
    N x M combiner."""
    taps = _complex_normal(rng, (p, m, m))
    combiner, _ = np.linalg.qr(_complex_normal(rng, (n, m)))
    return StackedModel(
        projected_taps=taps, combiner=combiner, noise_variance=noise_variance
    )


def forward_stack_residual(model, rng):
    """Relative mismatch between a direct symbol-by-symbol convolution of
    the projected taps and the stacked signature-matrix prediction, for one
    random draw of symbols and noise."""
    p, m = model.n_taps, model.n_streams
    n_r = model.combiner.shape[0]
    G = model.projected_taps
    # Transmit vectors s(n0 + k) for k = -(P-1) .. P-1 and the P noise slots.
    s = _complex_normal(rng, (2 * p - 1, m))
    w = _complex_normal(rng, (p, n_r))

    def s_at(k):
        return s[k + p - 1]

    reference = np.concatenate(
        [
            sum(G[l] @ s_at(j - l) for l in range(p)) + model.combiner.conj().T @ w[j]
            for j in range(p)
        ]
    )
    offsets = [*range(-(p - 1), 0), *range(1, p)]
    s_i = (
        np.concatenate([s_at(k) for k in offsets])
        if offsets
        else np.zeros(0, dtype=np.complex128)
    )
    predicted = (
        model.signal_signatures @ s_at(0)
        + link_oracle.interference_signatures(model) @ s_i
        + link_oracle.noise_map(model) @ w.reshape(-1)
    )
    return float(
        np.linalg.norm(reference - predicted) / np.linalg.norm(reference)
    )
