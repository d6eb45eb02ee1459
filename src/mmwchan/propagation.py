"""Large-scale propagation: path loss, shadow fading, LOS probability.

Path-loss parameters are the published 73 GHz close-in reference fits for
the four supported deployment scenarios, keyed by scenario name and link
condition (``"los"`` / ``"nlos"``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._bounds import POSITIVE, check
from .geometry import SPEED_OF_LIGHT

__all__ = [
    "PathLossParams",
    "SCENARIOS",
    "scenario_parameters",
    "path_loss_db",
    "sample_shadow_fading",
    "los_probability",
    "draw_los",
]


@dataclass(frozen=True)
class PathLossParams:
    """Close-in path-loss fit: exponent, shadow std (dB), frequency slope.

    ``frequency_slope`` (b) tilts the effective exponent linearly with the
    carrier relative to ``slope_reference_hz`` (f0); the fitted exponent is
    recovered exactly at the reference frequency.
    """

    exponent: float
    shadow_std_db: float
    frequency_slope: float = 0.0
    slope_reference_hz: float | None = None


_TABLE: dict[str, dict[str, PathLossParams]] = {
    "umi-street-canyon": {
        "los": PathLossParams(1.98, 3.1),
        "nlos": PathLossParams(3.19, 8.2),
    },
    "umi-open-square": {
        "los": PathLossParams(1.85, 4.2),
        "nlos": PathLossParams(2.89, 7.1),
    },
    "inh-office": {
        "los": PathLossParams(1.73, 3.02),
        "nlos": PathLossParams(3.19, 8.29, 0.06, 24.2e9),
    },
    "inh-shopping-mall": {
        "los": PathLossParams(1.73, 2.01),
        "nlos": PathLossParams(2.59, 7.40, 0.01, 39.5e9),
    },
}

SCENARIOS = tuple(_TABLE)


def scenario_parameters(scenario: str, condition: str) -> PathLossParams:
    """Look up the path-loss fit for a scenario and link condition."""
    try:
        rows = _TABLE[scenario]
    except KeyError:
        raise ValueError(
            f"unknown scenario {scenario!r}; expected one of {', '.join(SCENARIOS)}"
        ) from None
    try:
        return rows[condition]
    except KeyError:
        raise ValueError(
            f"unknown link condition {condition!r}; expected 'los' or 'nlos'"
        ) from None


def path_loss_db(distance, wavelength: float, params: PathLossParams, shadow_db=0.0):
    """Path gain in dB (nonpositive in the usual far-field regime).

    ``-20 log10(4 pi / wavelength) - 10 n [1 - b + b c / (wavelength f0)]
    log10(distance) - shadow_db`` with distance in meters.  ``shadow_db`` is
    the shadow-fading excess loss; positive values attenuate.
    """
    r = np.asarray(distance, dtype=float)
    check("distance", r.min(), POSITIVE)
    check("distance", r.max(), POSITIVE)
    slope = 1.0 - params.frequency_slope
    if params.frequency_slope != 0.0:
        if not params.slope_reference_hz:
            raise ValueError("frequency-dependent fit needs a reference frequency")
        slope = slope + params.frequency_slope * SPEED_OF_LIGHT / (
            wavelength * params.slope_reference_hz
        )
    fspl_ref = -20.0 * np.log10(4.0 * np.pi / wavelength)
    loss = fspl_ref - 10.0 * params.exponent * slope * np.log10(r) - shadow_db
    if np.isscalar(distance) and np.isscalar(shadow_db):
        return float(loss)
    return loss


def sample_shadow_fading(params: PathLossParams, rng: np.random.Generator, size=None):
    """Zero-mean Gaussian shadow-fading excess loss in dB."""
    return rng.normal(0.0, params.shadow_std_db, size=size)


def los_probability(scenario: str, distance: float) -> float:
    """Probability that the direct path is unobstructed at ground range d."""
    scenario_parameters(scenario, "los")  # validate the name
    d = check("distance", float(distance), POSITIVE)
    if scenario.startswith("umi"):
        decay = np.exp(-d / 39.0)
        return float(min(20.0 / d, 1.0) * (1.0 - decay) + decay)
    if d <= 1.2:
        return 1.0
    if d <= 6.5:
        return float(np.exp(-(d - 1.2) / 4.7))
    return float(0.32 * np.exp(-(d - 6.5) / 32.6))


def draw_los(scenario: str, distance: float, rng: np.random.Generator) -> bool:
    """Bernoulli LOS/NLOS state draw for the link."""
    return bool(rng.random() < los_probability(scenario, distance))
