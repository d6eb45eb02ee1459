"""End-to-end pulse shape of the matched-filtered link."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PulseSpec", "end_to_end_pulse"]

# Relative width of the guard band around the raised-cosine removable
# singularity |2*beta*t/T| = 1 inside which the analytic limit is used.
_SINGULARITY_GUARD = 1e-8


@dataclass(frozen=True)
class PulseSpec:
    """Raised-cosine end-to-end pulse (TX and RX root-raised-cosine pair).

    ``truncation_half_length`` is the half-support used when the pulse is
    rendered onto a tap grid, in symbol periods.
    """

    symbol_period: float
    rolloff: float = 0.22
    truncation_half_length: int = 8

    def __post_init__(self):
        if not 0.0 < self.symbol_period < np.inf:
            raise ValueError(f"symbol_period must be finite and > 0, got {self.symbol_period!r}")
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError(f"rolloff must lie in (0, 1], got {self.rolloff!r}")
        if not 1 <= self.truncation_half_length < np.inf or self.truncation_half_length % 1:
            raise ValueError(
                f"truncation_half_length must be a finite integer >= 1, got "
                f"{self.truncation_half_length!r}"
            )


def end_to_end_pulse(spec: PulseSpec, t):
    """Raised-cosine amplitude at time ``t`` (seconds), normalized to h(0)=1.

    ``h(t) = sinc(t/T) cos(pi b t/T) / (1 - (2 b t/T)^2)``; the removable
    singularity at ``t = +-T/(2b)`` evaluates to the analytic limit
    ``(pi/4) sinc(1/(2b))``.  Zero crossings sit at every nonzero integer
    multiple of the symbol period.
    """
    x = np.asarray(t, dtype=float) / spec.symbol_period
    b = spec.rolloff
    denom = 1.0 - (2.0 * b * x) ** 2
    singular = np.abs(denom) < _SINGULARITY_GUARD
    safe = np.where(singular, 1.0, denom)
    values = np.sinc(x) * np.cos(np.pi * b * x) / safe
    limit = (np.pi / 4.0) * np.sinc(1.0 / (2.0 * b))
    values = np.where(singular, limit, values)
    if np.isscalar(t):
        return float(values)
    return values
