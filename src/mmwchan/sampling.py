"""Seedable random-variate sampling on reproducible substreams.

Every stochastic quantity in the simulator is drawn from an
``np.random.Generator`` owned by a single :class:`RngStream`.  Streams are
labelled by ``(seed, stream_id)`` through ``np.random.SeedSequence`` spawn
keys, so the variate sequence for a given label is identical across runs,
machines, and degrees of trial parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._bounds import (
    COUNT, FINITE, NON_NEGATIVE, POSITIVE, UNIT_CLOSED, admissible, check, check_fields,
)

__all__ = [
    "RngStream",
    "sample_cluster_count",
    "sample_ray_count",
    "sample_laplacian",
    "sample_complex_gain",
    "ar1_complex_sequence",
]

#: Inclusive bounds of the per-cluster ray count.
RAY_COUNT_MIN = 1
RAY_COUNT_MAX = 30


@dataclass(frozen=True)
class RngStream:
    """Label of a reproducible random substream.

    ``stream_id`` selects a statistically independent substream of the master
    ``seed``; Monte-Carlo trial ``k`` runs on ``RngStream(seed, k)``.
    """

    seed: int = admissible(NON_NEGATIVE)
    stream_id: int = admissible(NON_NEGATIVE, 0)

    __post_init__ = check_fields

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this substream."""
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def substream(self, stream_id: int) -> "RngStream":
        return RngStream(self.seed, stream_id)


@lru_cache(maxsize=8)
def _poisson_cdf_table(lam: float) -> np.ndarray:
    """Read-only Poisson CDF, built once per rate for every drop of a run."""
    # Support long enough that the neglected tail mass is ~1e-16.
    k_max = int(np.ceil(lam + 40.0 * np.sqrt(lam) + 20.0))
    k = np.arange(k_max + 1)
    log_pmf = -lam + k * np.log(lam) - np.cumsum(np.concatenate(([0.0], np.log(k[1:]))))
    cdf = np.cumsum(np.exp(log_pmf))
    cdf.flags.writeable = False
    return cdf


def sample_cluster_count(lam: float, rng: np.random.Generator, size=None):
    """Cluster count ``max{Poisson(lam), 1}`` drawn by CDF inversion.

    Inversion consumes exactly one uniform per draw, which keeps the stream
    layout independent of the rate parameter.
    """
    check("lam", lam, POSITIVE)
    cdf = _poisson_cdf_table(lam)
    u = rng.random(size)
    counts = np.searchsorted(cdf, u, side="left")
    counts = np.minimum(counts, len(cdf) - 1)
    counts = np.maximum(counts, 1)
    if size is None:
        return int(counts)
    return counts.astype(np.int64)


def sample_ray_count(rng: np.random.Generator, size=None):
    """Uniform integer ray count on {1, ..., 30}."""
    counts = rng.integers(RAY_COUNT_MIN, RAY_COUNT_MAX + 1, size=size)
    if size is None:
        return int(counts)
    return counts


def sample_laplacian(mean, std, rng: np.random.Generator, size=None):
    """Laplacian draw with the given mean and standard deviation.

    The scale parameter is ``std / sqrt(2)`` so the returned variate has
    standard deviation ``std`` exactly.
    """
    check("mean", mean, FINITE)
    check("std", std, NON_NEGATIVE)
    return rng.laplace(loc=mean, scale=std / np.sqrt(2.0), size=size)


def sample_complex_gain(rng: np.random.Generator, size=None):
    """Circularly symmetric unit-variance complex Gaussian, CN(0, 1)."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) / np.sqrt(2.0)


def ar1_complex_sequence(
    rho: float,
    n: int,
    variance: float = 1.0,
    rng: np.random.Generator | None = None,
    initial: complex | np.ndarray | None = None,
) -> np.ndarray:
    """Stationary complex AR(1) sequence with lag-k correlation ``rho**k``.

    ``x[k] = rho * x[k-1] + sqrt(1 - rho**2) * w[k]`` with CN(0, variance)
    innovations.  ``initial`` pins ``x[0]`` (used when evolving an existing
    gain); otherwise ``x[0]`` is drawn from the stationary distribution.  An
    array ``initial`` of shape ``(P,)`` evolves P independent sequences,
    returned as ``(n, P)``.  Each step draws one :func:`sample_complex_gain`
    of ``initial``'s shape, so continuing a sequence from its last value in
    a second call draws what one longer call would.  At ``rho == 1`` the
    sequence is frozen at ``x[0]`` and no innovations are consumed.
    """
    check("rho", rho, UNIT_CLOSED)
    check("n", n, COUNT, integer=True)
    check("variance", variance, NON_NEGATIVE)
    if initial is None:
        initial = np.sqrt(variance) * sample_complex_gain(rng)
    x = np.empty((n,) + np.shape(initial), dtype=np.complex128)
    x[0] = initial
    innovation_scale = np.sqrt(variance) * np.sqrt(1.0 - rho * rho)
    if innovation_scale == 0.0:
        x[1:] = x[0]
        return x
    # Step by step, real parts then imaginary parts: sample_complex_gain's order.
    z = rng.standard_normal((n - 1, 2) + x.shape[1:])
    x[1:] = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    for k in range(1, n):
        x[k] = rho * x[k - 1] + innovation_scale * x[k]
    return x
