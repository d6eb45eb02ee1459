"""Link-level evaluation: eigen-beamforming, LMMSE reception, rate CDFs.

The transmitter sends M streams through the top right singular vectors of
the strongest tap; the receiver projects onto the matching left singular
vectors, stacks a window of P received symbol vectors, and applies the
LMMSE estimator for the stream vector.  The achievable rate treats
inter-symbol interference from neighboring transmit vectors as noise.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np
import scipy.linalg
from scipy.constants import Boltzmann

from .channel import SampledChannel, realize_channel, sample_channel
from .sampling import RngStream

if TYPE_CHECKING:  # pragma: no cover
    from .config import ScenarioConfig

__all__ = [
    "BeamformerPair",
    "StackedModel",
    "LinkConfig",
    "LinkResult",
    "CdfResult",
    "design_beamformers",
    "build_stacked_model",
    "lmmse_operator",
    "achievable_rate",
    "thermal_noise_variance",
    "run_cdf_experiment",
]


def thermal_noise_variance(
    bandwidth_hz: float,
    noise_figure_db: float = 5.0,
    temperature_k: float = 290.0,
) -> float:
    """Receiver noise power k_B * T * W * F in watts."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz!r}")
    return Boltzmann * temperature_k * bandwidth_hz * 10.0 ** (noise_figure_db / 10.0)


@dataclass(eq=False)
class BeamformerPair:
    """Per-drop eigen-beamformers anchored at the strongest tap."""

    precoder: np.ndarray        # (N_T, M)
    combiner: np.ndarray        # (N_R, M)
    tap_index: int
    singular_values: np.ndarray  # (M,)

    @property
    def n_streams(self) -> int:
        return self.precoder.shape[1]


@dataclass(eq=False)
class StackedModel:
    """Symbol-spaced model of the beamformed link over a window of P taps.

    Stores the projected taps ``G(l) = D^H H(l) Q`` and the combiner ``D``;
    the stacked signature matrices are materialized on demand.  Stacking a
    window of P received vectors ``r(n) ... r(n+P-1)`` gives
    ``r_stack = A s(n) + A_I s_I(n) + B w_stack`` where ``s_I`` collects the
    2P-2 neighboring transmit vectors (past first, each side in increasing
    symbol order) and ``w_stack`` the P noise vectors.  The physical noise
    covariance is ``noise_variance * noise_covariance``.
    """

    projected_taps: np.ndarray  # (P, M, M)
    combiner: np.ndarray        # (N_R, M)
    noise_variance: float

    @property
    def n_taps(self) -> int:
        return self.projected_taps.shape[0]

    @property
    def n_streams(self) -> int:
        return self.projected_taps.shape[1]

    @property
    def signal_signatures(self) -> np.ndarray:
        """A: (M P, M); block row l is G(l)."""
        p, m = self.n_taps, self.n_streams
        return self.projected_taps.reshape(p * m, m)

    @property
    def interference_signatures(self) -> np.ndarray:
        """A_I: (M P, M (2P-2)); column block for offset m is G(j - m)."""
        p, m = self.n_taps, self.n_streams
        offsets = (*range(-(p - 1), 0), *range(1, p))
        out = np.zeros((p, m, len(offsets), m), dtype=np.complex128)
        for col, offset in enumerate(offsets):
            rows = slice(max(offset, 0), min(p + offset, p))
            out[rows, :, col] = self.projected_taps[rows.start - offset : rows.stop - offset]
        return out.reshape(p * m, len(offsets) * m)

    @property
    def noise_map(self) -> np.ndarray:
        """B: (M P, N_R P), block-diagonal with D^H repeated P times."""
        return np.kron(np.eye(self.n_taps), self.combiner.conj().T)

    @property
    def noise_covariance(self) -> np.ndarray:
        """C_w: unit-normalized per-symbol noise covariance (identity)."""
        return np.eye(self.combiner.shape[0])


def design_beamformers(channel: SampledChannel, n_streams: int) -> BeamformerPair:
    """SVD beamformers of the strongest tap (Frobenius norm, ties to the
    smallest index)."""
    if not 1 <= n_streams <= min(channel.n_rx, channel.n_tx):
        raise ValueError(
            f"stream count must lie in [1, {min(channel.n_rx, channel.n_tx)}], "
            f"got {n_streams!r}"
        )
    norms = np.linalg.norm(channel.taps, axis=(1, 2))
    mu = int(np.argmax(norms))
    u, s, vh = np.linalg.svd(channel.taps[mu], full_matrices=False)
    if s[0] == 0.0 or s[n_streams - 1] <= 1e-12 * s[0]:
        warnings.warn(
            f"strongest tap supports fewer than {n_streams} effective streams",
            RuntimeWarning,
            stacklevel=2,
        )
    return BeamformerPair(
        precoder=vh[:n_streams].conj().T,
        combiner=u[:, :n_streams],
        tap_index=mu,
        singular_values=s[:n_streams].copy(),
    )


def build_stacked_model(
    channel: SampledChannel,
    beamformers: BeamformerPair,
    noise_variance: float,
) -> StackedModel:
    """Project every tap through the beamformers: ``G(l) = D^H H(l) Q``."""
    if noise_variance <= 0:
        raise ValueError(f"noise variance must be positive, got {noise_variance!r}")
    G = beamformers.combiner.conj().T @ channel.taps @ beamformers.precoder
    return StackedModel(
        projected_taps=G,
        combiner=beamformers.combiner,
        noise_variance=noise_variance,
    )


def _lag_gram(G: np.ndarray) -> np.ndarray:
    """Block lags R(d) = sum_k G(k) G(k-d)^H for d = -(P-1) .. P-1,
    returned as (2P-1, M, M) with lag d at index P-1+d.  On the tap-major
    row view ``W = [G(0) ... G(P-1)]`` each lag is one small product,
    ``R(d) = W[:, dM:] W[:, :(P-d)M]^H``."""
    p, m = G.shape[0], G.shape[1]
    W = G.transpose(1, 0, 2).reshape(m, p * m)
    Wh = W.conj().T
    lags = np.empty((2 * p - 1, m, m), dtype=np.complex128)
    for d in range(p):
        r = W[:, d * m :] @ Wh[: (p - d) * m]
        lags[p - 1 + d] = r
        if d:
            lags[p - 1 - d] = r.conj().T
    return lags


def _stacked_covariance(model: StackedModel, tx_power: float) -> np.ndarray:
    """C = (P_T/M)(A A^H + A_I A_I^H) + noise_variance B B^H.

    The Gram of all shifted signatures is block-Toeplitz in the tap lag, so
    it is assembled from the lag sums of :func:`_lag_gram` instead of the
    explicit (and potentially huge) interference matrix.  B B^H is block
    diagonal with D^H D on every diagonal block, added in one indexed add.
    """
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    lags = _lag_gram(G)
    idx = np.arange(p)[:, None] - np.arange(p)[None, :] + (p - 1)
    cov = lags[idx].transpose(0, 2, 1, 3).reshape(p * m, p * m)
    cov *= tx_power / m
    noise_block = model.noise_variance * (model.combiner.conj().T @ model.combiner)
    blocks = np.arange(p)
    cov.reshape(p, m, p, m)[blocks, :, blocks, :] += noise_block
    return cov


def lmmse_operator(model: StackedModel, tx_power: float) -> np.ndarray:
    """LMMSE estimator E for the stream vector: C^-1 A (P_T/M).

    The returned (M P, M) operator estimates s(n) as E^H r_stack.  A
    singular covariance (possible only with degenerate inputs) surfaces as
    a LinAlgError.
    """
    if tx_power <= 0:
        raise ValueError(f"transmit power must be positive, got {tx_power!r}")
    cov = _stacked_covariance(model, tx_power)
    try:
        factor = scipy.linalg.cho_factor(cov)
    except scipy.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"stacked covariance is singular: {err}") from err
    return scipy.linalg.cho_solve(factor, model.signal_signatures) * (
        tx_power / model.n_streams
    )


def achievable_rate(model: StackedModel, estimator: np.ndarray, tx_power: float) -> float:
    """Rate (bits per channel use) of the estimated streams, interference
    and noise treated as Gaussian:
    ``log2 det[I + R^-1 (P_T/M) E^H A A^H E]`` with
    ``R = E^H ((P_T/M) A_I A_I^H + noise_variance B C_w B^H) E``.

    With E in M x M blocks E_j, the symbol sent d steps away reaches the
    estimate through ``X(d) = sum_j E_j^H G(j+d)``, one product of block-row
    slices of E and A per lag: ``E^H A = X(0)`` and ``E^H A_I A_I^H E =
    X_I X_I^H`` with X_I every X(d), d != 0, side by side.  Valid for any
    estimator E, not just the LMMSE solution.
    """
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    per_stream = tx_power / m
    E = np.asarray(estimator)
    Eh = E.conj().T
    A = model.signal_signatures

    signal = Eh @ A
    X = np.empty((m, 2 * p - 2, m), dtype=np.complex128)
    for d in range(1, p):
        X[:, d - 1] = Eh[:, : (p - d) * m] @ A[d * m :]
        X[:, p - 2 + d] = Eh[:, d * m :] @ A[: (p - d) * m]
    X = X.reshape(m, (2 * p - 2) * m)
    interference = X @ X.conj().T
    dtd = model.combiner.conj().T @ model.combiner
    noise = model.noise_variance * (Eh @ (dtd @ E.reshape(p, m, m)).reshape(p * m, m))

    denom = per_stream * interference + noise
    numer = per_stream * (signal @ signal.conj().T)
    try:
        ratio = np.linalg.solve(denom, numer)
    except np.linalg.LinAlgError:
        eps = 1e-12 * max(float(np.trace(denom).real) / m, np.finfo(float).tiny)
        warnings.warn(
            "interference-plus-noise matrix is singular; regularizing",
            RuntimeWarning,
            stacklevel=2,
        )
        ratio = np.linalg.solve(denom + eps * np.eye(m), numer)
    _, logdet = np.linalg.slogdet(np.eye(m) + ratio)
    return max(float(logdet) / np.log(2.0), 0.0)


@dataclass(frozen=True)
class LinkConfig:
    """Read-only link view of a :class:`ScenarioConfig`, which the library
    takes directly.  Kept only because the benchmark worker
    ``perfbench/worker.py`` imports it; every value and check is the
    scenario's."""

    scenario: "ScenarioConfig"

    @classmethod
    def from_scenario(cls, config: "ScenarioConfig") -> "LinkConfig":
        return cls(config)

    @property
    def n_streams(self) -> int:
        return self.scenario.n_streams

    @property
    def tx_power(self) -> float:
        return self.scenario.tx_power_w

    @property
    def noise_variance(self) -> float:
        return self.scenario.noise_variance()

    @property
    def n_trials(self) -> int:
        return self.scenario.n_trials

    def validate(self) -> None:
        self.scenario.validate()


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one Monte-Carlo drop."""

    rate: float                  # bits per channel use
    spectral_efficiency: float   # bits/s/Hz
    trial_seed: int              # substream id of the drop
    los: bool
    n_clusters: int
    n_taps: int
    selected_tap: int


@dataclass(eq=False)
class CdfResult:
    """Sorted spectral-efficiency samples with empirical CDF levels."""

    spectral_efficiency: np.ndarray
    cdf: np.ndarray
    trials: list[LinkResult] = field(default_factory=list)


def _single_trial(config: "ScenarioConfig", trial: int) -> LinkResult:
    """Run drop ``trial`` on its own substream; independent of run order."""
    rng = RngStream(config.seed, trial).generator()
    real = realize_channel(config, rng)
    # Link evaluation is symbol-spaced regardless of the inspection
    # oversampling configured for tensor export.
    channel = sample_channel(
        real, config.arrays(), config.pulse(), config.energy_threshold, oversampling=1
    )
    pair = design_beamformers(channel, config.n_streams)
    model = build_stacked_model(channel, pair, config.noise_variance())
    estimator = lmmse_operator(model, config.tx_power_w)
    rate = achievable_rate(model, estimator, config.tx_power_w)
    excess = config.se_normalization == "excess-bandwidth"
    return LinkResult(
        rate=rate,
        spectral_efficiency=rate / (1.0 + config.rolloff) if excess else rate,
        trial_seed=trial,
        los=real.los.present,
        n_clusters=real.n_clusters,
        n_taps=channel.n_taps,
        selected_tap=pair.tap_index,
    )


def run_cdf_experiment(config: "ScenarioConfig", n_jobs: int = 1) -> CdfResult:
    """Monte-Carlo rate CDF over ``config.n_trials`` independent drops.

    Drop k always runs on substream k of the configured seed, so the result
    is byte-identical for any ``n_jobs``.
    """
    config.validate()
    trials = range(config.n_trials)
    if n_jobs == 1:
        results = [_single_trial(config, k) for k in trials]
    else:
        chunk = max(1, config.n_trials // (4 * n_jobs))
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(partial(_single_trial, config), trials, chunksize=chunk))
    se = np.sort(np.array([r.spectral_efficiency for r in results]))
    cdf = np.arange(1, config.n_trials + 1) / config.n_trials
    return CdfResult(spectral_efficiency=se, cdf=cdf, trials=results)
