"""Link-level evaluation: eigen-beamforming, LMMSE reception, rate CDFs.

The transmitter sends M streams through the top right singular vectors of
the strongest tap; the receiver projects onto the matching left singular
vectors, stacks a window of P received symbol vectors, and applies the
LMMSE estimator for the stream vector.  The achievable rate treats
inter-symbol interference from neighboring transmit vectors as noise.

Each drop's taps come from :func:`mmwchan.channel.sample_channel`, which
chooses the tap window from the rows' energies first and renders only the
window; every linear solve here runs on numpy's own LAPACK.  The stacked
covariance C is block-Toeplitz in the tap lag.  Short windows assemble it
and solve by LU; windows with ``P M > LU_MAX_DIM`` (the measured
crossover) solve by block Levinson recursion on its lags and never form
the (P M)^2 matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._bounds import COUNT, POSITIVE, _Interval, check
from .channel import SampledChannel, realize_channel, sample_channel
from .config import ScenarioConfig, thermal_noise_variance
from .sampling import RngStream

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


@dataclass(eq=False)
class BeamformerPair:
    """Per-drop eigen-beamformers anchored at the strongest tap."""

    precoder: np.ndarray        # (N_T, M)
    combiner: np.ndarray        # (N_R, M)
    tap_index: int
    singular_values: np.ndarray  # (M,)


@dataclass(eq=False)
class StackedModel:
    """Symbol-spaced model of the beamformed link over a window of P taps.

    Stores the projected taps ``G(l) = D^H H(l) Q`` and the combiner ``D``;
    only the signal signatures ``A`` are materialized (the test oracle
    ``tests/link_oracle.py`` builds ``A_I`` and ``B``).  Stacking a
    window of P received vectors ``r(n) ... r(n+P-1)`` gives
    ``r_stack = A s(n) + A_I s_I(n) + B w_stack`` where ``s_I`` collects the
    2P-2 neighboring transmit vectors (past first, each side in increasing
    symbol order) and ``w_stack`` the P noise vectors, each white with
    variance ``noise_variance`` per receive element.
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


def design_beamformers(channel: SampledChannel, n_streams: int) -> BeamformerPair:
    """SVD beamformers of the strongest tap (Frobenius norm, ties to the
    smallest index)."""
    limit = min(channel.n_rx, channel.n_tx)
    check("n_streams", n_streams, _Interval(1, limit, "[]"), integer=True)
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
    check("noise_variance", noise_variance, POSITIVE)
    G = beamformers.combiner.conj().T @ channel.taps @ beamformers.precoder
    return StackedModel(
        projected_taps=G,
        combiner=beamformers.combiner,
        noise_variance=noise_variance,
    )


def _covariance_lags(model: StackedModel, tx_power: float) -> np.ndarray:
    """Block lags of C: (P_T/M) R(d) with R(d) = sum_k G(k) G(k-d)^H, plus
    noise_variance D^H D at lag 0, since B B^H is block diagonal with D^H D
    on every diagonal block.  Returned as (2P-1, M, M) with lag d, for
    d = -(P-1) .. P-1, at index P-1+d.  On the tap-major row view
    ``W = [G(0) ... G(P-1)]`` each lag d >= 0 is one small product,
    ``R(d) = W[:, dM:] W[:, :(P-d)M]^H``, and ``R(-d) = R(d)^H``."""
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    W = G.transpose(1, 0, 2).reshape(m, p * m)
    Wh = W.conj().T
    lags = np.empty((2 * p - 1, m, m), dtype=np.complex128)
    for d in range(p):
        r = W[:, d * m :] @ Wh[: (p - d) * m]
        lags[p - 1 + d] = r
        if d:
            lags[p - 1 - d] = r.conj().T
    lags *= tx_power / m
    lags[p - 1] += model.noise_variance * (model.combiner.conj().T @ model.combiner)
    return lags


def _stacked_covariance(model: StackedModel, tx_power: float) -> np.ndarray:
    """C = (P_T/M)(A A^H + A_I A_I^H) + noise_variance B B^H.

    The Gram of all shifted signatures is block-Toeplitz in the tap lag, so
    it is assembled from the lags of :func:`_covariance_lags` instead of the
    explicit (and potentially huge) interference matrix.
    """
    p, m = model.n_taps, model.n_streams
    lags = _covariance_lags(model, tx_power)
    # windows[k, :, :, j] is lag P-1-k-j, so reversing k puts lag i-j at
    # block (i, j); the read-only view is copied once, writable for P = 1.
    windows = sliding_window_view(lags[::-1], p, axis=0)[::-1]
    return np.array(windows.transpose(0, 1, 3, 2), order="C").reshape(p * m, p * m)


def _block_levinson(lags: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve C X = rhs for the Hermitian block-Toeplitz C whose block (i, j)
    is R(i-j) = ``lags[P-1+i-j]``, without forming C (Whittle 1963; Akaike
    1973).

    Step n extends three solutions on the leading n x n blocks C_n to n+1
    blocks: the backward and forward predictors, ``C_n B = [0 ... 0 I]^T``
    and ``C_n F = [I 0 ... 0]^T``, and ``C_n X = rhs[:n]``.  Padded to n+1
    blocks, ``[0; B]``, ``[F; 0]`` and ``[X; 0]`` are exact except in the
    first and last block rows, where they leave ``Db = sum_j R(-1-j) B_j``,
    ``Df = sum_j R(n-j) F_j`` and ``T = sum_j R(n-j) X_j``.  With those in
    ``Q = [[I, Df, T - rhs_n], [Db, I, 0], [0, 0, I]]`` (3M x 3M), the three
    padded solutions side by side, times ``Q^-1``, are the next B, F and X.
    A step is one such inverse and products over (n+1) M rows.  A singular
    leading block or Q raises LinAlgError.
    """
    m = lags.shape[1]
    p = (lags.shape[0] + 1) // 2
    # Block rows [R(P-1) ... R(1)] and [R(-1) ... R(-(P-1))]; step n reads
    # the last and the first n blocks.  ``work`` holds [0; B], [F; 0] and
    # [X; 0] side by side, and ``step`` is Q.
    ahead = lags[p:][::-1].transpose(1, 0, 2).reshape(m, (p - 1) * m)
    behind = lags[: p - 1][::-1].transpose(1, 0, 2).reshape(m, (p - 1) * m)
    work = np.zeros(((p + 1) * m, 3 * m), dtype=np.complex128)
    inverse = np.linalg.inv(lags[p - 1])
    work[m : 2 * m, :m] = inverse
    work[:m, m : 2 * m] = inverse
    work[:m, 2 * m :] = inverse @ rhs[:m]
    step = np.eye(3 * m, dtype=np.complex128)
    for n in range(1, p):
        rows = (n + 1) * m
        np.matmul(ahead[:, (p - 1 - n) * m :], work[: n * m, m:], out=step[:m, m:])
        step[:m, 2 * m :] -= rhs[n * m : rows]
        np.matmul(behind[:, : n * m], work[m:rows, :m], out=step[m : 2 * m, :m])
        update = work[:rows] @ np.linalg.inv(step)
        work[m : rows + m, :m] = update[:, :m]
        work[:rows, m:] = update[:, m:]
    return work[: p * m, 2 * m :]


#: Largest stacked dimension P*M solved by LU on the assembled covariance;
#: longer windows run :func:`_block_levinson`.  Set where Levinson became
#: the faster solve at M=4 and 8 (``BENCH_16.json`` holds the per-bin time
#: ratios); at M=1 and 2, LU stays faster beyond it.
LU_MAX_DIM = 384


def lmmse_operator(model: StackedModel, tx_power: float) -> np.ndarray:
    """LMMSE estimator E for the stream vector: C^-1 A (P_T/M).

    The returned (M P, M) operator estimates s(n) as E^H r_stack.  Windows
    with ``P M <= LU_MAX_DIM`` assemble C and solve by LU with partial
    pivoting.  Longer windows solve by block Levinson on the lags of C
    (:func:`_block_levinson`), which never forms C: O(P^2 M^3) time and
    O(P M^2) memory instead of O((P M)^3) and O((P M)^2).  Block Levinson
    is only weakly stable (Bojanczyk, Brent, de Hoog & Sweet 1995): it
    guarantees no small backward error, only a forward error of the order a
    stable solver would give.  The tests' tolerances against LU and the
    per-lag oracle, on long random windows and on real drops, are the
    evidence that it is accurate enough here.  A singular covariance
    (possible only with degenerate inputs) surfaces as a LinAlgError on
    either branch.
    """
    check("tx_power", tx_power, POSITIVE)
    p, m = model.n_taps, model.n_streams
    try:
        if p * m <= LU_MAX_DIM:
            solution = np.linalg.solve(
                _stacked_covariance(model, tx_power), model.signal_signatures
            )
        else:
            solution = _block_levinson(
                _covariance_lags(model, tx_power), model.signal_signatures
            )
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(f"stacked covariance is singular: {err}") from err
    return solution * (tx_power / m)


def achievable_rate(model: StackedModel, estimator: np.ndarray, tx_power: float) -> float:
    """Rate (bits per channel use) of the estimated streams, interference
    and noise treated as Gaussian:
    ``log2 det[I + R^-1 (P_T/M) E^H A A^H E]`` with
    ``R = E^H ((P_T/M) A_I A_I^H + noise_variance B B^H) E``.

    With E in M x M blocks E_j, the symbol sent d steps away reaches the
    estimate through ``X(d) = sum_j E_j^H G(j+d)``, one product of block-row
    slices of E and A per lag: ``E^H A = X(0)`` and ``E^H A_I A_I^H E =
    X_I X_I^H`` with X_I every X(d), d != 0, side by side.  Valid for any
    estimator E, not just the LMMSE solution.
    """
    check("tx_power", tx_power, POSITIVE)
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
    is byte-identical for any ``n_jobs``, which must be an integer >= 1.
    At most ``n_jobs`` worker processes start, and never more than there
    are drops; with one, the drops run serially in this process.
    """
    check("n_jobs", n_jobs, COUNT, integer=True)
    trials = range(config.n_trials)
    workers = min(n_jobs, config.n_trials)
    if workers == 1:
        results = [_single_trial(config, k) for k in trials]
    else:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, config.n_trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(partial(_single_trial, config), trials, chunksize=chunk))
    se = np.sort(np.array([r.spectral_efficiency for r in results]))
    cdf = np.arange(1, config.n_trials + 1) / config.n_trials
    return CdfResult(spectral_efficiency=se, cdf=cdf, trials=results)
