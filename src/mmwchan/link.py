"""Link-level evaluation: eigen-beamforming, LMMSE reception, rate CDFs.

The transmitter sends M streams through the top right singular vectors of
the strongest tap; the receiver projects onto the matching left singular
vectors, stacks a window of P received symbol vectors, and applies the
LMMSE estimator for the stream vector.  The achievable rate treats
inter-symbol interference from neighboring transmit vectors as noise.

Each drop's channel comes from :func:`mmwchan.channel.sample_channel`,
which chooses the tap window from the rows' energies and renders nothing;
the beamformers render the strongest tap alone, and the stacked model
projects the steering vectors through them, so ``eval-cdf`` renders one tap
per drop.  Every linear solve here runs on numpy's own LAPACK.  The stacked
covariance C is block-Toeplitz in the tap lag.  :func:`_solves_by_lu`
picks the solver from P and M alone: LU on the assembled C while its
O((P M)^3) work is the cheaper, else block Levinson recursion on the lags
of C, which never forms the (P M)^2 matrix.  Both meet the same test
tolerances; the per-M costs the rule is fitted to are in ``BENCH_23.json``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ._bounds import COUNT, POSITIVE, _Interval, check
from .channel import SampledChannel, realize_channel, sample_channel
from .config import ScenarioConfig
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
    """SVD beamformers of the strongest tap (largest sum of squared
    magnitudes, ties to the smallest index)."""
    limit = min(channel.n_rx, channel.n_tx)
    check("n_streams", n_streams, _Interval(1, limit, "[]"), integer=True)
    mu, tap = channel._strongest()
    u, s, vh = np.linalg.svd(tap, full_matrices=False)
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
    return StackedModel(
        projected_taps=channel._project(beamformers.combiner, beamformers.precoder),
        combiner=beamformers.combiner,
        noise_variance=noise_variance,
    )


def _shifted_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``S(d) = left[:, dM:] @ right[:(P-d)M]`` for d = 0 .. P-1, as (P, M, M),
    from an (M, P M) ``left`` and a (P M, M) ``right``: one batched product
    over shifted windows of ``left`` zero-padded to (M, 2 P M), or, past
    ``P M^3 = 2^14``, where its doubled multiply-adds cost more than the
    calls it saves, one product per lag."""
    m, pm = left.shape
    p = pm // m
    if p * m**3 > 2**14:
        return np.stack([left[:, d * m :] @ right[: (p - d) * m] for d in range(p)])
    padded = np.zeros((m, 2 * pm), dtype=np.complex128)
    padded[:, :pm] = left
    row, item = padded.strides
    windows = as_strided(padded, (p, m, pm), (m * item, row, item), writeable=False)
    return np.matmul(windows, right)


def _covariance_lags(model: StackedModel, tx_power: float) -> np.ndarray:
    """Block lags of C: (P_T/M) R(d) with R(d) = sum_k G(k) G(k-d)^H, plus
    noise_variance D^H D at lag 0, since B B^H is block diagonal with D^H D
    on every diagonal block.  Returned as (2P-1, M, M) with lag d, for
    d = -(P-1) .. P-1, at index P-1+d.  On the tap-major row view
    ``W = [G(0) ... G(P-1)]``, ``R(d) = W[:, dM:] W[:, :(P-d)M]^H`` for
    d >= 0 (:func:`_shifted_products`), and ``R(-d) = R(d)^H``."""
    G = model.projected_taps
    p, m = G.shape[0], G.shape[1]
    W = G.transpose(1, 0, 2).reshape(m, p * m)
    lags = np.empty((2 * p - 1, m, m), dtype=np.complex128)
    lags[p - 1 :] = _shifted_products(W, W.conj().T)
    lags[: p - 1] = lags[: p - 1 : -1].conj().transpose(0, 2, 1)
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
    ``Df = sum_j R(n-j) F_j`` and ``T = sum_j R(n-j) X_j``.  With
    ``S = [[I, Df], [Db, I]]``, the next backward predictor is
    ``B' = [[0; B], [F; 0]] S^-1 [I; 0]``, and then ``F' = [F; 0] - B' Df``
    and ``X' = [X; 0] - B' (T - rhs_n)``.  A step is one 2M x 2M inverse
    and products over (n+1) M rows.  A singular leading block or S raises
    LinAlgError.
    """
    m = lags.shape[1]
    p = (lags.shape[0] + 1) // 2
    # Block rows [R(P-1) ... R(1)] and [R(-1) ... R(-(P-1))]; step n reads
    # the last and the first n blocks.  ``work`` holds [0; B], [F; 0] and
    # [X; 0] side by side; ``step`` holds [I, Df, T - rhs_n] above
    # [Db, I, 0], so its first 2M columns are S.
    ahead = lags[p:][::-1].transpose(1, 0, 2).reshape(m, (p - 1) * m)
    behind = lags[: p - 1][::-1].transpose(1, 0, 2).reshape(m, (p - 1) * m)
    work = np.zeros(((p + 1) * m, 3 * m), dtype=np.complex128)
    inverse = np.linalg.inv(lags[p - 1])
    work[m : 2 * m, :m] = inverse
    work[:m, m : 2 * m] = inverse
    work[:m, 2 * m :] = inverse @ rhs[:m]
    step = np.eye(2 * m, 3 * m, dtype=np.complex128)
    for n in range(1, p):
        rows = (n + 1) * m
        np.matmul(ahead[:, (p - 1 - n) * m :], work[: n * m, m:], out=step[:m, m:])
        step[:m, 2 * m :] -= rhs[n * m : rows]
        np.matmul(behind[:, : n * m], work[m:rows, :m], out=step[m:, :m])
        backward = work[:rows, : 2 * m] @ np.linalg.inv(step[:, : 2 * m])[:, :m]
        # One contiguous update of all three columns: the first, [0; B],
        # gets -B' from the identity block and is then overwritten.
        work[:rows] -= backward @ step[:m]
        work[:m, :m] = 0.0
        work[m : rows + m, :m] = backward
    return work[: p * m, 2 * m :]


#: At M = 1, the largest stacked dimension P*M that LU solves; see
#: :func:`_solves_by_lu`.
LU_MAX_DIM = 512


def _solves_by_lu(p: int, m: int) -> bool:
    """Whether LU on the assembled C, else block Levinson, solves P taps of
    M streams: while LU's (P M)^3 work is at most ``LU_MAX_DIM^2 P``, what
    the call overhead of P Levinson steps costs, or while P <= 32, where
    the steps' multiply-adds cost more.  Both solvers meet the same test
    tolerances, so cost alone decides: the rule is fitted to the per-M costs
    by P M in ``BENCH_23.json``, and the shape alone sets it, so every run
    agrees."""
    return p <= 32 or (p * m) ** 2 * m <= LU_MAX_DIM**2


def lmmse_operator(model: StackedModel, tx_power: float) -> np.ndarray:
    """LMMSE estimator E for the stream vector: C^-1 A (P_T/M).

    The returned (M P, M) operator estimates s(n) as E^H r_stack.  Windows
    that :func:`_solves_by_lu` picks assemble C and solve by LU with partial
    pivoting.  The others solve by block Levinson on the lags of C
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
        if _solves_by_lu(p, m):
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
    estimate through ``X(d) = sum_j E_j^H G(j+d)``.  On block-row slices of
    E and A, ``X(-d) = E^H[:, dM:] A[:(P-d)M]`` and ``X(d)^H =
    A^H[:, dM:] E[:(P-d)M]`` for d >= 0 (:func:`_shifted_products`):
    ``E^H A = X(0)`` and ``E^H A_I A_I^H E = sum_{d != 0} X(d) X(d)^H``.
    Valid for any estimator E, not just the LMMSE solution.
    """
    check("tx_power", tx_power, POSITIVE)
    p, m = model.n_taps, model.n_streams
    per_stream = tx_power / m
    E = np.asarray(estimator)
    Eh = E.conj().T
    A = model.signal_signatures

    # X(-d) carries the symbol sent d steps later, X(d) the one d earlier.
    later = _shifted_products(Eh, A)
    earlier = _shifted_products(A.conj().T, E)[1:].reshape((p - 1) * m, m)
    signal = later[0]
    later = later[1:].transpose(1, 0, 2).reshape(m, (p - 1) * m)
    interference = later @ later.conj().T + earlier.conj().T @ earlier
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
