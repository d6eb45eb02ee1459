"""Acceptance gate: one test per release criterion, each printing a
``[acceptance] criterion N (...): PASS|FAIL`` line with pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they execute.  Expected values are frozen from independent
closed-form evaluation; tolerances are part of the contract and must not
be loosened.
"""

import time

import numpy as np
import scipy.stats

from conftest import forward_stack_residual, random_stacked_model
from mmwchan import (
    ArrayPair,
    MobilitySpec,
    PlanarArray,
    PulseSpec,
    ScenarioConfig,
    achievable_rate,
    end_to_end_pulse,
    evolve_channel,
    lmmse_operator,
    realize_channel,
    run_cdf_experiment,
    sample_channel,
    total_tap_energy,
)
from mmwchan.cli import main as cli_main
from mmwchan.link import StackedModel
from mmwchan.propagation import (
    SCENARIOS,
    draw_los,
    los_probability,
    path_loss_db,
    sample_shadow_fading,
    scenario_parameters,
)
from mmwchan.sampling import (
    RngStream,
    ar1_complex_sequence,
    sample_cluster_count,
    sample_laplacian,
    sample_ray_count,
)
from test_channel import delta_realization
from test_propagation import (
    FROZEN_LOSS_DB,
    INH_LOS_PROB,
    UMI_LOS_PROB,
    WAVELENGTH_73GHZ,
)
from test_sampling import CLAMPED_POISSON_MEAN


def _finish(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status}")
    assert not failures, "\n".join(failures)


def _check(failures: list[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def test_criterion_1_path_loss_table():
    """Every scenario/condition row matches the frozen closed-form loss at
    1, 10, and 100 m to 1e-9 dB."""
    failures: list[str] = []
    for (scenario, condition), rows in sorted(FROZEN_LOSS_DB.items()):
        params = scenario_parameters(scenario, condition)
        for distance, expected in rows.items():
            got = path_loss_db(distance, WAVELENGTH_73GHZ, params)
            _check(
                failures,
                abs(got - expected) <= 1e-9,
                f"{scenario}/{condition} r={distance}: {got!r} != {expected!r}",
            )
    _finish(1, "path-loss table", failures)


def test_criterion_2_los_probability():
    """Closed-form LOS probabilities to 1e-12 and the Bernoulli draw
    frequency within +-0.01 at 1e5 draws."""
    failures: list[str] = []
    for d, expected in UMI_LOS_PROB.items():
        got = los_probability("umi-street-canyon", d)
        _check(failures, abs(got - expected) <= 1e-12, f"umi d={d}: {got!r}")
    for d, expected in INH_LOS_PROB.items():
        got = los_probability("inh-office", d)
        _check(failures, abs(got - expected) <= 1e-12, f"inh d={d}: {got!r}")

    rng = RngStream(2026, 0).generator()
    n = 100_000
    hits = sum(draw_los("umi-street-canyon", 39.0, rng) for _ in range(n))
    freq = hits / n
    _check(
        failures,
        abs(freq - UMI_LOS_PROB[39.0]) <= 0.01,
        f"Bernoulli frequency {freq} vs {UMI_LOS_PROB[39.0]}",
    )
    _finish(2, "LOS probability", failures)


def test_criterion_3_sampling_distributions():
    """Distributional checks at 1e6 draws, all inside 60 s: clamped-Poisson
    mean +-2%, uniform ray counts at the 0.1% chi-square level, Laplacian
    spread +-1%, shadow-fading std +-1% for every table row."""
    failures: list[str] = []
    t0 = time.perf_counter()
    rng = RngStream(314, 0).generator()

    counts = sample_cluster_count(1.9, rng, size=1_000_000)
    mean = float(np.mean(counts))
    _check(
        failures,
        abs(mean - CLAMPED_POISSON_MEAN) <= 0.02 * CLAMPED_POISSON_MEAN,
        f"cluster-count mean {mean} vs {CLAMPED_POISSON_MEAN}",
    )

    rays = sample_ray_count(rng, size=1_000_000)
    observed = np.bincount(rays, minlength=31)[1:]
    expected = rays.size / 30.0
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    critical = float(scipy.stats.chi2.ppf(0.999, df=29))
    _check(
        failures,
        chi2 <= critical,
        f"ray-count chi-square {chi2} exceeds {critical}",
    )

    spread = np.deg2rad(5.0)
    draws = sample_laplacian(0.0, spread, rng, size=1_000_000)
    std = float(np.std(draws))
    _check(
        failures,
        abs(std - spread) <= 0.01 * spread,
        f"Laplacian std {std} vs {spread}",
    )

    for scenario in SCENARIOS:
        for condition in ("los", "nlos"):
            params = scenario_parameters(scenario, condition)
            shadow = sample_shadow_fading(params, rng, size=1_000_000)
            got = float(np.std(shadow))
            _check(
                failures,
                abs(got - params.shadow_std_db) <= 0.01 * params.shadow_std_db,
                f"shadow std {scenario}/{condition}: {got} vs {params.shadow_std_db}",
            )

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 60.0, f"distribution suite took {elapsed:.1f} s")
    _finish(3, "sampling distributions", failures)


def test_criterion_4_pulse_shape():
    """Unit peak, Nyquist zeros below 1e-12 for offsets 1..8 symbols, and
    the removable-singularity limit to 1e-9."""
    failures: list[str] = []
    spec = PulseSpec(symbol_period=2.44e-9, rolloff=0.22)
    _check(failures, end_to_end_pulse(spec, 0.0) == 1.0, "peak is not exactly 1")
    for k in range(1, 9):
        for sign in (1.0, -1.0):
            value = end_to_end_pulse(spec, sign * k * spec.symbol_period)
            _check(
                failures,
                abs(value) < 1e-12,
                f"pulse at {sign * k:+.0f} symbols is {value!r}",
            )
    t_sing = spec.symbol_period / (2.0 * 0.22)
    got = end_to_end_pulse(spec, t_sing)
    expected = (np.pi / 4.0) * np.sinc(1.0 / 0.44)
    _check(
        failures,
        abs(got - expected) <= 1e-9,
        f"singularity value {got!r} vs {expected!r}",
    )
    _finish(4, "pulse shape", failures)


def test_criterion_5_power_normalization():
    """Per-tap power scales exactly with N_R * N_T: quadrupling the element
    count quadruples the energy to 1e-10 relative, for a single ray with
    arbitrary directions and for a common-direction multi-ray cluster."""
    failures: list[str] = []
    spec = PulseSpec(symbol_period=2.0 ** -29, rolloff=0.22)
    small = ArrayPair(tx=PlanarArray(2, 2), rx=PlanarArray(2, 2))
    large = ArrayPair(tx=PlanarArray(4, 2), rx=PlanarArray(4, 2))

    single = delta_realization([1.0], [-80.0], gains=[0.3 + 0.9j])
    e_small = total_tap_energy(sample_channel(single, small, spec))
    e_large = total_tap_energy(sample_channel(single, large, spec))
    ratio = e_large / e_small
    _check(
        failures,
        abs(ratio - 4.0) <= 1e-10,
        f"single-ray energy ratio {ratio!r} != 4",
    )

    # Three rays sharing one direction, spread over distinct delays.
    common = delta_realization([0.0, 1.5, 4.0], [-80.0, -82.0, -85.0])
    e_small = total_tap_energy(sample_channel(common, small, spec))
    e_large = total_tap_energy(sample_channel(common, large, spec))
    ratio = e_large / e_small
    _check(
        failures,
        abs(ratio - 4.0) <= 1e-10,
        f"common-direction energy ratio {ratio!r} != 4",
    )
    _finish(5, "power normalization", failures)


def test_criterion_6_gain_evolution():
    """AR(1) lag correlations within +-0.02 of rho**k for k <= 5 at 1e5
    samples, and the static limit (zero speed, coefficient 1) reproduces
    the static tap tensor bit for bit on LOS and NLOS drops."""
    failures: list[str] = []
    for rho in (0.5, 0.9, 0.99):
        rng = RngStream(77, int(rho * 100)).generator()
        seq = ar1_complex_sequence(rho, 100_000, rng=rng)
        power = float(np.mean(np.abs(seq) ** 2))
        for lag in range(1, 6):
            got = float(np.mean(seq[lag:] * np.conj(seq[:-lag])).real) / power
            _check(
                failures,
                abs(got - rho**lag) <= 0.02,
                f"rho={rho} lag={lag}: correlation {got} vs {rho**lag}",
            )

    # Static limit, first LOS and first NLOS drop at 50 m.
    config = ScenarioConfig(distance_m=50.0)
    chosen: dict[bool, int] = {}
    for seed in range(200):
        real = realize_channel(config, RngStream(seed, 0).generator())
        if real.los.present not in chosen:
            chosen[real.los.present] = seed
        if len(chosen) == 2:
            break
    _check(failures, len(chosen) == 2, "could not find both LOS states at 50 m")
    mob = MobilitySpec(
        v_rx=0.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=5, gain_correlation=1.0
    )
    for state, seed in sorted(chosen.items()):
        real = realize_channel(config, RngStream(seed, 0).generator())
        static = sample_channel(real, config.arrays(), config.pulse())
        frozen = evolve_channel(
            real, config.arrays(), config.pulse(), mob, RngStream(seed, 1).generator()
        )
        same_window = (
            frozen.tap_offset == static.tap_offset
            and frozen.n_taps == static.n_taps
        )
        _check(failures, same_window, f"{state=} window differs")
        if same_window:
            for k in range(mob.n_snapshots):
                _check(
                    failures,
                    bool(np.array_equal(frozen.snapshots[k], static.taps)),
                    f"{state=} snapshot {k} is not bitwise static",
                )
    _finish(6, "gain evolution", failures)


def test_criterion_7_stacked_model():
    """Stacked signature prediction matches direct convolution to 1e-10
    relative on 100 random instances with P <= 3, M <= 2, N <= 4."""
    failures: list[str] = []
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(100):
        model = random_stacked_model(rng, p_max=3, m_max=2, n_max=4)
        worst = max(worst, forward_stack_residual(model, rng))
    _check(failures, worst <= 1e-10, f"worst stacking residual {worst!r}")
    _finish(7, "stacked model", failures)


def test_criterion_8_lmmse_rate():
    """Scalar single-tap LMMSE rate equals log2(1 + P|g|^2 / sigma^2) to
    1e-9 bits."""
    failures: list[str] = []
    g = 0.6 - 0.7j
    sigma2 = 0.04
    tx_power = 1.5
    model = StackedModel(
        projected_taps=np.array([[[g]]], dtype=np.complex128),
        combiner=np.ones((1, 1), dtype=np.complex128),
        noise_variance=sigma2,
    )
    estimator = lmmse_operator(model, tx_power)
    rate = achievable_rate(model, estimator, tx_power)
    expected = float(np.log2(1.0 + tx_power * abs(g) ** 2 / sigma2))
    _check(
        failures,
        abs(rate - expected) <= 1e-9,
        f"scalar rate {rate!r} vs {expected!r}",
    )
    _finish(8, "LMMSE rate", failures)


def _median_se(**overrides) -> float:
    config = ScenarioConfig(seed=0, n_trials=500, **overrides)
    result = run_cdf_experiment(config)
    return float(np.median(result.spectral_efficiency))


def test_criterion_9_figure_trends():
    """Monte-Carlo medians (500 trials per configuration, 6 configurations,
    under 300 s total) reproduce the qualitative figure behavior: median
    spectral efficiency falls with distance, grows with array size, and the
    8-stream-vs-4-stream gap shrinks from 10 m to 50 m."""
    failures: list[str] = []
    t0 = time.perf_counter()

    med_d10_m4 = _median_se(distance_m=10.0)
    med_d30_m4 = _median_se(distance_m=30.0)
    med_d50_m4 = _median_se(distance_m=50.0)
    _check(
        failures,
        med_d10_m4 > med_d30_m4 > med_d50_m4,
        f"distance trend broken: {med_d10_m4}, {med_d30_m4}, {med_d50_m4}",
    )

    med_small = _median_se(
        distance_m=30.0,
        rx_horizontal=5, rx_vertical=2, tx_horizontal=5, tx_vertical=2,
    )
    _check(
        failures,
        med_small < med_d30_m4,
        f"array-size trend broken: {med_small} !< {med_d30_m4}",
    )

    med_d10_m8 = _median_se(distance_m=10.0, n_streams=8)
    med_d50_m8 = _median_se(distance_m=50.0, n_streams=8)
    gap_close = med_d10_m8 - med_d10_m4
    gap_far = med_d50_m8 - med_d50_m4
    _check(
        failures,
        gap_close > gap_far,
        f"stream-count gap trend broken: {gap_close} !> {gap_far}",
    )

    elapsed = time.perf_counter() - t0
    _check(failures, elapsed < 300.0, f"trend suite took {elapsed:.1f} s")
    _finish(9, "figure trends", failures)


def test_criterion_10_reproducibility(tmp_path):
    """Identical command lines produce byte-identical artifacts, and the
    CDF evaluation is byte-identical for 1 or 2 worker processes."""
    failures: list[str] = []

    def run(*args):
        code = cli_main([str(a) for a in args])
        _check(failures, code == 0, f"exit code {code} for {args}")

    s1, s2 = tmp_path / "s1.mmwc", tmp_path / "s2.mmwc"
    static_args = ("generate-static", "--set", "seed=42", "--set", "distance_m=40")
    run(*static_args, "--output", s1)
    run(*static_args, "--output", s2)
    _check(failures, s1.read_bytes() == s2.read_bytes(), "static tensors differ")
    _check(
        failures,
        (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes(),
        "static metadata differs",
    )

    d1, d2 = tmp_path / "d1.mmwc", tmp_path / "d2.mmwc"
    dynamic_args = (
        "generate-dynamic", "--set", "seed=42", "--set", "v_rx_mps=20",
        "--set", "n_snapshots=6",
    )
    run(*dynamic_args, "--output", d1)
    run(*dynamic_args, "--output", d2)
    _check(failures, d1.read_bytes() == d2.read_bytes(), "snapshot tensors differ")

    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    l1, l2 = tmp_path / "l1.json", tmp_path / "l2.json"
    cdf_args = ("eval-cdf", "--set", "seed=42", "--set", "n_trials=40")
    run(*cdf_args, "--output", c1, "--trial-log", l1, "--jobs", 1)
    run(*cdf_args, "--output", c2, "--trial-log", l2, "--jobs", 2)
    _check(failures, c1.read_bytes() == c2.read_bytes(), "CDF files differ across jobs")
    _check(failures, l1.read_bytes() == l2.read_bytes(), "trial logs differ across jobs")
    _finish(10, "reproducibility", failures)
