"""Tests for beamforming, the stacked symbol model, LMMSE rates, CDFs."""

import tracemalloc
import warnings

import numpy as np
import pytest

import link_oracle
from conftest import forward_stack_residual, random_stacked_model, stacked_model
from mmwchan import (
    LinkConfig,
    RngStream,
    ScenarioConfig,
    achievable_rate,
    build_stacked_model,
    design_beamformers,
    lmmse_operator,
    realize_channel,
    run_cdf_experiment,
    sample_channel,
    thermal_noise_variance,
)
from mmwchan import channel as channel_module
from mmwchan.channel import SampledChannel
from mmwchan.link import (
    LU_MAX_DIM,
    StackedModel,
    _LOCKSTEP_BYTES,
    _block_levinson,
    _correlates_by_fft,
    _covariance_lags,
    _lmmse_operators,
    _lockstep_bytes,
    _shifted_products,
    _single_trial,
    _solves_by_lu,
    _stacked_covariance,
    _trials,
)
from mmwchan import link as link_module

# Frozen: k_B * 290 K * 500 MHz * 10^(5/10).
THERMAL_500MHZ_5DB = 6.330693459389029e-12


def random_channel(rng, p=3, n_rx=4, n_tx=5):
    taps = (rng.standard_normal((p, n_rx, n_tx)) + 1j * rng.standard_normal((p, n_rx, n_tx))) / np.sqrt(2)
    return SampledChannel(taps=taps, sample_period=2.44e-9, tap_offset=0)


# -- noise -----------------------------------------------------------------


def test_thermal_noise_frozen_value():
    assert thermal_noise_variance(500e6) == pytest.approx(
        THERMAL_500MHZ_5DB, rel=1e-12
    )


def test_thermal_noise_scales():
    base = thermal_noise_variance(500e6, noise_figure_db=0.0)
    assert thermal_noise_variance(1e9, noise_figure_db=0.0) == pytest.approx(2 * base)
    assert thermal_noise_variance(500e6, noise_figure_db=10.0) == pytest.approx(
        10 * base
    )
    with pytest.raises(ValueError):
        thermal_noise_variance(0.0)


NAN = float("nan")


def _beamformed():
    channel = random_channel(np.random.default_rng(3))
    return channel, design_beamformers(channel, 2)


def _estimated_model():
    model = random_stacked_model(np.random.default_rng(10))
    return model, lmmse_operator(model, 1.0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: thermal_noise_variance(NAN), "bandwidth_hz"),
        (lambda: thermal_noise_variance(500e6, noise_figure_db=NAN), "noise_figure_db"),
        (lambda: thermal_noise_variance(500e6, temperature_k=float("inf")), "temperature_k"),
        (lambda: achievable_rate(*_estimated_model(), NAN), "tx_power"),
        (lambda: lmmse_operator(_estimated_model()[0], NAN), "tx_power"),
        (lambda: lmmse_operator(_estimated_model()[0], float("inf")), "tx_power"),
        (lambda: build_stacked_model(*_beamformed(), noise_variance=NAN), "noise_variance"),
        (lambda: design_beamformers(_beamformed()[0], 2.5), "n_streams"),
    ],
    ids=[
        "noise-bandwidth", "noise-figure", "noise-temperature", "rate-power",
        "lmmse-nan-power", "lmmse-inf-power", "stack-noise", "fractional-streams",
    ],
)
def test_bad_link_argument_is_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"{name} must be"):
        call()


# -- beamformer design -----------------------------------------------------


def test_beamformers_pick_strongest_tap():
    rng = np.random.default_rng(0)
    channel = random_channel(rng)
    channel.taps[1] *= 10.0
    pair = design_beamformers(channel, 2)
    assert pair.tap_index == 1
    assert pair.precoder.shape == (5, 2)
    assert pair.combiner.shape == (4, 2)


def test_beamformers_tie_goes_to_earliest_tap():
    rng = np.random.default_rng(1)
    h = random_channel(rng, p=1).taps[0]
    channel = SampledChannel(
        taps=np.stack([h, h]), sample_period=2.44e-9, tap_offset=0
    )
    assert design_beamformers(channel, 1).tap_index == 0


def test_beamformers_are_orthonormal_and_diagonalize():
    rng = np.random.default_rng(2)
    channel = random_channel(rng)
    pair = design_beamformers(channel, 3)
    np.testing.assert_allclose(
        pair.precoder.conj().T @ pair.precoder, np.eye(3), atol=1e-12
    )
    np.testing.assert_allclose(
        pair.combiner.conj().T @ pair.combiner, np.eye(3), atol=1e-12
    )
    projected = pair.combiner.conj().T @ channel.taps[pair.tap_index] @ pair.precoder
    np.testing.assert_allclose(projected, np.diag(pair.singular_values), atol=1e-10)
    assert np.all(np.diff(pair.singular_values) <= 1e-12)


def test_beamformers_warn_on_rank_deficient_tap():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    taps = np.outer(u, v)[None, :, :]
    channel = SampledChannel(taps=taps, sample_period=2.44e-9, tap_offset=0)
    with pytest.warns(RuntimeWarning, match="fewer than 2 effective streams"):
        design_beamformers(channel, 2)


def test_beamformers_validate_stream_count():
    rng = np.random.default_rng(4)
    channel = random_channel(rng)
    with pytest.raises(ValueError):
        design_beamformers(channel, 0)
    with pytest.raises(ValueError):
        design_beamformers(channel, 5)


# -- stacked model ---------------------------------------------------------


def test_projected_taps_match_direct_computation():
    rng = np.random.default_rng(5)
    channel = random_channel(rng)
    pair = design_beamformers(channel, 2)
    model = build_stacked_model(channel, pair, 0.1)
    for l in range(channel.n_taps):
        direct = pair.combiner.conj().T @ channel.taps[l] @ pair.precoder
        np.testing.assert_allclose(model.projected_taps[l], direct, atol=1e-13)


def test_signature_matrix_layout():
    rng = np.random.default_rng(6)
    model = random_stacked_model(rng, p_max=3, m_max=2, n_max=3)
    p, m = model.n_taps, model.n_streams
    A = model.signal_signatures
    assert A.shape == (p * m, m)
    for j in range(p):
        np.testing.assert_array_equal(A[j * m : (j + 1) * m], model.projected_taps[j])
    AI = link_oracle.interference_signatures(model)
    assert AI.shape == (p * m, m * (2 * p - 2))
    offsets = [*range(-(p - 1), 0), *range(1, p)]
    for col, off in enumerate(offsets):
        block = AI[:, col * m : (col + 1) * m]
        for j in range(p):
            k = j - off
            expected = model.projected_taps[k] if 0 <= k < p else np.zeros((m, m))
            np.testing.assert_array_equal(block[j * m : (j + 1) * m], expected)
    B = link_oracle.noise_map(model)
    np.testing.assert_array_equal(
        B, np.kron(np.eye(p), model.combiner.conj().T)
    )


def test_forward_convolution_matches_stacked_model():
    rng = np.random.default_rng(7)
    for _ in range(10):
        model = random_stacked_model(rng)
        assert forward_stack_residual(model, rng) < 1e-10


def test_stacked_covariance_matches_explicit_assembly():
    rng = np.random.default_rng(8)
    for _ in range(25):
        model = random_stacked_model(rng)
        tx_power = float(rng.uniform(0.5, 3.0))
        A = model.signal_signatures
        AI = link_oracle.interference_signatures(model)
        B = link_oracle.noise_map(model)
        explicit = (tx_power / model.n_streams) * (
            A @ A.conj().T + AI @ AI.conj().T
        ) + model.noise_variance * (B @ B.conj().T)
        fast = _stacked_covariance(model, tx_power)
        np.testing.assert_allclose(fast, explicit, rtol=0, atol=1e-10)


def test_lmmse_operator_solves_normal_equations():
    rng = np.random.default_rng(9)
    models = [random_stacked_model(rng) for _ in range(10)]
    for m in (1, 2, 4, 8):
        # P from 1 to 150, and the longest window LU solves and one tap more,
        # which block Levinson solves.
        longest = max(p for p in range(1, 1024) if _solves_by_lu(p, m))
        assert not _solves_by_lu(longest + 1, m)
        for p in sorted({1, 2, 3, 150, longest, longest + 1}):
            models.append(stacked_model(np.random.default_rng(9 + 1000 * m + p), p, m, m + 2))
    tx_power = 1.7
    for model in models:
        E = lmmse_operator(model, tx_power)
        C = _stacked_covariance(model, tx_power)
        A = model.signal_signatures
        shape = f"P={model.n_taps}, M={model.n_streams}"
        rhs = A * (tx_power / model.n_streams)
        np.testing.assert_allclose(C @ E, rhs, rtol=0, atol=1e-8, err_msg=shape)
        # The block Levinson recursion agrees with LU at every size.
        np.testing.assert_allclose(
            _block_levinson([(_covariance_lags(model, tx_power), A)])[0],
            np.linalg.solve(C, A),
            rtol=0,
            atol=1e-8,
            err_msg=shape,
        )


def test_lmmse_operator_rejects_bad_power():
    rng = np.random.default_rng(10)
    model = random_stacked_model(rng)
    with pytest.raises(ValueError):
        lmmse_operator(model, 0.0)


def test_lmmse_operator_names_a_singular_covariance():
    # Zero taps and a zero combiner leave C = 0: no signal, no noise.  The
    # longer window takes the block Levinson branch.
    for p in (3, LU_MAX_DIM // 2 + 1):
        model = StackedModel(
            projected_taps=np.zeros((p, 2, 2), dtype=np.complex128),
            combiner=np.zeros((4, 2), dtype=np.complex128),
            noise_variance=1.0,
        )
        with pytest.raises(np.linalg.LinAlgError, match="stacked covariance is singular"):
            lmmse_operator(model, 1.0)


def test_lmmse_operator_does_not_form_a_long_windows_covariance():
    # P*M = 600: one copy of C alone would take (P M)^2 * 16 B = 5.8 MB.
    model = stacked_model(np.random.default_rng(13), 150, 4, 6)
    assert 150 * 4 > LU_MAX_DIM
    tracemalloc.start()
    try:
        lmmse_operator(model, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_shifted_products_match_the_per_lag_definition(m):
    """Both branches of ``_shifted_products`` against ``S(d) = left[:, dM:]
    @ right[:(P-d)M]``: the batched product up to the FFT threshold, the FFT
    one tap beyond it and at P = 150 and 300.  An FFT's round-off is of the
    order of eps log2(n) of the largest value it carries (Gentleman & Sande
    1966), here the largest lag, so 1e-13 of it leaves a margin of ~30 at
    n <= 1024; a wrong shift, reversal or conjugate is off by order one."""
    last = max(p for p in range(1, 1024) if not _correlates_by_fft(p, m))
    assert _correlates_by_fft(last + 1, m)
    rng = np.random.default_rng(60 + m)
    for p in sorted({last - 1, last, last + 1, 150, 300}):
        left = rng.standard_normal((m, p * m)) + 1j * rng.standard_normal((m, p * m))
        right = rng.standard_normal((p * m, m)) + 1j * rng.standard_normal((p * m, m))
        want = np.stack([left[:, d * m :] @ right[: (p - d) * m] for d in range(p)])
        got = _shifted_products(left, right)
        assert got.shape == (p, m, m)
        np.testing.assert_allclose(
            got, want, rtol=0, atol=1e-13 * np.abs(want).max(), err_msg=f"P={p}"
        )


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_block_levinson_lockstep_matches_one_system_calls(m):
    """Systems of mixed P, a tie among them, solved in one lockstep give
    each the bits of its own solve, in any order."""
    models = [
        stacked_model(np.random.default_rng(40 + 10 * m + i), p, m, m + 2)
        for i, p in enumerate([65, 1, 150, 2, 33, 65])
    ]
    systems = [(_covariance_lags(model, 1.3), model.signal_signatures) for model in models]
    alone = [_block_levinson([system])[0] for system in systems]
    for order in (range(6), [2, 4, 0, 5, 1, 3]):
        together = _block_levinson([systems[i] for i in order])
        for i, solution in zip(order, together):
            assert solution.shape == alone[i].shape
            assert np.array_equal(solution, alone[i]), (m, models[i].n_taps)


def test_block_levinson_lockstep_names_a_singular_member():
    """One singular system fails the whole lockstep with the error that
    ``lmmse_operator`` raises, whether its leading block or a later S is
    singular."""
    eye = np.eye(2, dtype=np.complex128)
    # R(0) = R(1) = I: the leading block is I, but C = [[I, I], [I, I]].
    singular_step = (np.stack([eye, eye, eye]), np.ones((4, 2), dtype=np.complex128))
    good = [stacked_model(np.random.default_rng(50 + p), p, 2, 4) for p in (200, 190)]
    systems = [(_covariance_lags(model, 1.0), model.signal_signatures) for model in good]
    with pytest.raises(np.linalg.LinAlgError):
        _block_levinson([systems[0], singular_step, systems[1]])
    zero = StackedModel(
        projected_taps=np.zeros((195, 2, 2), dtype=np.complex128),
        combiner=np.zeros((4, 2), dtype=np.complex128),
        noise_variance=1.0,
    )
    assert not _solves_by_lu(195, 2)
    with pytest.raises(np.linalg.LinAlgError, match="stacked covariance is singular"):
        _lmmse_operators([good[0], zero, good[1]], 1.0)


@pytest.mark.filterwarnings("ignore:strongest tap supports:RuntimeWarning")
def test_trials_bound_the_lockstep_memory(monkeypatch):
    """``_trials`` solves long windows in groups whose stacked buffers stay
    within ``_LOCKSTEP_BYTES``: over the long windows of 200 default drops,
    which would stack several budgets in one lockstep, its peak stays within
    one budget of a lone long drop's, and every rate is ``_single_trial``'s."""
    config = ScenarioConfig(seed=0)
    m = config.n_streams
    taps = {}
    for k in range(200):
        real = realize_channel(config, RngStream(config.seed, k).generator())
        channel = sample_channel(
            real, config.arrays(), config.pulse(), config.energy_threshold, oversampling=1
        )
        if not _solves_by_lu(channel.n_taps, m):
            taps[k] = channel.n_taps
    longest = max(taps, key=taps.get)
    assert 128 * len(taps) * taps[longest] * m * m > 4 * _LOCKSTEP_BYTES

    def peak(trials):
        tracemalloc.start()
        try:
            results = _trials(config, trials)
            return results, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    groups = []
    solve = link_module._lmmse_operators

    def recording(models, tx_power):
        groups.append(len(models))
        assert len(models) == 1 or _lockstep_bytes(models) <= _LOCKSTEP_BYTES
        return solve(models, tx_power)

    monkeypatch.setattr(link_module, "_lmmse_operators", recording)
    _, alone = peak([longest])
    results, together = peak(list(taps))
    assert sum(groups) == len(taps) + 1 and max(groups) >= 3, groups
    assert together < alone + _LOCKSTEP_BYTES, (together, alone)
    assert [r.rate for r in results] == [_single_trial(config, k).rate for k in taps]


# -- the tap plan behind a sampled channel ---------------------------------

PLAN_CONFIGS = {
    "defaults": ScenarioConfig(),
    "M8-50m": ScenarioConfig(n_streams=8, distance_m=50.0),
}


def _sampled_drops(config, n_drops):
    """Drops ``0 .. n_drops-1`` of ``config`` as ``_single_trial`` samples
    them, each with its taps-only twin."""
    for k in range(n_drops):
        real = realize_channel(config, RngStream(config.seed, k).generator())
        channel = sample_channel(real, config.arrays(), config.pulse(), config.energy_threshold)
        yield channel, SampledChannel(channel.taps, channel.sample_period, channel.tap_offset)


@pytest.mark.filterwarnings("ignore:strongest tap supports:RuntimeWarning")
@pytest.mark.parametrize("name", PLAN_CONFIGS)
def test_plan_channel_beamforms_and_projects_as_its_taps(name):
    """A sampled channel picks the strongest tap from its plan's row
    energies and renders that row alone, to the beamformers its rendered
    taps give bit for bit; its projected taps, taken from the steering
    vectors, agree with the rendered taps' within round-off.  Its taps are
    read-only: an edit to them would not reach the link."""
    config = PLAN_CONFIGS[name]
    for k, (channel, twin) in enumerate(_sampled_drops(config, 30)):
        assert not channel.taps.flags.writeable
        pair = design_beamformers(channel, config.n_streams)
        want = design_beamformers(twin, config.n_streams)
        assert pair.tap_index == want.tap_index, k
        for field_name in ("precoder", "combiner", "singular_values"):
            assert np.array_equal(getattr(pair, field_name), getattr(want, field_name)), k
        got = build_stacked_model(channel, pair, 1e-11).projected_taps
        ref = build_stacked_model(twin, want, 1e-11).projected_taps
        assert got.shape == ref.shape == (channel.n_taps, config.n_streams, config.n_streams)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), k


@pytest.mark.filterwarnings("ignore:strongest tap supports:RuntimeWarning")
@pytest.mark.parametrize("name", PLAN_CONFIGS)
def test_single_trial_renders_one_tap_per_drop(name, monkeypatch):
    """``eval-cdf`` renders only each drop's strongest tap; the window's
    shape is known without rendering, and the rendered taps have it."""
    rendered = []
    render = channel_module._render_taps

    def counting_render(plan, weights, out=None):
        rendered.append(len(plan.pulse) * int(np.prod(np.shape(weights)[:-1])))
        return render(plan, weights, out)

    monkeypatch.setattr(channel_module, "_render_taps", counting_render)
    config = PLAN_CONFIGS[name]
    for k in range(5):
        rendered.clear()
        result = _single_trial(config, k)
        assert rendered == [1], k
        assert result.n_taps >= 1
    real = realize_channel(config, RngStream(config.seed, 0).generator())
    rendered.clear()
    channel = sample_channel(real, config.arrays(), config.pulse(), config.energy_threshold)
    shape = channel.shape
    assert shape == (channel.n_taps, config.arrays().rx.n_elements,
                     config.arrays().tx.n_elements)
    assert channel.n_taps >= 1 and rendered == []
    assert channel.taps.shape == shape and rendered != []


@pytest.mark.filterwarnings("ignore:strongest tap supports:RuntimeWarning")
@pytest.mark.parametrize("name", PLAN_CONFIGS)
def test_public_calls_give_single_trial_rate_bit_for_bit(name):
    """The five public calls in ``_single_trial``'s order reproduce its rate
    and tap bit for bit, the contract the benchmark's traced pass checks."""
    config = PLAN_CONFIGS[name]
    for k, (channel, _) in enumerate(_sampled_drops(config, 4)):
        pair = design_beamformers(channel, config.n_streams)
        model = build_stacked_model(channel, pair, config.noise_variance())
        estimator = lmmse_operator(model, config.tx_power_w)
        rate = achievable_rate(model, estimator, config.tx_power_w)
        want = _single_trial(config, k)
        assert (rate, pair.tap_index) == (want.rate, want.selected_tap), k


# -- achievable rate -------------------------------------------------------


def scalar_model(g, noise_variance):
    return StackedModel(
        projected_taps=np.array([[[g]]], dtype=np.complex128),
        combiner=np.ones((1, 1), dtype=np.complex128),
        noise_variance=noise_variance,
    )


def test_scalar_single_tap_rate_is_shannon():
    # One tap, one stream, unit combiner: the LMMSE rate must equal
    # log2(1 + P |g|^2 / sigma^2) to within roundoff.
    g = 0.8 - 0.6j
    sigma2 = 0.05
    tx_power = 2.0
    model = scalar_model(g, sigma2)
    estimator = lmmse_operator(model, tx_power)
    rate = achievable_rate(model, estimator, tx_power)
    expected = np.log2(1.0 + tx_power * abs(g) ** 2 / sigma2)
    assert rate == pytest.approx(expected, rel=1e-12)


def test_rate_upper_bounded_by_isi_free_energy():
    # Scalar multi-tap channel: ISI-as-noise LMMSE can never beat the
    # matched-filter bound using the total tap energy without ISI.
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = int(rng.integers(2, 5))
        g = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2)
        sigma2 = float(rng.uniform(0.02, 0.5))
        tx_power = float(rng.uniform(0.5, 2.0))
        model = StackedModel(
            projected_taps=g.reshape(p, 1, 1),
            combiner=np.ones((1, 1), dtype=np.complex128),
            noise_variance=sigma2,
        )
        estimator = lmmse_operator(model, tx_power)
        rate = achievable_rate(model, estimator, tx_power)
        bound = np.log2(1.0 + tx_power * np.sum(np.abs(g) ** 2) / sigma2)
        assert 0.0 < rate <= bound + 1e-12


def test_lmmse_is_at_least_as_good_as_perturbed_estimators():
    rng = np.random.default_rng(12)
    for _ in range(5):
        model = random_stacked_model(rng, p_max=3, m_max=2)
        tx_power = 1.0
        best = lmmse_operator(model, tx_power)
        rate_best = achievable_rate(model, best, tx_power)
        for _ in range(3):
            noise = 0.1 * (
                rng.standard_normal(best.shape) + 1j * rng.standard_normal(best.shape)
            )
            rate_other = achievable_rate(model, best + noise, tx_power)
            assert rate_other <= rate_best + 1e-9


def test_rate_decreases_with_noise():
    rng = np.random.default_rng(13)
    model_lo = random_stacked_model(rng, noise_variance=0.01)
    model_hi = StackedModel(
        projected_taps=model_lo.projected_taps,
        combiner=model_lo.combiner,
        noise_variance=1.0,
    )
    r_lo = achievable_rate(model_lo, lmmse_operator(model_lo, 1.0), 1.0)
    r_hi = achievable_rate(model_hi, lmmse_operator(model_hi, 1.0), 1.0)
    assert r_hi < r_lo


# -- link configuration and trials -----------------------------------------


def test_link_config_from_scenario_uses_thermal_noise():
    config = ScenarioConfig()
    link = LinkConfig.from_scenario(config)
    assert link.noise_variance == pytest.approx(THERMAL_500MHZ_5DB, rel=1e-12)
    assert link.n_streams == 4
    assert link.tx_power == 1.0
    assert link.n_trials == 500
    # A read-only view: no link value can drift from the scenario.
    assert link.scenario is config
    with pytest.raises(AttributeError):
        link.n_streams = 50


def test_link_config_explicit_noise_override():
    config = ScenarioConfig(noise_variance_w=1e-9)
    link = LinkConfig.from_scenario(config)
    assert link.noise_variance == 1e-9


def test_link_config_validation():
    with pytest.raises(ValueError, match="n_streams"):
        run_cdf_experiment(ScenarioConfig(n_streams=50))


def test_single_trial_is_deterministic():
    config = ScenarioConfig(seed=3, distance_m=30.0, n_trials=4)
    a = _single_trial(config, 2)
    b = _single_trial(config, 2)
    assert a.rate == b.rate
    assert a.spectral_efficiency == b.spectral_efficiency
    assert a.trial_seed == 2
    assert a.n_taps >= 1
    assert 0 <= a.selected_tap < a.n_taps
    c = _single_trial(config, 3)
    assert c.rate != a.rate


def test_spectral_efficiency_normalization_modes():
    excess = ScenarioConfig(seed=1, se_normalization="excess-bandwidth")
    plain = ScenarioConfig(seed=1, se_normalization="none")
    r_excess = _single_trial(excess, 0)
    r_plain = _single_trial(plain, 0)
    assert r_excess.rate == r_plain.rate
    assert r_excess.spectral_efficiency == pytest.approx(
        r_excess.rate / 1.22, rel=1e-12
    )
    assert r_plain.spectral_efficiency == r_plain.rate


def test_cdf_experiment_shape_and_order():
    config = ScenarioConfig(seed=7, n_trials=8)
    result = run_cdf_experiment(config)
    assert result.spectral_efficiency.shape == (8,)
    assert np.all(np.diff(result.spectral_efficiency) >= 0)
    np.testing.assert_allclose(result.cdf, np.arange(1, 9) / 8.0)
    assert [r.trial_seed for r in result.trials] == list(range(8))
    assert np.all(result.spectral_efficiency >= 0)


@pytest.mark.parametrize("n_jobs", [0, -1, 1.5, "2", None])
def test_cdf_experiment_rejects_bad_job_count_by_name(n_jobs):
    with pytest.raises(ValueError, match="n_jobs must be a finite integer"):
        run_cdf_experiment(ScenarioConfig(n_trials=2), n_jobs=n_jobs)


def test_cdf_experiment_parallel_matches_serial():
    # 16 drops in chunks of 2: five block Levinson windows in four chunks,
    # two of them in one chunk's lockstep, and too many bytes for one
    # serial lockstep.
    config = ScenarioConfig(seed=7, n_trials=16)
    serial = run_cdf_experiment(config, n_jobs=1)
    levinson = [r.trial_seed for r in serial.trials if not _solves_by_lu(r.n_taps, 4)]
    chunks = [k // 2 for k in levinson]
    assert len(levinson) >= 3 and len(set(chunks)) >= 2 and len(set(chunks)) < len(chunks)
    parallel = run_cdf_experiment(config, n_jobs=2)
    np.testing.assert_array_equal(
        serial.spectral_efficiency, parallel.spectral_efficiency
    )
    assert parallel.trials == serial.trials
    for k, result in enumerate(serial.trials):
        assert result == _single_trial(config, k), k


class _SerialPool:
    """Stand-in for ``ProcessPoolExecutor`` that starts no process, records
    the worker count it was asked for and maps serially."""

    requested: list[int] = []

    def __init__(self, max_workers):
        _SerialPool.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize(
    "n_trials, n_jobs, requested", [(3, 64, [3]), (1, 8, [])], ids=["3-drops", "1-drop"]
)
def test_cdf_experiment_starts_no_more_workers_than_drops(
    monkeypatch, n_trials, n_jobs, requested
):
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    config = ScenarioConfig(seed=7, n_trials=n_trials)
    pooled = run_cdf_experiment(config, n_jobs=n_jobs)
    assert _SerialPool.requested == requested
    serial = run_cdf_experiment(config, n_jobs=1)
    np.testing.assert_array_equal(pooled.spectral_efficiency, serial.spectral_efficiency)
    assert pooled.trials == serial.trials
