"""Banded tap rendering against the per-ray oracle, and its bitwise contracts.

The library sorts the paths by delay and renders each tap as one product of
steering matrices over the paths whose truncated pulse covers it;
``render_oracle`` adds one outer product per ray onto the grid.  The sums run
in a different order, so taps agree to a relative tolerance fixed from
float64 round-off over ~100 terms, while the selected window must agree
exactly; the two-pointer window scan must pick the oracle's window on
arbitrary energies too, and the row energies it is given, computed from the
path Gram before any render, must match the rendered rows' energies.  The
bitwise contracts (snapshot 0 equals the static tensor, the static limit is
frozen, a realization read back from its metadata re-samples identically)
are checked in the same configurations, and reversing a drop's clusters
must not change its taps, since the render sees the paths in delay order
only.  The band itself is checked on arbitrary delays, any window of rows
under any set of weights must render as within the full grid, the moving
snapshots must not depend on how many snapshot chunks render them, and the
tensor files must not depend on the BLAS thread count or the usable cores.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mmwchan
import render_oracle as oracle
from mmwchan import (
    MobilitySpec,
    PulseSpec,
    ScenarioConfig,
    evolve_channel,
    parse_config,
    realize_channel,
    sample_channel,
    timevariant,
)
from mmwchan.arrays import ArrayPair, PlanarArray, steering_vector
from mmwchan.channel import (
    ChannelRealization,
    ClusterRealization,
    LosComponent,
    _lay_paths,
    _render_taps,
    _row_energies,
    _select_window,
)
from mmwchan.cli import REALIZATION_STREAM
from mmwchan.geometry import SPEED_OF_LIGHT, LinkGeometry, RayAngles
from mmwchan.io import read_realization_metadata, write_realization_metadata
from mmwchan.sampling import RngStream

#: Tap tolerance, relative to the drop's largest tap entry.
RTOL = 1e-12

CONFIGS = {
    "defaults": ScenarioConfig(),
    "50m": ScenarioConfig(distance_m=50.0),
    "oversampling2": ScenarioConfig(oversampling=2),
    "M8-10m": ScenarioConfig(n_streams=8, distance_m=10.0),
}

#: 1 x 1 arrays, where a drop's paths outnumber its taps' entries.
ONE_BY_ONE = ScenarioConfig(
    rx_horizontal=1, rx_vertical=1, tx_horizontal=1, tx_vertical=1, n_streams=1
)


def _drop(config, seed):
    config = dataclasses.replace(config, seed=seed)
    return config, realize_channel(config, RngStream(seed, 0).generator())


def _sample(config, real, sampler=sample_channel):
    return sampler(
        real, config.arrays(), config.pulse(), config.energy_threshold, config.oversampling
    )


def _evolve(config, real, mob, seed, evolver=evolve_channel):
    return evolver(
        real, config.arrays(), config.pulse(), mob, RngStream(seed, 1).generator(),
        config.energy_threshold, config.oversampling,
    )


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("name", CONFIGS)
def test_sample_channel_matches_per_ray_oracle(name):
    failures = []
    worst = 0.0
    for seed in range(200):
        config, real = _drop(CONFIGS[name], seed)
        got = _sample(config, real)
        want = _sample(config, real, oracle.sample_channel)
        if (got.tap_offset, got.n_taps) != (want.tap_offset, want.n_taps):
            failures.append(f"seed {seed}: window {got.tap_offset}+{got.n_taps} "
                            f"vs {want.tap_offset}+{want.n_taps}")
            continue
        assert got.sample_period == want.sample_period
        worst = max(worst, _relative_error(got.taps, want.taps))
    assert not failures, failures
    assert worst <= RTOL


@pytest.mark.parametrize("snapshot_period", [None, 1e-6])
@pytest.mark.parametrize("name", CONFIGS)
def test_evolve_channel_matches_per_ray_oracle(name, snapshot_period):
    # 64 snapshots at 20 m/s; the 1 us spacing decorrelates the gains
    # (coefficient ~0.74), the default symbol-period spacing barely does.
    for seed in range(3):
        config, real = _drop(CONFIGS[name], seed)
        config = dataclasses.replace(
            config, v_rx_mps=20.0, n_snapshots=64, snapshot_period_s=snapshot_period
        )
        mob = config.mobility()
        got = _evolve(config, real, mob, seed)
        want = _evolve(config, real, mob, seed, oracle.evolve_channel)
        assert got.tap_offset == want.tap_offset
        assert got.snapshots.shape == want.snapshots.shape
        assert _relative_error(got.snapshots, want.snapshots) <= RTOL


@pytest.mark.parametrize("name", [*CONFIGS, "1x1"])
def test_snapshot_zero_is_static_bitwise_on_moving_drops(name):
    mob = MobilitySpec(v_rx=20.0, v_tx=3.0, snapshot_period=1e-6, n_snapshots=3)
    for seed in range(50):
        config, real = _drop(CONFIGS.get(name, ONE_BY_ONE), seed)
        static = _sample(config, real)
        moving = _evolve(config, real, mob, seed)
        assert moving.tap_offset == static.tap_offset, seed
        assert np.array_equal(moving.snapshots[0], static.taps), seed


@pytest.mark.parametrize("name", [*CONFIGS, "1x1"])
def test_frozen_limit_is_static_bitwise(name):
    mob = MobilitySpec(
        v_rx=0.0, v_tx=0.0, snapshot_period=1e-6, n_snapshots=5, gain_correlation=1.0
    )
    for seed in range(50):
        config, real = _drop(CONFIGS.get(name, ONE_BY_ONE), seed)
        static = _sample(config, real)
        frozen = _evolve(config, real, mob, seed)
        assert frozen.tap_offset == static.tap_offset, seed
        for k in range(mob.n_snapshots):
            assert np.array_equal(frozen.snapshots[k], static.taps), (seed, k)


@pytest.mark.parametrize("name", CONFIGS)
def test_metadata_round_trip_resamples_bitwise(name, tmp_path):
    path = tmp_path / "drop.json"
    for seed in range(50):
        config, real = _drop(CONFIGS[name], seed)
        write_realization_metadata(path, real, {"seed": seed})
        _, back = read_realization_metadata(path)
        original = _sample(config, real)
        resampled = _sample(config, back)
        assert resampled.tap_offset == original.tap_offset, seed
        assert np.array_equal(resampled.taps, original.taps), seed


def test_cluster_order_does_not_reach_the_render():
    """Reversing the clusters reorders the realization's paths, but the
    render sees them only in delay order, so the static taps and their
    window are unchanged bit for bit."""
    for seed in range(100):
        config, real = _drop(CONFIGS["defaults"], seed)
        want = _sample(config, real)
        got = _sample(config, dataclasses.replace(real, clusters=real.clusters[::-1]))
        assert got.tap_offset == want.tap_offset, seed
        assert np.array_equal(got.taps, want.taps), seed


# Few distinct values make exact zeros and tied window sums common.
tap_energies = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 2.0]), st.floats(0.0, 1e6)),
    min_size=1,
    max_size=40,
)


@settings(deadline=None, max_examples=300)
@given(
    energies=st.one_of(tap_energies, st.integers(1, 40).map(lambda n: [0.0] * n)),
    threshold=st.one_of(
        st.sampled_from([1e-4, 0.25, 0.5]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)
def test_window_scan_matches_width_search(energies, threshold):
    grid = np.sqrt(np.array(energies, dtype=complex))[:, None, None]
    energy = np.einsum("prt,prt->p", grid, grid.conj()).real
    assert _select_window(energy, threshold) == oracle.select_window(grid, threshold)


@pytest.mark.parametrize("name", [*CONFIGS, "1x1"])
def test_gram_row_energies_match_rendered_rows_and_their_window(name):
    """The row energies the window is chosen from, taken as Hermitian forms
    in the path Gram before any render, equal the rendered rows' energies
    within round-off of the total, and pick the full-grid render's window.
    Seeds 82 and 152 give default drops of 157 and 173 paths, whose Gram and
    quadratic forms are large enough for OpenBLAS to thread them."""
    base = CONFIGS.get(name, ONE_BY_ONE)
    for seed in [*range(50), *((82, 152) if name == "defaults" else ())]:
        config, real = _drop(base, seed)
        plan = _lay_paths(real, config.arrays(), config.pulse(), config.oversampling)
        full = _render_taps(plan, plan.weights)
        rendered = np.einsum("prt,prt->p", full, full.conj()).real
        energy = _row_energies(plan, plan.weights)
        assert np.all(energy >= 0.0), seed
        assert np.max(np.abs(energy - rendered)) <= 1e-12 * rendered.sum(), seed
        for threshold in (config.energy_threshold, 0.1):
            want = oracle.select_window(full, threshold)
            assert _select_window(energy, threshold) == want, (seed, threshold)


# -- the band ----------------------------------------------------------------

SYMBOL_PERIOD = 2.0**-31


#: Small arrays (3 receive, 4 transmit elements) for the synthetic drops.
SMALL_ARRAYS = ArrayPair(tx=PlanarArray(2, 2), rx=PlanarArray(3, 1))


def _realization(delays, rng, los=False):
    """One cluster of rays at ``delays`` relative to a direct path at delay
    0 (present when ``los``), with random directions, attenuations and
    unit-modulus gains."""
    n = len(delays)
    delays = np.asarray(delays, dtype=float)
    gain = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    aod_az, aod_el, aoa_az, aoa_el = rng.uniform(-np.pi / 2, np.pi / 2, (4, n))
    cluster = ClusterRealization(
        distance=1.0, mean_angles=RayAngles(0.0, 0.0, 0.0, 0.0),
        aod_azimuth=aod_az, aod_elevation=aod_el, aoa_azimuth=aoa_az, aoa_elevation=aoa_el,
        gains=gain / np.abs(gain), shadow_db=np.zeros(n),
        attenuation_db=rng.uniform(-6.0, 6.0, n),
        path_lengths=delays * SPEED_OF_LIGHT, delays=delays,
    )
    direct = LosComponent(
        present=los, angles=RayAngles(*rng.uniform(-np.pi / 2, np.pi / 2, 4)),
        path_length=0.0, delay=0.0, attenuation_db=rng.uniform(-6.0, 6.0), shadow_db=0.0,
        phase=rng.uniform(0.0, 2.0 * np.pi),
    )
    geometry = LinkGeometry(1.0, 1.0, 1.0)
    return ChannelRealization("umi-street-canyon", 73e9, geometry, [cluster], direct)


# Delays in symbol periods: repeated values make ties, and the spread lets
# gaps exceed the truncated support (2 * 8 + 1 symbols) and leave rows bare.
symbol_delays = st.lists(
    st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0, 17.0, 40.0]), st.floats(0.0, 60.0)),
    min_size=1,
    max_size=30,
)


@settings(deadline=None, max_examples=300)
@given(
    delays=symbol_delays,
    los=st.booleans(),
    half_length=st.integers(1, 8),
    oversampling=st.integers(1, 3),
)
def test_band_holds_exactly_the_paths_covering_each_row(delays, los, half_length, oversampling):
    tau = np.array(delays) * SYMBOL_PERIOD
    spec = PulseSpec(SYMBOL_PERIOD, truncation_half_length=half_length)
    real = _realization(tau, np.random.default_rng(0), los)
    plan = _lay_paths(real, SMALL_ARRAYS, spec, oversampling)

    # Every path in draw order (the direct path last, at zero delay); the
    # plan holds them in stable delay order, ties keeping draw order.
    ray, direct = real.clusters[0], real.los
    n_rx, n_tx = SMALL_ARRAYS.rx.n_elements, SMALL_ARRAYS.tx.n_elements
    scale = np.sqrt(n_rx * n_tx / len(tau)) * 10.0 ** (ray.attenuation_db / 20.0)
    gain = ray.gains
    names = [f.name for f in dataclasses.fields(RayAngles)]
    angles = [getattr(ray, name) for name in names]
    if los:
        tau = np.append(tau, 0.0)
        scale = np.append(scale, np.sqrt(n_rx * n_tx) * 10.0 ** (direct.attenuation_db / 20.0))
        gain = np.append(gain, np.exp(1j * direct.phase))
        angles = [np.append(a, getattr(direct.angles, name)) for a, name in zip(angles, names)]
    order = sorted(range(len(tau)), key=lambda p: (tau[p], p))
    assert plan.los == (order.index(len(tau) - 1) if los else None)
    assert np.array_equal(plan.static_scale, scale[order])
    assert np.array_equal(plan.base_gain, gain[order])
    assert np.array_equal(plan.weights, plan.static_scale * plan.base_gain)
    ang = RayAngles(*(a[order] for a in angles))
    for name in names:
        assert np.array_equal(getattr(plan.angles, name), getattr(ang, name)), name
    a_r = steering_vector(SMALL_ARRAYS.rx, ang.aoa_azimuth, ang.aoa_elevation)
    a_t = steering_vector(SMALL_ARRAYS.tx, ang.aod_azimuth, ang.aod_elevation)
    assert np.array_equal(plan.a_r, a_r.T)
    assert np.array_equal(plan.a_t, a_t.conj())
    # Each path's support, straight from the definition, in draw order.
    dt = SYMBOL_PERIOD / oversampling
    starts = np.ceil((tau - half_length * SYMBOL_PERIOD) / dt).astype(int)
    stops = np.floor((tau + half_length * SYMBOL_PERIOD) / dt).astype(int)
    assert plan.tap_offset == starts.min()
    assert plan.pulse.shape == (stops.max() - starts.min() + 1, len(tau))
    for i in range(plan.pulse.shape[0]):
        n = plan.tap_offset + i
        covering = [q for q, p in enumerate(order) if starts[p] <= n <= stops[p]]
        assert covering == list(range(plan.lo[i], plan.hi[i])), i
        assert set(np.flatnonzero(plan.pulse[i])) <= set(covering), i


def _gapped_drop(rng):
    """Paths in two groups far enough apart to leave uncovered rows, with
    tied delays and the direct path last."""
    symbols = [3.0, 3.0, 1.5, 40.25, 41.0, 40.25]
    return _realization(np.array(symbols) * SYMBOL_PERIOD, rng, los=True), PulseSpec(SYMBOL_PERIOD)


@pytest.mark.parametrize("name", [*CONFIGS, "gapped"])
def test_any_window_and_weight_subset_renders_as_in_full_grid(name):
    rng = np.random.default_rng(11)
    for seed in range(20):
        if name == "gapped":
            real, spec = _gapped_drop(rng)
            arrays, oversampling = SMALL_ARRAYS, 1 + seed % 2
        else:
            config, real = _drop(CONFIGS[name], seed)
            arrays, spec, oversampling = config.arrays(), config.pulse(), config.oversampling
        plan = _lay_paths(real, arrays, spec, oversampling)
        n_paths = len(plan.weights)
        weights = rng.standard_normal((5, n_paths)) + 1j * rng.standard_normal((5, n_paths))
        n_rows = len(plan.pulse)
        full = _render_taps(plan, weights)
        bare = plan.lo == plan.hi
        if name == "gapped":
            assert bare.any()
        assert not full[:, bare].any()

        start = int(rng.integers(n_rows))
        windows = [(start, start + 1), (0, n_rows), (start, int(rng.integers(start, n_rows)) + 1)]
        if bare.any():
            first_bare = int(np.flatnonzero(bare)[0])
            windows.append((first_bare, first_bare + 1))
        subsets = [[2], [0, 3, 4], rng.permutation(5)[:3]]
        for a, b in windows:
            for sub in subsets:
                got = _render_taps(plan.rows(a, b), weights[sub])
                assert np.array_equal(got, full[sub, a:b]), (seed, a, b, sub)
            got = _render_taps(plan.rows(a, b), weights[1])
            assert np.array_equal(got, full[1, a:b]), (seed, a, b)


@pytest.mark.parametrize("name", CONFIGS)
def test_render_runs_one_small_product_per_covered_tap(name, monkeypatch):
    """Every product the render hands to BLAS is one tap's (N_R x K) @
    (K x N_T) with K <= paths, one per covered tap of the window (and
    snapshot), which is chosen before anything is rendered: a render that
    folds taps or snapshots into one product fails here on any machine,
    while the thread test below can only show what the BLAS it runs on does."""
    config, real = _drop(CONFIGS[name], 3)
    config = dataclasses.replace(config, v_rx_mps=20.0, n_snapshots=8)
    arrays = config.arrays()
    n_r, n_t = arrays.rx.n_elements, arrays.tx.n_elements
    plan = _lay_paths(real, arrays, config.pulse(), config.oversampling)
    n_paths = len(plan.weights)
    covered = plan.lo < plan.hi

    products = []
    matmul = np.matmul

    def counting_matmul(a, b, *args, **kwargs):
        assert a.shape[-2] == n_r and b.shape[1:] == (n_t,) and b.ndim == 2
        assert 1 <= a.shape[-1] == b.shape[0] <= n_paths
        products.append(int(np.prod(a.shape[:-2])))
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting_matmul)
    static = _sample(config, real)
    static.taps  # rendered on first access
    start = static.tap_offset - plan.tap_offset
    in_window = covered[start : start + static.n_taps].sum()
    assert sum(products) == in_window

    products.clear()
    _evolve(config, real, config.mobility(), 3)
    assert sum(products) == config.n_snapshots * in_window


def _stream(config, real, mob, seed):
    """The chunks ``generate-dynamic`` writes, copied out of their buffer."""
    stream = timevariant.SnapshotStream(
        real, config.arrays(), config.pulse(), mob, RngStream(seed, 1).generator(),
        config.energy_threshold, config.oversampling,
    )
    return [chunk.copy() for chunk in stream.chunks()]


@pytest.mark.parametrize("n_snapshots", [2, 3, 8, 64])
def test_moving_snapshots_do_not_depend_on_block_count(n_snapshots, monkeypatch):
    """Any chunking of the snapshots renders the bits of ``evolve_channel``
    in one chunk.  A chunk's taps, or eight times its weights, set its
    length: the taps at oversampling 2 and 20 x 30 arrays, the weights of
    the drop's paths at 1 x 1 arrays."""
    for base, weights_cap in ((CONFIGS["oversampling2"], False), (ONE_BY_ONE, True)):
        config, real = _drop(base, 5)
        mob = MobilitySpec(v_rx=20.0, v_tx=3.0, snapshot_period=1e-6, n_snapshots=n_snapshots)
        monkeypatch.setattr(timevariant, "CHUNK_BYTES", 1 << 40)
        reference = _evolve(config, real, mob, 5).snapshots
        plan = _lay_paths(real, config.arrays(), config.pulse(), config.oversampling)
        weight_bytes = 8 * 16 * len(plan.weights)
        assert (weight_bytes > reference[0].nbytes) == weights_cap
        # one snapshot per chunk, a chunk that divides neither N nor N - 1,
        # and one chunk larger than the whole tensor
        for per_chunk in (1, 5, n_snapshots + 1):
            chunk_bytes = per_chunk * max(reference[0].nbytes, weight_bytes)
            monkeypatch.setattr(timevariant, "CHUNK_BYTES", chunk_bytes)
            chunks = _stream(config, real, mob, 5)
            assert [len(c) for c in chunks[:-1]] == [per_chunk] * (len(chunks) - 1)
            assert np.array_equal(np.concatenate(chunks), reference), per_chunk


# Runs in a fresh interpreter: the BLAS thread count is fixed at load.
_GENERATE = """
import sys
from mmwchan.cli import main
out = sys.argv[1]
for seed in range(3):
    main(["generate-static", "--set", f"seed={seed}", "--output", f"{out}/s{seed}.mmwc"])
    main(["generate-static", "--set", f"seed={seed}", "--set", "oversampling=2",
          "--output", f"{out}/o{seed}.mmwc"])
    main(["generate-dynamic", "--set", f"seed={seed}", "--set", "v_rx_mps=20",
          "--set", "n_snapshots=32", "--output", f"{out}/d{seed}.mmwc"])
"""


# Prepended to _GENERATE: the child may run on one core only.
_ONE_CORE = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
"""


def test_tensor_bytes_do_not_depend_on_blas_threads(tmp_path):
    """Holds only while no tap row is covered by more than the ~109 paths
    the README states (at 20 x 30 arrays, where OpenBLAS may start to
    thread a row's product), so the drops are first checked to stay below
    that; seed 152, with 148 paths on a row, is left out on purpose."""
    for seed in range(3):
        for oversampling in (1, 2):
            config = parse_config(None, {"seed": str(seed), "oversampling": str(oversampling)})
            real = realize_channel(config, RngStream(seed, REALIZATION_STREAM).generator())
            plan = _lay_paths(real, config.arrays(), config.pulse(), oversampling)
            assert np.max(plan.hi - plan.lo) <= 109, (seed, oversampling)

    src = str(Path(mmwchan.__file__).resolve().parents[1])
    base = {
        k: v for k, v in os.environ.items()
        if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    }
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    children = {f"threads-{t}": (t, "") for t in (None, "1", "2")}
    if hasattr(os, "sched_setaffinity"):
        children["one-core"] = (None, _ONE_CORE)
    digests = {}
    for name, (threads, prelude) in children.items():
        env = dict(base, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
        out = tmp_path / name
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", prelude + _GENERATE, str(out)],
            env=env, check=True, timeout=300,
        )
        digests[name] = {
            f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())
        }
    reference = digests["threads-None"]
    assert len(reference) == 18  # 9 tensors, each with its sidecar
    for name, digest in digests.items():
        assert digest == reference, name
