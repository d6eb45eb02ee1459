"""The workload's own process: times set-up, then serves drop requests.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It reads one JSON request per line on stdin and answers one JSON line on
stdout, so ``run.py`` sends the next request only after the previous one has
ended (a closed loop with one client).  Requests:

- ``{"op": "cli", "argv": [...]}`` runs ``mmwchan.cli.main`` untraced;
- ``{"op": "trace", "kind": "cdf"|"dynamic", ...}`` runs the same command
  through the layer functions, one span per call;
- ``{"op": "exit"}`` answers with the peak resident memory and exits.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import asdict  # noqa: E402

import mmwchan.cli as cli  # noqa: E402
import numpy as np  # noqa: E402
from mmwchan import (  # noqa: E402
    LinkConfig,
    LinkResult,
    RngStream,
    achievable_rate,
    build_stacked_model,
    design_beamformers,
    evolve_channel,
    lmmse_operator,
    realize_channel,
    sample_channel,
)
from mmwchan.config import parse_config  # noqa: E402
from mmwchan.io import (  # noqa: E402
    read_cdf_csv,
    read_channel,
    write_cdf_csv,
    write_dynamic_channel,
    write_realization_metadata,
    write_trial_log,
)

now = time.perf_counter


class Tracer:
    """Spans ``[drop, layer, start, end]`` and RuntimeWarnings by message,
    kept in memory until the request ends."""

    def __init__(self):
        self.spans = []
        self.warnings = {}

    def call(self, drop, layer, fn, *args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append([drop, layer, start, now()])
                for w in caught:
                    key = str(w.message)
                    self.warnings[key] = self.warnings.get(key, 0) + 1


def _n_paths(real) -> int:
    return real.total_rays + int(real.los.present)


def trace_eval_cdf(req, tracer: Tracer) -> dict:
    """``cli.cmd_eval_cdf`` with a serial ``run_cdf_experiment``, one span
    per layer call, in the order of ``link._single_trial``."""
    t_start = now()
    config = tracer.call(None, "config.parse", parse_config, None, req["overrides"])
    link = LinkConfig.from_scenario(config)
    link.validate()
    results, drops = [], []
    for k in range(link.n_trials):
        d_start = now()
        record = {"drop": k}
        try:
            rng = RngStream(config.seed, k).generator()
            real = tracer.call(k, "channel.realize", realize_channel, config, rng)
            channel = tracer.call(
                k, "channel.sample", sample_channel,
                real, config.arrays(), config.pulse(), config.energy_threshold,
                oversampling=1,
            )
            pair = tracer.call(k, "link.beamform", design_beamformers, channel, link.n_streams)
            model = tracer.call(
                k, "link.stack", build_stacked_model, channel, pair, link.noise_variance
            )
            estimator = tracer.call(k, "link.lmmse", lmmse_operator, model, link.tx_power)
            rate = tracer.call(
                k, "link.rate", achievable_rate, model, estimator, link.tx_power
            )
        except Exception as err:  # a drop that raises is a failed drop
            record["error"] = repr(err)
            drops.append(record)
            continue
        se = rate / (1.0 + config.rolloff) if config.se_normalization == "excess-bandwidth" else rate
        tracer.spans.append([k, "link.drop", d_start, now()])
        s = pair.singular_values
        record.update(
            se=se,
            paths=_n_paths(real),
            taps=channel.n_taps,
            stacked_dim=link.n_streams * channel.n_taps,
            rank_deficient=bool(
                s[0] == 0.0 or int(np.count_nonzero(s > 1e-12 * s[0])) < link.n_streams
            ),
        )
        drops.append(record)
        results.append(
            LinkResult(
                rate=rate,
                spectral_efficiency=se,
                trial_seed=k,
                los=real.los.present,
                n_clusters=real.n_clusters,
                n_taps=channel.n_taps,
                selected_tap=pair.tap_index,
            )
        )
    se_sorted = np.sort(np.array([r.spectral_efficiency for r in results]))
    cdf = np.arange(1, len(results) + 1) / link.n_trials
    io_start = now()
    write_cdf_csv(req["output"], se_sorted, cdf)
    run_info = {
        "command": "eval-cdf",
        "seed": config.seed,
        "n_trials": link.n_trials,
        "n_streams": link.n_streams,
        "tx_power_w": link.tx_power,
        "noise_variance_w": link.noise_variance,
        "config": asdict(config),
    }
    write_trial_log(req["trial_log"], run_info, results)
    tracer.spans.append([None, "io.write", io_start, now()])
    wall = now() - t_start
    tracer.call(None, "io.read", read_cdf_csv, req["output"])
    return {"wall_s": wall, "drops": drops}


def trace_generate_dynamic(req, tracer: Tracer) -> dict:
    """``cli.cmd_generate_dynamic`` with one span per layer call, then the
    snapshot-0 and round-trip checks outside the command's wall time."""
    drop = req["drop"]
    t_start = now()
    config = tracer.call(drop, "config.parse", parse_config, None, req["overrides"])
    rng = RngStream(config.seed, cli.REALIZATION_STREAM).generator()
    real = tracer.call(drop, "channel.realize", realize_channel, config, rng)
    evolution_rng = RngStream(config.seed, cli.EVOLUTION_STREAM).generator()
    channel = tracer.call(
        drop, "timevariant.evolve", evolve_channel,
        real, config.arrays(), config.pulse(), config.mobility(), evolution_rng,
        config.energy_threshold, config.oversampling,
    )
    evolved = tracer.spans[-1]
    io_start = now()
    write_dynamic_channel(req["output"], channel)
    run_info = {
        "command": "generate-dynamic",
        "seed": config.seed,
        "stream_ids": {
            "realization": cli.REALIZATION_STREAM,
            "evolution": cli.EVOLUTION_STREAM,
        },
        "config": asdict(config),
        "n_snapshots": channel.n_snapshots,
        "snapshot_period_s": channel.snapshot_period,
        "n_taps": channel.n_taps,
        "tap_offset": channel.tap_offset,
        "sample_period_s": channel.sample_period,
    }
    write_realization_metadata(req["metadata"], real, run_info)
    tracer.spans.append([drop, "io.write", io_start, now()])
    wall = now() - t_start

    static = tracer.call(
        drop, "channel.sample", sample_channel,
        real, config.arrays(), config.pulse(), config.energy_threshold, config.oversampling,
    )
    back = tracer.call(drop, "io.read", read_channel, req["output"])
    record = {
        "drop": drop,
        "paths": _n_paths(real),
        "taps": channel.n_taps,
        "snapshot_ms": (evolved[3] - evolved[2]) * 1e3 / channel.n_snapshots,
        "finite": bool(np.isfinite(channel.snapshots).all()),
        "snapshot0_equal": bool(
            static.tap_offset == channel.tap_offset
            and np.array_equal(static.taps, channel.snapshots[0])
        ),
        "roundtrip_equal": bool(
            back.snapshots.shape == channel.snapshots.shape
            and np.array_equal(back.snapshots, channel.snapshots)
            and back.tap_offset == channel.tap_offset
            and back.sample_period == channel.sample_period
            and back.snapshot_period == channel.snapshot_period
        ),
    }
    return {"wall_s": wall, "drops": [record]}


def run_cli(argv) -> dict:
    start = now()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception as err:  # reported as failed drops by run.py
        return {"wall_s": now() - start, "error": repr(err)}
    return {"wall_s": now() - start, "rc": rc}


def serve(setup_overrides: dict) -> None:
    """Finish set-up (``import mmwchan.cli`` at module load, then the
    workload's ``parse_config``, which validates) and answer requests."""
    parse_config(None, setup_overrides)
    setup_s = now() - _T0

    def reply(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    reply({"ready": True, "setup_s": setup_s, "mmwchan_file": cli.__file__})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "cli":
            reply(run_cli(req["argv"]))
        elif req["op"] == "trace":
            tracer = Tracer()
            run = trace_eval_cdf if req["kind"] == "cdf" else trace_generate_dynamic
            try:
                out = run(req, tracer)
            except Exception as err:  # reported as a failed drop by run.py
                out = {"wall_s": 0.0, "drops": [{"drop": req.get("drop"), "error": repr(err)}]}
            out.update(spans=tracer.spans, warnings=tracer.warnings)
            reply(out)
        elif req["op"] == "exit":
            usage = resource.getrusage(resource.RUSAGE_SELF)
            reply({"maxrss_kb": usage.ru_maxrss})
            return
        else:
            raise ValueError(f"unknown request {req['op']!r}")


if __name__ == "__main__":
    serve(json.loads(sys.argv[1]))
