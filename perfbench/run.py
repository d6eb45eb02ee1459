#!/usr/bin/env python3
"""Benchmark of mmwchan: drops per second end to end, time per layer traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cdf-default --seed 1 --seconds 45 --trace 0

Every workload is a closed loop with one client: the workload's own process
(``worker.py``) starts the next command only when the previous one has
ended.  The run is split in rounds; round ``r`` runs drop set ``r % sets``,
whose mmwchan ``seed=`` values are derived from ``--seed``, and rounds
repeat until ``--seconds`` have passed.  ``drops_per_s`` counts each
command at its fastest repeat.

``--trace 0`` runs the commands through ``mmwchan.cli.main`` and reports
the end-to-end metrics.  ``--trace 1`` runs every round twice, untraced
through ``cli.main`` and traced through the layer functions in the order of
``link._single_trial`` (or ``cli.cmd_generate_dynamic``) with a span around
each call, and reports the per-layer metrics.  Count metrics are taken on
round 0 only, so they do not depend on how many rounds fit in the time.

Correctness checks run in the same command and fail the run by name
(``checks.py``).  The last line of standard output is the JSON result; the
full record, with provenance and (traced) spans, is written to
``.perfbench_out/results/``, never into an mmwchan artifact.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# ``drops`` per command and ``sets`` of distinct drop sets per run.  A run
# cycles through the sets, so in 45 s each command runs two to four times
# and counts at its fastest repeat.  The traced run of cdf-default
# also runs every round with ``--jobs 2`` (``pool_jobs``) for
# link.pool_efficiency and the byte-identity check.
WORKLOADS = {
    # Defaults: UMi street canyon, 30 m, M=4.  Render and link split a drop.
    "cdf-default": {"command": "eval-cdf", "overrides": {}, "drops": 100, "sets": 12, "pool_jobs": 2},
    # One command per drop; evolve_channel and the 22 MB tensor write
    # dominate and link never runs.
    "dynamic-64": {
        "command": "generate-dynamic",
        "overrides": {"v_rx_mps": "20", "n_snapshots": "64"},
        "drops": 6,
        "sets": 10,
    },
}

# Workloads left out, with the reason every run prints.
DROPPED = {
    "cdf-default-jobs2": "dropped as unsteady: --jobs 2 ran 10-42 drops/s within one run "
    "with the thread environment as found; its pool path is measured by "
    "link.pool_efficiency and jobs_identical in the traced cdf-default run",
    "cdf-link-heavy": "dropped to run the others longer: on a 2-core VM its 30 s runs "
    "spread 0.15-0.20 of the median and cdf-default's up to 0.33; the link layer is "
    "still traced on cdf-default",
}

END_TO_END_UNITS = {"drops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
TIMED_LAYERS = (
    "channel.realize",
    "channel.sample",
    "link.beamform",
    "link.stack",
    "link.lmmse",
    "link.rate",
    "link.drop",
    "timevariant.evolve",
)
COUNTS = ("channel.paths", "channel.taps", "link.stacked_dim")
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

now = time.perf_counter


def mmwchan_seed(seed: int, *key: int) -> int:
    """The ``seed=`` mmwchan sees for round/drop ``key`` of a run."""
    digest = hashlib.blake2b(repr((seed, *key)).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "little") >> 1


def tail_percentile(n: int) -> float:
    """Highest of 99.9/99/95/90/75/50 that leaves at least 10 of ``n``
    samples beyond it (50 when none does)."""
    for tenths in (999, 990, 950, 900, 750):
        if n * (1000 - tenths) >= 10_000:
            return tenths / 10
    return 50.0


def percentile(values, p: float) -> float:
    return float(np.percentile(values, p)) if len(values) else 0.0


class Worker:
    """One fresh process of the workload, answering one request at a time."""

    def __init__(self, setup_overrides: dict):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(setup_overrides)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )
        try:
            hello = self._read()
            if not Path(hello["mmwchan_file"]).resolve().is_relative_to(SRC):
                raise RuntimeError(f"worker imported mmwchan from {hello['mmwchan_file']}")
        except BaseException:
            self.__exit__(None, None, None)
            raise
        self.setup_s = hello["setup_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> int:
        """Stop the worker; return its peak resident memory in KiB."""
        maxrss = self.request(op="exit")["maxrss_kb"]
        self.proc.wait(timeout=60)
        return maxrss

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.__exit__(*exc)  # closes the pipes and waits


class Run:
    """State of one benchmark run: drops attempted and failed, check
    failures, traced spans and per-drop records, report lines."""

    def __init__(self, workload: str, seed: int, drops: int | None, sets: int | None):
        import checks

        self.checks = checks
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.drops = drops or self.spec["drops"]
        self.sets = sets or self.spec["sets"]
        self.check = checks.Checks()
        self.attempted = 0
        self.failed = 0
        self.work = OUT / "work" / f"{workload}-{os.getpid()}"
        self.spans: list = []
        self.records: list = []
        self.lines: list[str] = []
        self.command_rates: list[list[float]] = []

    def overrides(self, seed: int) -> dict:
        extra = {"n_trials": str(self.drops)} if self.spec["command"] == "eval-cdf" else {}
        return {**self.spec["overrides"], **extra, "seed": str(seed)}

    def argv(self, seed: int, out: Path, jobs: int) -> list[str]:
        argv = [self.spec["command"]]
        for key, value in self.overrides(seed).items():
            argv += ["--set", f"{key}={value}"]
        if self.spec["command"] == "eval-cdf":
            argv += ["--output", str(out / "cdf.csv"), "--trial-log", str(out / "trials.json")]
            argv += ["--jobs", str(jobs)]
        else:
            argv += ["--output", str(out / "seq.mmwc"), "--metadata", str(out / "seq.json")]
        return argv

    def drop_seeds(self, r: int) -> list[int]:
        """Round ``r`` runs drop set ``r % sets``."""
        k = r % self.sets
        if self.spec["command"] == "eval-cdf":
            return [mmwchan_seed(self.seed, k)]
        return [mmwchan_seed(self.seed, k, i) for i in range(self.drops)]

    def out_dir(self, r: int, tag: str, i: int = 0) -> Path:
        path = self.work / f"r{r}" / tag / str(i)
        path.mkdir(parents=True, exist_ok=True)
        return path

    # -- untraced pass -----------------------------------------------------

    def untraced_round(self, worker: Worker, r: int, tag: str = "untraced", jobs: int = 1) -> list:
        """Run round ``r`` through ``cli.main``; check it; return the wall
        time of each command."""
        walls = []
        for i, seed in enumerate(self.drop_seeds(r)):
            out = self.out_dir(r, tag, i)
            reply = worker.request(op="cli", argv=self.argv(seed, out, jobs))
            walls.append(reply["wall_s"])
            n = self.drops if self.spec["command"] == "eval-cdf" else 1
            self.attempted += n
            if "error" in reply:
                self.failed += n
                name = self.checks.CSV_READBACK if n > 1 else self.checks.TENSOR_ROUNDTRIP
                self.check.expect(name, False, f"round {r}: cli raised {reply['error']}")
            elif self.spec["command"] == "eval-cdf":
                self.failed += self.checks.cdf_bad_rows(out / "cdf.csv", n, self.check)
            elif not self.checks.dynamic_file_ok(
                out / "seq.mmwc", out / "seq.json", self.overrides(seed), self.check
            ):
                self.failed += 1
        return walls

    # -- traced pass -------------------------------------------------------

    def traced_round(self, worker: Worker, r: int, tag: str = "traced"):
        """Run round ``r`` through the layer functions and compare it with
        the untraced outputs of the same round.  Returns the command wall
        time, the per-drop records and the RuntimeWarnings by message."""
        wall, records, warnings = 0.0, [], {}
        for i, seed in enumerate(self.drop_seeds(r)):
            out = self.out_dir(r, tag, i)
            ref = self.work / f"r{r}" / "untraced" / str(i)
            if self.spec["command"] == "eval-cdf":
                reply = worker.request(
                    op="trace", kind="cdf", overrides=self.overrides(seed),
                    output=str(out / "cdf.csv"), trial_log=str(out / "trials.json"),
                )
                traced_se = [d.get("se", float("nan")) for d in reply["drops"]]
                self.checks.same_floats(
                    self.checks.TRACE_MATCHES_UNTRACED, traced_se,
                    self.checks.trial_log_se(ref / "trials.json"), self.check,
                )
                written = [out / "cdf.csv", out / "trials.json"]
            else:
                reply = worker.request(
                    op="trace", kind="dynamic", overrides=self.overrides(seed), drop=i,
                    output=str(out / "seq.mmwc"), metadata=str(out / "seq.json"),
                )
                written = [out / "seq.mmwc", out / "seq.json"]
                for name in ("seq.mmwc", "seq.json"):
                    self.checks.same_bytes(
                        self.checks.TRACE_MATCHES_UNTRACED, out / name, ref / name, self.check
                    )
                d = reply["drops"][0]
                self.check.expect(self.checks.SNAPSHOT0_STATIC, d.get("snapshot0_equal", False),
                                  f"round {r} drop {i}: traced snapshot 0")
                self.check.expect(self.checks.TENSOR_ROUNDTRIP, d.get("roundtrip_equal", False),
                                  f"round {r} drop {i}: traced read_channel")
                if not d.get("finite", True):
                    d["error"] = "non-finite taps"
            wall += reply["wall_s"]
            n_bytes = sum(p.stat().st_size for p in written if p.is_file())
            for d in reply["drops"]:
                d["bytes"] = n_bytes / len(reply["drops"])
                bad = "error" in d or ("se" in d and not (d["se"] >= 0.0))
                self.attempted += 1
                self.failed += bool(bad)
                records.append(d)
            for drop, layer, start, end in reply["spans"]:
                self.spans.append([f"{tag}:{r}:{i}" if drop is None else f"{tag}:{r}:{i}:{drop}",
                                   layer, start, end])
            for msg, count in reply["warnings"].items():
                warnings[msg] = warnings.get(msg, 0) + count
        self.records.extend(records)
        return wall, records, warnings

    def count_metrics(self, records: list, warnings: dict) -> dict:
        """Exact counts over one traced pass of a fixed drop set."""
        ok = [d for d in records if "error" not in d]
        n = len(ok)
        p = tail_percentile(n)
        out = {}
        for name in COUNTS:
            key = name.split(".")[1]
            values = [d[key] for d in ok if key in d]
            out[f"{name}_p50"] = percentile(values, 50)
            out[f"{name}_tail"] = percentile(values, p)
        dims = [d["stacked_dim"] for d in ok if "stacked_dim" in d]
        out["link.chol_gflop_computed"] = sum(m**3 / 3.0 for m in dims) / 1e9
        out["link.rank_deficient_frac"] = (
            sum(d["rank_deficient"] for d in ok if "rank_deficient" in d) / len(dims) if dims else 0.0
        )
        out["link.warnings"] = float(sum(warnings.values()))
        out["io.mb_per_drop"] = sum(d["bytes"] for d in records) / len(records) / 1e6
        return out


def provenance(seed: int) -> dict:
    import scipy

    git = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git = proc.stdout.strip() or f"unavailable ({proc.stderr.strip()})"
    source = hashlib.sha256()
    for path in sorted((SRC / "mmwchan").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "git_commit": git,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": deps.get("blas", {}),
        "numpy_lapack": deps.get("lapack", {}),
        "thread_env": {k: os.environ.get(k, "unset") for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def run_untraced(run: Run, seconds: float, setup_probes: int) -> dict:
    setup = []
    for _ in range(setup_probes):
        with Worker(run.overrides(0)) as probe:
            setup.append(probe.setup_s)
            probe.close()
    walls: dict[tuple, list[float]] = {}  # (set, command) -> wall per repeat
    with Worker(run.overrides(0)) as worker:
        setup.append(worker.setup_s)
        start, r = now(), 0
        while r < run.sets or now() - start < seconds:
            for i, wall in enumerate(run.untraced_round(worker, r)):
                walls.setdefault((r % run.sets, i), []).append(wall)
            shutil.rmtree(run.work / f"r{r}")
            r += 1
        maxrss_kb = worker.close()
    # Each command counts at its fastest repeat: other tenants of the
    # machine only ever slow a command down.
    per_command = run.drops if run.spec["command"] == "eval-cdf" else 1
    best = [min(w) for w in walls.values()]
    rate = len(best) * per_command / sum(best)
    all_rounds = r * run.drops / sum(map(sum, walls.values()))
    run.lines.append(
        f"drops_per_s over {run.sets} drop sets of {run.drops} drops, each command at its "
        f"fastest of {min(map(len, walls.values()))}-{max(map(len, walls.values()))} "
        f"repeats: {rate:.2f} (all {r} rounds: {all_rounds:.2f})"
    )
    run.command_rates = [[per_command / w for w in ws] for ws in walls.values()]
    run.lines.append(f"setup_s samples ({len(setup)} fresh processes): "
                     + ", ".join(f"{s:.4f}" for s in setup))
    return {
        "drops_per_s": rate,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": maxrss_kb / 1024.0,
    }


def run_traced(run: Run, seconds: float) -> dict:
    untraced_wall = traced_wall = pooled_wall = 0.0
    jobs = run.spec.get("pool_jobs")
    with Worker(run.overrides(0)) as worker:
        start, r = now(), 0
        while r == 0 or now() - start < seconds:
            untraced_wall += sum(run.untraced_round(worker, r))
            if jobs:
                pooled_wall += sum(run.untraced_round(worker, r, tag="pooled", jobs=jobs))
                for name in ("cdf.csv", "trials.json"):
                    run.checks.same_bytes(
                        run.checks.JOBS_IDENTICAL,
                        run.work / f"r{r}" / "untraced" / "0" / name,
                        run.work / f"r{r}" / "pooled" / "0" / name,
                        run.check,
                    )
            t_wall, records, warnings = run.traced_round(worker, r)
            traced_wall += t_wall
            if r == 0:
                first, first_warnings = records, warnings
            else:
                shutil.rmtree(run.work / f"r{r}")
            r += 1
        rounds = r
        # Second traced pass over round 0: the count metrics must repeat.
        _, again, again_warnings = run.traced_round(worker, 0, tag="repeat")
        worker.close()

    counts = run.count_metrics(first, first_warnings)
    repeat = run.count_metrics(again, again_warnings)
    base = f"base {len(first)} drops of round 0"
    for name, value in counts.items():
        ratio = repeat[name] / value if value else float(repeat[name] == value)
        run.lines.append(f"repeat {name}: ratio {ratio:.6f} ({repeat[name]!r} / {value!r}, {base})")
    run.check.expect(run.checks.COUNTS_REPEAT, counts == repeat and first_warnings == again_warnings,
                     "count metrics differ between two traced passes of round 0")
    for msg, count in sorted(first_warnings.items()):
        run.lines.append(f"link.warnings: {count} x {msg!r} ({base})")

    by_layer: dict[str, list[float]] = {}
    for _, layer, t0, t1 in run.spans:
        by_layer.setdefault(layer, []).append((t1 - t0) * 1e3)
    metrics = dict(counts)
    for layer in TIMED_LAYERS:
        values = by_layer.get(layer, [])
        p = tail_percentile(len(values))
        metrics[f"{layer}_ms_p50"] = percentile(values, 50)
        metrics[f"{layer}_ms_tail"] = percentile(values, p)
        run.lines.append(
            f"{layer}: {len(values)} calls, tail is p{p:g}"
            + ("" if values else " (not run on this workload, reported as 0)")
        )
    snapshot_ms = [d["snapshot_ms"] for d in run.records if "snapshot_ms" in d]
    metrics["timevariant.snapshot_ms_p50"] = percentile(snapshot_ms, 50)
    metrics["io.write_ms_p50"] = percentile(by_layer.get("io.write", []), 50)
    metrics["io.read_ms_p50"] = percentile(by_layer.get("io.read", []), 50)
    metrics["trace_overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    run.lines.append(
        f"trace_overhead_frac over {rounds} rounds: traced {traced_wall:.3f} s, "
        f"untraced {untraced_wall:.3f} s"
    )
    if jobs:
        # drops_per_s(--jobs N) / (N * drops_per_s(serial)) on the same drops.
        metrics["link.pool_efficiency"] = untraced_wall / (jobs * pooled_wall)
        run.lines.append(
            f"link.pool_efficiency over {rounds} rounds: --jobs {jobs} {pooled_wall:.3f} s, "
            f"serial {untraced_wall:.3f} s for the same drops"
        )
    else:
        metrics["link.pool_efficiency"] = 0.0
        run.lines.append("link.pool_efficiency: not run on this workload, reported as 0")
    return metrics


PER_LAYER_UNITS = {
    **{f"{layer}_ms_{s}": "ms" for layer in TIMED_LAYERS for s in ("p50", "tail")},
    **{f"{name}_{s}": "count" for name in COUNTS for s in ("p50", "tail")},
    "link.chol_gflop_computed": "GFLOP",
    "link.rank_deficient_frac": "fraction",
    "link.warnings": "count",
    "timevariant.snapshot_ms_p50": "ms",
    "io.write_ms_p50": "ms",
    "io.read_ms_p50": "ms",
    "io.mb_per_drop": "MB",
    "link.pool_efficiency": "ratio",
    "trace_overhead_frac": "fraction",
}


def run_benchmark(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    drops: int | None = None,
    sets: int | None = None,
    setup_probes: int = 6,
) -> tuple[dict, Run]:
    """One run; returns the result object and the run's state."""
    prov = provenance(seed)
    run = Run(workload, seed, drops, sets)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            values, units = run_traced(run, seconds), PER_LAYER_UNITS
        else:
            values, units = run_untraced(run, seconds, setup_probes), END_TO_END_UNITS
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": run.check.ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "drops_per_round": run.drops,
        "provenance": prov,
        "check_failures": run.check.failures,
        "failed_drop_frac": run.failed / run.attempted,
        "notes": run.lines,
        "command_drops_per_s": run.command_rates,
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (results / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["drop", "layer", "start_s", "end_s"], "spans": run.spans}) + "\n"
        )
    run.lines.insert(0, f"provenance: {json.dumps(prov)}")
    run.lines += [f"workload {name} {why}" for name, why in DROPPED.items()]
    run.lines.append(
        f"failed_drop_frac: {run.failed}/{run.attempted} = {run.failed / run.attempted:.6f}"
    )
    for name, detail in run.check.failures.items():
        run.lines.append(f"CHECK FAILED {name}: {detail}")
    return result, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted({**WORKLOADS, **DROPPED}))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.workload in DROPPED:
        print(f"perfbench: {args.workload} {DROPPED[args.workload]}", file=sys.stderr)
        return 2
    if not (SRC / "mmwchan" / "__init__.py").is_file():
        print(f"perfbench: no mmwchan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, run = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run.lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
