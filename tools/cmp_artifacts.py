"""Compare the CLI artifacts of two source trees byte for byte.

Usage: python tools/cmp_artifacts.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories holding the ``mmwchan`` package,
for example of a ``git archive`` of the parent commit and of the working
tree.  For seeds 0, 1, 7, 42 and 152 (a 173-path drop, whose tap rows are
the widest products of the band), each tree runs, every command in a fresh
interpreter with ``PYTHONPATH`` set to its ``src``:

- ``generate-static``, plain and at ``oversampling=2``;
- ``generate-dynamic`` at ``v_rx_mps=20`` with 1, 2 and 64 snapshots, and
  with 9 at ``oversampling=2``;
- ``generate-dynamic`` with 16 snapshots three more ways: aging with no
  Doppler (``gain_correlation=0.9`` at zero speed), a moving transmitter
  (``v_tx_mps=3``), and frozen at the defaults (zero speed, where the
  coefficient defaults to 1);
- ``generate-dynamic`` with 4096 snapshots at ``v_rx_mps=20`` on 1x1 arrays
  (``n_streams=1``), where a chunk's weights, not its taps, set its length;
- a 300-drop ``eval-cdf`` with its trial log, at ``--jobs 1`` and ``2``;
- a serial 100-drop ``eval-cdf`` with its trial log at ``n_streams=8``,
  ``distance_m=50``, where 47-55 of each seed's 100 drops have windows long
  enough for the block Levinson solve (52-71 of the 300 at the defaults);
- the same at ``n_streams=2``, ``distance_m=100``, where M = 2's switch
  from LU to block Levinson falls inside the drops' window lengths (14-21
  of each seed's 100 drops take block Levinson).

Every artifact (tensors, sidecars, CSVs, trial logs) is compared with its
counterpart from the other tree, and each tree's ``--jobs 2`` CSV and log
with its serial ones, 160 pairs in all.  Prints each differing pair, each
tree's ``mmwchan`` size (the lines of its ``*.py`` files) and an "N of M
differ" line; exits 1 if any pair differs.  A differing pair of
trial logs also gets a summary: how many trials' ``rate_bits_per_use``
moved by more than 1e-9 relative and the shortest ``n_taps`` among them, the
largest move in bits/use, and how many ``selected_tap`` values changed.  So does a differing pair of
sidecars: whether their ``run`` objects are equal, and which
``realization`` keys, at the top level, in ``los`` and in the clusters,
were added, removed or changed.
"""

from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 1, 7, 42, 152)

_MOVING = ["--set", "v_rx_mps=20"]
_SIXTEEN = ["--set", "n_snapshots=16"]

#: Command line of each run of the matrix, without seed and outputs.
RUNS = {
    "static": ["generate-static"],
    "static-os2": ["generate-static", "--set", "oversampling=2"],
    **{
        f"dynamic-{n}": ["generate-dynamic", *_MOVING, "--set", f"n_snapshots={n}"]
        for n in (1, 2, 64)
    },
    "dynamic-9-os2": [
        "generate-dynamic", *_MOVING, "--set", "n_snapshots=9", "--set", "oversampling=2"
    ],
    "dynamic-16-aging": ["generate-dynamic", "--set", "gain_correlation=0.9", *_SIXTEEN],
    "dynamic-16-vtx3": ["generate-dynamic", "--set", "v_tx_mps=3", *_SIXTEEN],
    "dynamic-16-frozen": ["generate-dynamic", *_SIXTEEN],
    "dynamic-4096-1x1": [
        "generate-dynamic", *_MOVING, "--set", "n_snapshots=4096", "--set", "n_streams=1",
        *(arg for key in ("tx", "rx") for side in ("horizontal", "vertical")
          for arg in ("--set", f"{key}_{side}=1")),
    ],
    **{
        f"cdf-jobs{jobs}": ["eval-cdf", "--set", "n_trials=300", "--jobs", str(jobs)]
        for jobs in (1, 2)
    },
    "cdf-m8-50m": [
        "eval-cdf", "--set", "n_streams=8", "--set", "distance_m=50", "--set", "n_trials=100"
    ],
    "cdf-m2-100m": [
        "eval-cdf", "--set", "n_streams=2", "--set", "distance_m=100", "--set", "n_trials=100"
    ],
}


def _run(src: Path, out: Path, seed: int, name: str) -> list[Path]:
    """Run one command of the matrix in a fresh interpreter on ``src``;
    return the files it wrote, its main output first."""
    argv = [sys.executable, "-m", "mmwchan.cli", *RUNS[name], "--set", f"seed={seed}"]
    stem = out / f"{name}-s{seed}"
    if argv[3] == "eval-cdf":
        files = [stem.with_suffix(".csv"), stem.with_suffix(".log.json")]
        argv += ["--output", str(files[0]), "--trial-log", str(files[1])]
    else:
        files = [stem.with_suffix(".mmwc"), stem.with_suffix(".json")]
        argv += ["--output", str(files[0])]
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{' '.join(argv[3:])} failed on {src}:\n{proc.stderr}")
    return files


#: Relative rate move above which a trial counts as moved.
RATE_RTOL = 1e-9


def _describe_logs(a: Path, b: Path) -> str:
    """How the trials of two ``eval-cdf`` trial logs differ."""
    old, new = (json.loads(path.read_text())["trials"] for path in (a, b))
    if len(old) != len(new):
        return f"{len(old)} vs {len(new)} trials"
    moves = [abs(y["rate_bits_per_use"] - x["rate_bits_per_use"]) for x, y in zip(old, new)]
    moved = [
        x["n_taps"] for move, x in zip(moves, old) if move > RATE_RTOL * abs(x["rate_bits_per_use"])
    ]
    taps = sum(x["selected_tap"] != y["selected_tap"] for x, y in zip(old, new))
    shortest = f", shortest n_taps {min(moved)}" if moved else ""
    return (f"{len(moved)} of {len(old)} rates moved > {RATE_RTOL:g} relative{shortest}, "
            f"largest {max(moves, default=0.0):.6g} bits/use; {taps} selected_tap changed")


def _describe_sidecars(a: Path, b: Path) -> str:
    """How two ``generate-*`` sidecars differ: their ``run`` objects, and the
    ``realization`` keys added, removed or changed (a cluster key counts
    once, named ``clusters[].key``, whichever clusters it differs in)."""
    old, new = (json.loads(path.read_text()) for path in (a, b))
    real_old, real_new = old["realization"], new["realization"]
    objects = [("", real_old, real_new), ("los.", real_old["los"], real_new["los"])]
    objects += [("clusters[].", x, y) for x, y in zip(real_old["clusters"], real_new["clusters"])]
    moves = {"added": set(), "removed": set(), "changed": set()}
    for prefix, x, y in objects:
        for key in x.keys() | y.keys():
            if not prefix and key in ("los", "clusters"):
                continue  # their keys are compared as objects of their own
            if key not in x:
                moves["added"].add(prefix + key)
            elif key not in y:
                moves["removed"].add(prefix + key)
            elif x[key] != y[key]:
                moves["changed"].add(prefix + key)
    if len(real_old["clusters"]) != len(real_new["clusters"]):
        moves["changed"].add("clusters (count)")
    run = "run equal" if old["run"] == new["run"] else "run differs"
    parts = [f"{kind} {', '.join(sorted(keys))}" for kind, keys in moves.items() if keys]
    return f"{run}; realization keys " + ("; ".join(parts) if parts else "equal")


def _package_lines(src: Path) -> int:
    """Lines of the ``*.py`` files of ``src``'s ``mmwchan`` package, as
    ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "mmwchan").glob("*.py"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    trees = [Path(a) for a in argv]
    for src in trees:
        if not (src / "mmwchan" / "__init__.py").is_file():
            print(f"{src}: no mmwchan package here", file=sys.stderr)
            return 2
    pairs: list[tuple[Path, Path]] = []
    with tempfile.TemporaryDirectory(prefix="cmp_artifacts-") as tmp:
        outs = [Path(tmp) / "old", Path(tmp) / "new"]
        written = []
        for src, out in zip(trees, outs):
            out.mkdir()
            written.append(
                {(seed, name): _run(src, out, seed, name) for seed in SEEDS for name in RUNS}
            )
        old, new = written
        for key in old:
            pairs += zip(old[key], new[key])
        for files in written:
            for seed in SEEDS:
                pairs += zip(files[seed, "cdf-jobs1"], files[seed, "cdf-jobs2"])
        differ = [(a, b) for a, b in pairs if not filecmp.cmp(a, b, shallow=False)]
        for a, b in differ:
            line = f"differ: {a.relative_to(tmp)} {b.relative_to(tmp)}"
            if a.name.endswith(".log.json"):
                line += f" ({_describe_logs(a, b)})"
            elif a.suffix == ".json":
                line += f" ({_describe_sidecars(a, b)})"
            print(line)
    for label, src in zip(("old", "new"), trees):
        print(f"{label} {src}/mmwchan: {_package_lines(src)} lines")
    print(f"{len(differ)} of {len(pairs)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
