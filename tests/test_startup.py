"""Start-up cost: each command imports only the libraries it runs, none
loads scipy, and only a pooled ``eval-cdf`` loads ``concurrent.futures``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

import mmwchan
from mmwchan import SPEED_OF_LIGHT, config, thermal_noise_variance

_SRC = str(Path(mmwchan.__file__).resolve().parents[1])

# Runs in a fresh interpreter: the generate commands, then a 4-drop eval-cdf,
# printing which of the watched modules were loaded after each stage.
_COMMANDS = """
import json, sys
from pathlib import Path

out = Path(sys.argv[1])
watched = lambda: sorted(
    m for m in sys.modules
    if m == "scipy" or m.startswith("scipy.") or m.startswith("concurrent.futures")
)
loaded = {}

import mmwchan
from mmwchan import cli
from mmwchan.config import parse_config

parse_config(None, {})
cli.main(["generate-static", "--output", str(out / "static.mmwc")])
cli.main([
    "generate-dynamic", "--set", "v_rx_mps=20", "--set", "n_snapshots=8",
    "--output", str(out / "dynamic.mmwc"),
])
loaded["generate"] = watched()
cli.main(["eval-cdf", "--set", "n_trials=4", "--output", str(out / "cdf.csv")])
loaded["eval-cdf"] = watched()
print(json.dumps(loaded))
"""


# The same for eval-cdf with a process pool: the parent, whose modules the
# forked workers inherit, loads no scipy module either.
_POOL_COMMAND = """
import json, sys

from mmwchan import cli

cli.main(["eval-cdf", "--set", "n_trials=4", "--jobs", "2", "--output", sys.argv[1]])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _run_fresh(script, *args):
    """Last stdout line of ``script`` run in a fresh interpreter, as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_generate_commands_load_no_scipy_and_no_process_pool(tmp_path):
    loaded = _run_fresh(_COMMANDS, str(tmp_path))
    assert loaded["generate"] == []
    assert loaded["eval-cdf"] == []


def test_pooled_eval_cdf_loads_no_scipy(tmp_path):
    assert _run_fresh(_POOL_COMMAND, str(tmp_path / "cdf.csv")) == []


def test_physical_constants_equal_scipy_exactly():
    assert SPEED_OF_LIGHT == scipy.constants.c
    assert config._BOLTZMANN == scipy.constants.Boltzmann


def test_thermal_noise_variance_is_unchanged_bit_for_bit():
    assert thermal_noise_variance(500e6).hex() == "0x1.bd7ba2837c36bp-38"
