"""The README's examples run as written: its Python block and every
``mmwchan`` command of its shell blocks, each in a fresh interpreter in an
empty directory.  The ``pip`` and ``pytest`` lines are not examples of the
package and are skipped."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mmwchan

_SRC = Path(mmwchan.__file__).resolve().parents[1]
_README = (_SRC.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", _README, re.M | re.S)


def _commands():
    """Every ``mmwchan`` line of the shell blocks, continuations joined."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("mmwchan ")]


EXAMPLES = {
    **{argv[1]: [sys.executable, "-m", "mmwchan.cli", *argv[1:]] for argv in _commands()},
    **{"library": [sys.executable, "-c", code] for code in _blocks("python")},
}


def test_readme_holds_the_examples():
    assert list(EXAMPLES) == ["generate-static", "generate-dynamic", "eval-cdf", "library"]


@pytest.mark.parametrize("name", EXAMPLES)
def test_readme_example_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    argv = EXAMPLES[name]
    subprocess.run(argv, cwd=tmp_path, env=env, check=True, timeout=300)
    for flag, value in zip(argv, argv[1:]):
        if flag in ("--output", "--trial-log"):
            assert (tmp_path / value).is_file(), value
