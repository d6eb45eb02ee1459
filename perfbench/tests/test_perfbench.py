"""Self-test of the benchmark harness at a tiny drop count.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
from mmwchan.cli import main as mmwchan_main  # noqa: E402
from mmwchan.io import read_channel  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 987_001


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def tiny_runs(request):
    workload = request.param
    drops = 1 if run.WORKLOADS[workload]["command"] == "generate-dynamic" else 2
    return workload, {
        trace: run.run_benchmark(
            workload, SEED, seconds=0, trace=bool(trace), drops=drops, sets=1, setup_probes=0
        )
        for trace in (0, 1)
    }


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(tiny_runs, trace, kind):
    workload, runs = tiny_runs
    result, state = runs[trace]
    assert result["correct"], state.check.failures
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, workload
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    json.dumps(result)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(19) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(200) == 95.0
    assert run.tail_percentile(10_000) == 99.9


@pytest.fixture()
def cdf_csv(tmp_path):
    out = tmp_path / "cdf.csv"
    mmwchan_main(["eval-cdf", "--set", "n_trials=3", "--set", "seed=5", "--output", str(out)])
    return out


def test_clean_csv_passes(cdf_csv):
    found = checks.Checks()
    assert checks.cdf_bad_rows(cdf_csv, 3, found) == 0
    assert found.ok


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda rows: rows[:1] + ["nan,0.5"] + rows[2:],
        lambda rows: rows[:1] + ["-1.0,0.5"] + rows[2:],
        lambda rows: rows[:-1],
        lambda rows: ["se,cdf"] + rows[1:],
    ],
    ids=["nan", "negative", "missing-row", "bad-header"],
)
def test_corrupted_csv_fails_by_name(cdf_csv, corrupt):
    rows = cdf_csv.read_text().splitlines()
    cdf_csv.write_text("\n".join(corrupt(rows)) + "\n")
    found = checks.Checks()
    assert checks.cdf_bad_rows(cdf_csv, 3, found) >= 1
    assert checks.CSV_READBACK in found.failures


@pytest.fixture()
def tensor(tmp_path):
    overrides = {"seed": "5", "v_rx_mps": "20", "n_snapshots": "4"}
    argv = ["generate-dynamic"]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    out, meta = tmp_path / "seq.mmwc", tmp_path / "seq.json"
    mmwchan_main(argv + ["--output", str(out), "--metadata", str(meta)])
    return out, meta, overrides


def test_clean_tensor_passes(tensor):
    found = checks.Checks()
    assert checks.dynamic_file_ok(*tensor, found)
    assert found.ok


def test_truncated_tensor_fails_roundtrip(tensor):
    out = tensor[0]
    out.write_bytes(out.read_bytes()[:-16])
    found = checks.Checks()
    assert not checks.dynamic_file_ok(*tensor, found)
    assert checks.TENSOR_ROUNDTRIP in found.failures


def test_changed_snapshot0_fails(tensor):
    out = tensor[0]
    blob = bytearray(out.read_bytes())
    header = len(blob) - read_channel(out).snapshots.nbytes
    blob[header : header + 16] = struct.pack("<dd", 1.5, -2.5)  # first tap of snapshot 0
    out.write_bytes(bytes(blob))
    found = checks.Checks()
    checks.dynamic_file_ok(*tensor, found)
    assert checks.SNAPSHOT0_STATIC in found.failures


def test_non_finite_tensor_is_a_failed_drop(tensor):
    out = tensor[0]
    blob = bytearray(out.read_bytes())
    blob[-8:] = bytes.fromhex("000000000000f87f")  # NaN imaginary part, last tap
    out.write_bytes(bytes(blob))
    found = checks.Checks()
    assert not checks.dynamic_file_ok(*tensor, found)


def test_traced_values_must_match_bitwise():
    found = checks.Checks()
    assert checks.same_floats("x", [1.0, 2.0], [1.0, 2.0], found)
    assert not checks.same_floats("x", [1.0, 2.0], [1.0, 2.0 + 2**-51], found)
    assert not checks.same_floats("y", [0.0], [-0.0], found)
    assert set(found.failures) == {"x", "y"}


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cdf-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
