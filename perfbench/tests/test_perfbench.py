"""Self-test of the benchmark: tiny runs of every workload.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = bench("--workload", workload, "--seed", "2", "--limit", "2")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["attempted"] == 2 and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in res["metrics"].values())
    shown = "\n".join(proc.stdout.splitlines()[:-1])
    assert f"{workload} error_rate = 0 ratio" in shown
    assert (f"{workload} op_p90_ms = " in shown) == (workload == "cli-roundtrip")

# Per workload: the operations a traced self-test run takes, and the layer
# metrics README.md maps to that workload, which must then read nonzero (a
# wrapper that patches nothing would leave them at 0).
TRACED = {
    "reduce-replay": (3, (
        "reduction.reduce.calls", "reduction.replay.calls", "reduction.nodes",
        "connection.gauge.calls", "leading.sibuya_normalize.calls",
        "leading.eigen_block_split.calls", "leading.jordan_chevalley.self_s",
        "sl2.jacobson_morozov.self_s", "series.mul.calls",
        "series.inverse.calls", "series.init.calls", "matrices.mul.calls",
        "matrices.inverse.calls", "matrices.matrix_exp.calls",
        "linalg.rref.calls.depth1", "field.mul.calls.depth1",
        "field.inverse.calls.depth1")),
    "derham-irregular": (2, (
        "cohomology.derham_dims.calls", "cohomology.flat_section_dim.calls",
        "cohomology.windows_tried", "cohomology.lattice_cols",
        "linalg.rref.calls.depth0", "linalg.rref.calls.cols_le256",
        "field.mul.calls.depth0", "field.inverse.calls.depth0")),
    # the five samples take 15 operations and a traced run measures a third
    # of the set, so 54 reaches the first small certified input
    "cli-roundtrip": (54, (
        "serialize.bytes_in", "serialize.bytes_out", "serialize.decode.self_s",
        "serialize.encode.self_s", "cli.main.self_s",
        "cohomology.truncated_complex_dims.calls", "cohomology.rs_spectrum.calls",
        "cohomology.window_yield", "leading.rational_roots.calls")),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    limit, nonzero = TRACED[workload]
    proc = bench("--workload", workload, "--seed", "2", "--limit", str(limit),
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = result_of(proc)
    assert res["correct"] is True and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert [name for name in nonzero if not res["metrics"][name]["value"]] == []
    assert res["metrics"]["trace.coverage"]["value"] >= 0.95
    spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed2.jsonl.gz"
    assert spans.is_file()


def copy_benchmark(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest / "perfbench"


def test_wrong_golden_is_a_failed_operation(tmp_path):
    copy = copy_benchmark(tmp_path)
    goldens = json.loads((copy / "goldens.json").read_text())
    record = goldens["workloads"]["derham-irregular"][0]
    record["h"] = [record["h"][0] + 1, record["h"][1] + 1]
    (copy / "goldens.json").write_text(json.dumps(goldens))
    # the copy runs against this checkout's program
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "derham-irregular",
         "--seed", "1", "--limit", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    res = result_of(proc)
    assert res["correct"] is False
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert "differs from golden" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_calibration_removes_ticks_and_scales_by_their_speed():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import calibrate

    cal = calibrate.Calibrator()
    nominal = calibrate.NOMINAL_S
    # five ticks at half the reference speed, then five at the reference speed
    cal.starts = [0.1 * k for k in range(10)]
    cal.lengths = [2 * nominal] * 5 + [nominal] * 5
    cal._factors = calibrate.factors(cal.lengths)
    raw, calibrated = cal.measure(0.0, 0.25)  # ticks 0, 1 and 2 inside
    assert raw == pytest.approx(0.25 - 6 * nominal)
    assert calibrated == pytest.approx(raw * 0.5)
    raw, calibrated = cal.measure(0.71, 0.72)  # no tick inside; nearest is 7
    assert (raw, calibrated) == (pytest.approx(0.01), pytest.approx(0.01))
    # one slow tick among fast ones is dropped by the median
    cal.lengths[7] = 10 * nominal
    cal._factors = calibrate.factors(cal.lengths)
    assert cal.measure(0.71, 0.72)[1] == pytest.approx(0.01)
