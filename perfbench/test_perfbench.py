"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--size", "tiny", "--seconds", "0.1",
                           *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_schema(workload):
    assert workload in {w["name"] for w in BENCHMARK["workloads"]}
    result = result_of(bench("--workload", workload, "--seed", "3", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_schema(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--trace", "1"))
    assert result["correct"]
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_layer_counts_see_the_workload():
    """Counts come from the traced calls: the sweep reaches Lanczos, the
    determinants workload reaches det_matching."""
    sweep = result_of(bench("--workload", "figure1_sweep", "--seed", "1", "--trace", "1"))
    m = {k: v["value"] for k, v in sweep["metrics"].items()}
    assert m["spectra.lanczos_solves"] > 0 and m["spectra.op_applies"] > m["spectra.lanczos_solves"]
    assert m["spectra.dense_solves"] > 0 and m["matrices.calls"] > 0
    det = result_of(bench("--workload", "determinants", "--seed", "1", "--trace", "1"))
    m = {k: v["value"] for k, v in det["metrics"].items()}
    assert m["determinants.matching_calls"] > 0 and m["spectra.lanczos_solves"] == 0


@pytest.mark.parametrize("workload,corrupt", [
    ("figure1_sweep", lambda ref: ref["figure1_norms"]["tiny"].update(
        {"300": ref["figure1_norms"]["tiny"]["300"] + 1e-6})),
    ("determinants", lambda ref: ref["det_T"].update({"6": ref["det_T"]["6"] * 1.001})),
    ("verify_suite", lambda ref: ref["verify_rows"]["tiny"]["3"].pop()),
])
def test_wrong_reference_fails_operations(tmp_path, workload, corrupt):
    ref = json.loads((HERE / "reference.json").read_text())
    corrupt(ref)
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    result = result_of(bench("--workload", workload, "--seed", "1", "--trace", "0",
                             "--reference", str(path)))
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "figure1_sweep", "--seed", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
