"""Tests of the benchmark itself: tracing leaves outputs byte-identical, work
counts repeat exactly, emitted metrics match BENCHMARK.json, and a directory
without the program fails without printing a result.

    python3 -m pytest perfbench/test_perfbench.py -q    # a few minutes

Each run uses --seconds 1, which gives the minimum of two units (one of them
traced with --trace 1).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train_ema", "train_convlstm", "eval_convlstm")
EXACT_COUNTS = ("tensor.conv2d.mflop", "tensor.conv2d.mbytes", "tensor.tape_nodes",
                "training.adam_step.params", "metrics.auc_thresholds",
                "metrics.sauc_pool_points")


def bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = next(line for line in lines if line.startswith("record "))
    return json.loads(record[len("record "):]), json.loads(lines[-1])


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_neutral_and_counts_exact(workload):
    plain_record, plain = parsed(bench(workload, 0))
    traced = [parsed(bench(workload, 1)) for _ in range(2)]
    for record, result in [(plain_record, plain)] + traced:
        assert result["correct"] and result["failed"] == 0
        assert record["units_identical"]  # the traced unit matches the untraced one
        assert record["digest"] == plain_record["digest"]
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == declared("end_to_end")
    first, second = (result["metrics"] for _, result in traced)
    assert {k: v["unit"] for k, v in first.items()} == declared("per_layer")
    for name in EXACT_COUNTS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train_ema", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
