import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_recurrences_end_to_end(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    work = tmp_path / "work"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_recurrences.py"),
         "--work", str(work), "--videos", "2", "--frames", "4", "--size", "16",
         "--epochs", "1", "--n-splits", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "per-video NSS, EMA minus ConvLSTM" in proc.stdout
    lines = (work / "alpha_sweep.txt").read_text().splitlines()
    assert lines[0].split() == ["alpha", "AUC-J", "s-AUC", "NSS", "CC", "SIM"]
    assert [line.split()[0] for line in lines[1:]] == [
        "0.050", "0.100", "0.200", "0.300", "1.000"]


def test_digests_repeat_and_parse(tmp_path):
    """Two runs of the digest matrix at a tiny size write the same file,
    and every field parses. The hashes are not compared with the committed
    DIGESTS.json: another numpy or BLAS build may round a GEMM
    differently."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    written = []
    for k in range(2):
        out = tmp_path / f"digests{k}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "digests.py"), "--out",
             str(out), "--videos", "2", "--frames", "4", "--epochs", "1"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]
    doc = json.loads(written[0])
    assert sorted(doc) == ["commands", "environment", "sha256"]
    environment = doc["environment"]
    assert sorted(environment) == ["blas", "blas_threads", "numpy", "python"]
    assert all(re.fullmatch(r"\d+\.\d+\.\d+.*", environment[k])
               for k in ("python", "numpy"))
    assert environment["blas"].strip() and environment["blas_threads"] == 1
    commands = [line.split() for line in doc["commands"]]
    assert [c[0] for c in commands] == (
        ["synth"] + ["train"] * 9 + ["eval", "sweep-alpha"])
    expected = ["data/config.json", "eval_convlstm/config.json",
                "eval_convlstm/report.csv", "eval_convlstm/report.txt",
                "sweep_ema/sweep_alpha.txt"]
    for command in commands[1:10]:
        expected += [f"{command[2]}/{name}" for name in (
            "checkpoint_epoch01.salr", "checkpoint_final.salr",
            "config.json", "loss_log.txt")]
    assert sorted(doc["sha256"]) == sorted(expected)
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in doc["sha256"].values())
