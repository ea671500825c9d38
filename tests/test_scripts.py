import os
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
