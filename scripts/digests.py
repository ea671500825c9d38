"""Byte-identity digests of the CLI's outputs over a fixed matrix.

Runs, through `salrec.cli.main`: `synth`; `train` under nine recurrence
configurations; an `eval` of the `convlstm` checkpoint; and a
`sweep-alpha` of the `ema` checkpoint. Writes one JSON file holding the
sha256 of every checkpoint, `loss_log.txt`, `config.json`, `report.csv`,
`report.txt` and the sweep table, with the Python, numpy and BLAS
versions that produced them:

    PYTHONPATH=src python scripts/digests.py --out DIGESTS.json

A change that keeps the outputs byte-identical regenerates the file with
an empty diff; one that changes the numerics commits the new file, whose
diff names every artefact that moved. Another numpy or BLAS build may
round a GEMM differently, so compare files from one environment. Every
command runs inside a temporary directory on relative paths, so the paths
that eval's `config.json` records do not depend on where that is.
"""

import os

# one BLAS thread, as perfbench runs, set before numpy is imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from salrec import cli

# run directory -> the `train` flags that differ between runs
RUNS = {
    "ema": ["--recurrence", "ema"],
    "ema-alpha-1": ["--recurrence", "ema", "--alpha", "1.0"],
    "ema-encoder1-decoder2-dropout": [
        "--recurrence", "ema", "--ema-at", "encoder1,decoder2", "--dropout"],
    "ema-decoder1": ["--recurrence", "ema", "--ema-at", "decoder1"],
    "ema-trainable": ["--recurrence", "ema-trainable"],
    "ema-residual-output-dropout-augment": [
        "--recurrence", "ema-residual", "--ema-at", "output", "--dropout",
        "--augment"],
    "ema-residual-encoder1-decoder1-dropout": [
        "--recurrence", "ema-residual", "--ema-at", "encoder1,decoder1",
        "--dropout"],
    "convlstm": ["--recurrence", "convlstm"],
    "none": ["--recurrence", "none"],
}
# the files hashed in every directory the commands write
HASHED = ("*.salr", "loss_log.txt", "config.json", "report.csv",
          "report.txt", "sweep_alpha.txt")


def sh(*argv) -> None:
    """`salrec` with argv, its stdout kept back unless it fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        print(out.getvalue(), end="")
        sys.exit(f"salrec {' '.join(map(str, argv))} exited {code}")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1}


def run_matrix(args) -> list:
    """Every command of the matrix, from the current directory; returns the
    commands run, each as one line."""
    commands = [["synth", "data", "--videos", args.videos, "--frames",
                 args.frames, "--size", 16, "--seed", 4]]
    common = ["--epochs", args.epochs, "--clip-length", 5, "--stages", 2]
    commands += [["train", "data", f"train_{name}", *flags, *common]
                 for name, flags in RUNS.items()]
    commands += [
        ["eval", "data", "eval_convlstm", "--checkpoint",
         "train_convlstm/checkpoint_final.salr"],
        ["sweep-alpha", "data", "train_ema/checkpoint_final.salr",
         "--out", "sweep_ema/sweep_alpha.txt"]]
    Path("sweep_ema").mkdir()
    for argv in commands:
        sh(*argv)
    return [" ".join(map(str, argv)) for argv in commands]


def digests(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in HASHED for p in root.glob(f"*/{pattern}")}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="DIGESTS.json",
                    help="the JSON file to write")
    # smaller values make the quick repeat run of the tests
    ap.add_argument("--videos", type=int, default=3)
    ap.add_argument("--frames", type=int, default=12)
    ap.add_argument("--epochs", type=int, default=2)
    args = ap.parse_args()

    out, home = Path(args.out).resolve(), Path.cwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            commands = run_matrix(args)
        finally:
            os.chdir(home)
        table = digests(Path(work))
    out.write_text(json.dumps(
        {"environment": environment(), "commands": commands,
         "sha256": dict(sorted(table.items()))}, indent=1) + "\n")
    print(f"wrote {len(table)} digests to {out}")


if __name__ == "__main__":
    main()
