"""salrec benchmark: train and eval throughput on EMA and ConvLSTM workloads,
with a traced per-layer table.

    python3 perfbench/run.py --workload train_ema --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the root of a salrec checkout; salrec is imported from ./src. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer table with --trace 1. Lines before it give the same figures
for reading, the environment and a digest of the run's outputs.

A run sets up its inputs three times (set-up time is the median), then
repeats the workload's unit (see workloads.py), at least twice, and starts
another only while it would end no more than half a unit after --seconds.
With --trace 1 every second unit runs under the tracer (tracer.py); the
untraced units in between give its overhead. Scratch files go to
.bench_work/ in the checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_ema", "train_convlstm", "eval_convlstm")
BLAS_THREADS = 1  # fixed before numpy loads; at most nproc on any machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = 3
MIN_UNITS = 2
END_TO_END_UNITS = {"setup_s": "s", "step_ms_min": "ms", "frames_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=34)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def measure(name: str, seed: int, seconds: int, trace: bool, work: Path):
    """Set up and run one workload; returns (tally, metrics, readable lines)."""
    import tracer
    import workloads

    wl = workloads.make(name, seed, work)
    tally = workloads.Tally()
    setup_tracer = tracer.Tracer()
    setup_times = tally.setup_times
    # All set-ups write to the same paths: the first creates the files and the
    # others overwrite them, whose cost drifts far less on a shared machine.
    for _ in range(SETUPS):
        if trace:
            setup_tracer.install()
        t0 = perf_counter()
        try:
            wl.setup()
        finally:
            setup_tracer.uninstall()
        setup_times.append(perf_counter() - t0)

    unit_tracer = tracer.Tracer()
    traced_units, untraced_units = [], []
    frames = 0
    hooks = wl.hooks()
    start = perf_counter()
    try:
        while True:
            n = len(wl.walls)
            if n >= MIN_UNITS and (perf_counter() - start
                                   + statistics.median(wl.walls) / 2) > seconds:
                break
            traced = trace and n % 2 == 1
            if traced:
                unit_tracer.install()
            try:
                frames, outputs = wl.run_unit(n)
            except Exception:  # a failing unit is reported, not fatal
                traceback.print_exc()
                tally.check(False, f"unit {n} raised")
                break
            finally:
                unit_tracer.uninstall()
            (traced_units if traced else untraced_units).append(n)
            wl.check_unit(outputs, tally)
            del outputs  # so peak_rss_mb holds one unit's outputs, not two
    finally:
        tracer.restore(hooks)
    if not untraced_units or (trace and not traced_units):
        return tally, None, []
    wl.check_run(tally)
    tally.check(all(d == tally.digests[0] for d in tally.digests),
                "units of one run produced different outputs")

    lines = [f"{name} seed {seed}: {len(untraced_units)} untraced and "
             f"{len(traced_units)} traced units in {perf_counter() - start:.1f} s"]
    if trace:
        unit_tracer.add_data_spans(setup_tracer)
        overhead = (statistics.median(wl.walls[i] for i in traced_units)
                    / statistics.median(wl.walls[i] for i in untraced_units) - 1.0)
        table = unit_tracer.metrics(frames * len(traced_units), overhead)
        lines += [f"  {k:40s} {v:12.6g} {u}" for k, (v, u) in table.items()]
        return tally, {k: {"value": v, "unit": u}
                       for k, (v, u) in table.items()}, lines

    values = {"setup_s": statistics.median(setup_times),
              **wl.end_to_end(untraced_units, frames),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    lines += [f"  {k:22s} {v:12.6g} {END_TO_END_UNITS[k]}" for k, v in values.items()]
    lines.append("  medians and percentiles (not bounded):")
    lines += [f"  {k:22s} {v:12.6g} {u}"
              for k, (v, u) in wl.figures(untraced_units, frames).items()]
    lines.append(f"  {'failed_frac':22s} {tally.failed / tally.attempted:12.6g} "
                 f"ratio ({tally.failed} of {tally.attempted})")
    tally.floor_ms = wl.floor_ms
    return tally, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}, lines


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally, metrics, lines = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there
    for line in lines:
        print(line)
    for error in tally.errors:
        print(f"  check failed: {error}")
    if metrics is None:
        print("error: no unit completed; no result", file=sys.stderr)
        return 1
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(), "digest": tally.digests[0],
              "setup_s_each": tally.setup_times, "floor_ms": tally.floor_ms,
              "units_identical": len({json.dumps(d, sort_keys=True)
                                      for d in tally.digests}) == 1}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines))
            status = 1
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "salrec" / "__init__.py").is_file():
        print(f"error: no salrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
