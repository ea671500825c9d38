"""The benchmark's workloads: set-up, one repeatable unit of work, and the
output checks each unit must pass.

Every workload uses the CLI-default dataset (20 videos x 40 frames, 32x32)
generated from the workload seed, and the default model (3 stages, base
channels 8, clip length 10).

- train_ema / train_convlstm: set-up synthesizes the dataset, writes it and
  reads it back, as `salrec synth` then `salrec train` would. One unit is
  `salrec train --epochs 1`: a model built from the seed, one epoch of
  truncated-BPTT training, a checkpoint saved after the epoch.
- eval_convlstm: set-up writes the dataset and a seed-initialised ConvLSTM
  checkpoint. One unit is `salrec eval`: read the dataset, load the
  checkpoint, predict every video, score with n_splits=100, write the report.

Every unit of a run starts from the same inputs, so every unit must produce
the same bytes; that is checked, and it is what makes traced and untraced
units comparable.

salrec is always reached through module attributes (`training.train`, not
`from salrec.training import train`) so the tracer's rebinding is seen.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from salrec import data, metrics, model, training

import tracer

N_SPLITS = 100
METRIC_RANGES = {"AUC-J": (0.0, 1.0), "s-AUC": (0.0, 1.0),
                 "NSS": (-math.inf, math.inf), "CC": (-1.0, 1.0),
                 "SIM": (0.0, 1.0)}


@dataclass
class Tally:
    """Work attempted and failed, and the record of a run's outputs."""
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    setup_times: list = field(default_factory=list)
    floor_ms: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def roundtrip_identical(path: Path, again: Path) -> bool:
    """Load a checkpoint and save it again; the bytes must not change."""
    net, optimizer, rng, epoch, train_cfg = training.load_checkpoint(path)
    training.save_checkpoint(again, net, optimizer, rng, epoch, train_cfg)
    return Path(again).read_bytes() == Path(path).read_bytes()


class Workload:
    """Shared bookkeeping: the duration of every call to the hooked salrec
    functions, kept per unit, and the estimates made from them.

    On a shared machine the time of long operations drifts with the load of
    other tenants by 20% and more within a minute, while the fastest of many
    short calls drifts much less. The bounded metrics are therefore floors:
    the minimum duration of each hooked function over a run, weighted by how
    often the workload calls it.
    """

    step = ""  # the hooked function that is the workload's model step

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.units: list[dict] = []  # per unit: {key: [seconds per call]}
        self.walls: list[float] = []
        self.results: list = []  # results of the step calls of the current unit
        self.floor_ms: dict = {}  # fastest call per hooked function, for the record

    def _timer(self, key: str, keep: bool = False):
        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                self.units[-1][key].append(perf_counter() - t0)
                if keep:
                    self.results.append(out)
                return out
            return wrapper
        return make

    def run_unit(self, index: int):
        """Run one unit; returns (frames, outputs for check_unit)."""
        self.units.append(defaultdict(list))
        t0 = perf_counter()
        frames, outputs = self.unit(index)
        self.walls.append(perf_counter() - t0)
        return frames, outputs

    def end_to_end(self, untraced: list[int], frames_per_unit: int) -> dict:
        """Floors over the untraced units: the fastest step, and the frame
        rate of the whole unit with every hooked call at its fastest and the
        rest of the unit (I/O, Python glue) at its fastest unit."""
        calls = defaultdict(list)
        rest = []
        for i in untraced:
            for key, durations in self.units[i].items():
                calls[key] += durations
            rest.append(self.walls[i] - sum(sum(d) for d in self.units[i].values()))
        self.floor_ms = {key: min(d) * 1e3 for key, d in calls.items()}
        self.floor_ms["rest_per_unit"] = min(rest) * 1e3
        frame_s = min(rest) / frames_per_unit + sum(
            len(d) / (frames_per_unit * len(untraced)) * min(d) for d in calls.values())
        return {"step_ms_min": min(calls[self.step]) * 1e3,
                "frames_per_s": 1.0 / frame_s}

    def _step_ms(self, untraced: list[int]) -> np.ndarray:
        return np.concatenate([self.units[i][self.step] for i in untraced]) * 1e3


class TrainWorkload(Workload):
    """`salrec train --recurrence <kind>` for one epoch per unit."""

    step = "train_clip"

    def __init__(self, recurrence: str, seed: int, work: Path):
        super().__init__(seed, work)
        self.recurrence = recurrence
        self.samples = None
        self.last_checkpoint = None

    def setup(self) -> None:
        root = self.work / "data"
        samples = data.generate(data.SynthConfig(seed=self.seed))
        data.write_dataset(samples, root)
        self.samples = data.read_dataset(root)

    def hooks(self) -> list:
        return tracer.rebind(training, "train_clip",
                             self._timer("train_clip", keep=True))

    def unit(self, index: int):
        cfg = training.TrainConfig(epochs=1, seed=self.seed)
        net = model.build(model.ModelConfig(recurrence=self.recurrence,
                                            seed=self.seed))
        out = self.work / f"train{index}"
        out.mkdir()

        def on_epoch(epoch, report, optimizer, rng):
            training.save_checkpoint(out / f"checkpoint_epoch{epoch + 1:02d}.salr",
                                     net, optimizer, rng, epoch + 1, cfg)

        _, _, reports = training.train(net, self.samples, cfg,
                                       epoch_callback=on_epoch)
        clip_losses = [loss for loss, _ in self.results]
        self.results.clear()
        self.last_checkpoint = out / "checkpoint_epoch01.salr"
        return sum(len(s.frames) for s in self.samples), (clip_losses, reports)

    def check_unit(self, outputs, tally: Tally) -> None:
        clip_losses, reports = outputs
        for loss in clip_losses:
            tally.check(math.isfinite(loss), "non-finite clip loss")
        final_loss = reports[-1].mean_loss
        tally.check(math.isfinite(final_loss), "non-finite final loss")
        tally.digests.append({"final_loss": repr(final_loss),
                              "checkpoint_sha256": _sha256(self.last_checkpoint)})

    def check_run(self, tally: Tally) -> None:
        tally.check(roundtrip_identical(self.last_checkpoint,
                                        self.work / "roundtrip.salr"),
                    "checkpoint changed on load and save")

    def figures(self, untraced: list[int], frames_per_unit: int) -> dict:
        """Medians and percentiles: training throughput and clip latency."""
        d = self._step_ms(untraced)
        rates = [frames_per_unit / sum(self.units[i][self.step]) for i in untraced]
        return {"train_frames_per_s": (statistics.median(rates), "1/s"),
                "train_clip_ms_p50": (float(np.percentile(d, 50)), "ms"),
                "train_clip_ms_p90": (float(np.percentile(d, 90)), "ms")}


class EvalWorkload(Workload):
    """`salrec eval --checkpoint` of a seed-initialised ConvLSTM model."""

    step = "forward_frame"

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.data_dir = work / "data"
        self.checkpoint = work / "init.salr"
        self.phases = []  # per unit: (predict seconds, score seconds)

    def setup(self) -> None:
        samples = data.generate(data.SynthConfig(seed=self.seed))
        data.write_dataset(samples, self.data_dir)
        net = model.build(model.ModelConfig(recurrence="convlstm", seed=self.seed))
        training.save_checkpoint(self.checkpoint, net, training.Adam(net.registry),
                                 np.random.default_rng(self.seed), 0,
                                 training.TrainConfig(seed=self.seed))

    def hooks(self) -> list:
        patches = tracer.rebind_method(model.Model, "forward_frame",
                                       self._timer("forward_frame"))
        for name in tracer.METRIC_FUNCS:
            patches += tracer.rebind(metrics, name, self._timer(name))
        return patches

    def unit(self, index: int):
        samples = data.read_dataset(self.data_dir)
        net, *_ = training.load_checkpoint(self.checkpoint)
        t0 = perf_counter()
        preds = {s.video_id: net.predict_sequence(s.frames) for s in samples}
        t1 = perf_counter()
        report = metrics.evaluate_predictions(samples, preds, n_splits=N_SPLITS,
                                              seed=self.seed)
        t2 = perf_counter()
        out = self.work / f"eval{index}"
        out.mkdir()
        (out / "report.txt").write_text(metrics.report_to_text(report))
        (out / "report.csv").write_text(metrics.report_to_csv(report))
        self.phases.append((t1 - t0, t2 - t1))
        return sum(len(p) for p in preds.values()), (preds, report, out)

    def check_unit(self, outputs, tally: Tally) -> None:
        preds, report, out = outputs
        for maps in preds.values():
            for m in maps:
                tally.check(bool(np.all(np.isfinite(m)) and m.min() >= 0.0
                                 and m.max() <= 1.0), "map outside [0, 1]")
        for name, (lo, hi) in METRIC_RANGES.items():
            for values in report.per_frame[name].values():
                for v in values:
                    tally.check(v is not None and math.isfinite(v)
                                and lo <= v <= hi, f"{name} frame score invalid")
            mean = report.dataset_means[name]
            tally.check(mean is not None and math.isfinite(mean)
                        and lo <= mean <= hi, f"{name} mean outside its range")
        tally.digests.append({"report_sha256": _sha256(out / "report.csv")})

    def check_run(self, tally: Tally) -> None:
        tally.check(roundtrip_identical(self.checkpoint,
                                        self.work / "roundtrip.salr"),
                    "checkpoint changed on load and save")

    def figures(self, untraced: list[int], frames_per_unit: int) -> dict:
        """Medians and percentiles: prediction and scoring throughput, the
        latency of each forward_frame in prediction, the eval wall time."""
        d = self._step_ms(untraced)
        return {
            "predict_frames_per_s": (statistics.median(
                frames_per_unit / self.phases[i][0] for i in untraced), "1/s"),
            "predict_frame_ms_p50": (float(np.percentile(d, 50)), "ms"),
            "predict_frame_ms_p98": (float(np.percentile(d, 98)), "ms"),
            "eval_frames_per_s": (statistics.median(
                frames_per_unit / self.phases[i][1] for i in untraced), "1/s"),
            "eval_wall_s": (statistics.median(self.walls[i] for i in untraced), "s")}


def make(name: str, seed: int, work: Path):
    if name == "train_ema":
        return TrainWorkload("ema", seed, work)
    if name == "train_convlstm":
        return TrainWorkload("convlstm", seed, work)
    if name == "eval_convlstm":
        return EvalWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")
