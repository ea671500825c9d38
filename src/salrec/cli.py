"""Command-line entry point: synth / train / eval / compare / sweep-alpha /
gradcheck.

Every command is deterministic given its flags and seed, and every run
directory receives the fully resolved configuration as `config.json`.
Exit codes: 0 success, 1 usage or config error, 2 data/validation error,
3 internal check failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import data as data_mod
from . import metrics as metrics_mod
from .model import EMA_KINDS, RECURRENCE_KINDS, ModelConfig, build
from .training import TrainConfig, load_checkpoint, save_checkpoint, train
from .gradcheck import MODULE_CHECKS, TOL, run_checks


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


_SECTION_TYPES = {"synth": data_mod.SynthConfig, "model": ModelConfig,
                  "train": TrainConfig}


def _split(value: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in value.split(",") if p.strip())


# INI value parsers, keyed by the exact (string) annotation of the field
_PARSERS = {"bool": lambda v: configparser.ConfigParser.BOOLEAN_STATES[v.lower()],
            "int": int, "float": float, "str": str, "tuple[str, ...]": _split}


def _coerce(value: str, annotation: str) -> object:
    parse = _PARSERS[annotation]
    try:
        return parse(value)
    except (KeyError, ValueError):
        kind = "boolean" if annotation == "bool" else annotation
        raise UsageError(f"cannot parse {kind} from {value!r}") from None


def _load_config_file(path: str) -> dict[str, dict[str, object]]:
    """The typed values of an INI file, by section (the `type` of `--config`,
    so the file is read once, while the flags are parsed)."""
    parser = configparser.ConfigParser()
    out: dict[str, dict[str, object]] = {}
    try:
        if not parser.read(path):
            raise UsageError(f"config file {path} not found")
        for section in parser.sections():
            if section not in _SECTION_TYPES:
                raise UsageError(f"unknown config section [{section}]")
            ftypes = {f.name: f.type for f in fields(_SECTION_TYPES[section])}
            out[section] = {}
            for key, raw in parser[section].items():
                if (section, key) == ("model", "input_size"):
                    raise UsageError("[model] input_size is not an INI key: "
                                     "train takes the dataset's frame size")
                if key not in ftypes:
                    raise UsageError(f"unknown key {key!r} in section [{section}]")
                out[section][key] = _coerce(raw, ftypes[key])
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc
    return out


def _resolve(cls, ini: dict, **flags):
    """`cls` from INI values over its defaults and the flags that are not
    None over both; a value the dataclass rejects is a config error."""
    values = {**ini, **{k: v for k, v in flags.items() if v is not None}}
    try:
        return cls(**values)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from exc


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _write_resolved_config(out_dir: Path, payload: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(json.dumps(payload, indent=2,
                                                    sort_keys=True) + "\n")


# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    cfg = _resolve(data_mod.SynthConfig, args.config.get("synth", {}),
                   n_videos=args.videos, frames_per_video=args.frames,
                   height=args.size, width=args.size, seed=args.seed,
                   noise=args.noise, max_speed=args.speed)
    samples = data_mod.generate(cfg)
    out = Path(args.out_dir)
    data_mod.write_dataset(samples, out)
    _write_resolved_config(out, {"synth": asdict(cfg)})
    print(f"wrote {len(samples)} videos x {cfg.frames_per_video} frames to {out}")
    return 0


def _parse_model_flags(args, ini: dict) -> ModelConfig:
    """Resolve [model] and the model flags. The EMA points, alpha and true
    dropout in effect (a flag's, else the INI file's) must suit the
    recurrence in effect; alpha defaults to 0.1, or 0.3 for two EMA points,
    and 0.1 is recorded where no fixed alpha is read (`ema-trainable`
    learns its own). The input size is left (0, 0), which divides by any
    2^stages, for the caller to set from the dataset."""
    kind = args.recurrence or ini.get("recurrence", "none")
    if kind not in RECURRENCE_KINDS:  # an INI value; the flag has choices
        raise UsageError(f"unknown recurrence {kind!r}")
    ema_at = ini.get("ema_points") if args.ema_at is None else _split(args.ema_at)
    alpha = ini.get("alpha") if args.alpha is None else args.alpha
    dropout = args.dropout or ini.get("dropout") or None  # checked only if true
    has_ema = kind in EMA_KINDS
    reads_alpha = has_ema and kind != "ema-trainable"
    for flag, key, value, applies in (
            ("--ema-at", "ema_points", ema_at, has_ema),
            ("--alpha", "alpha", alpha, reads_alpha),
            ("--dropout", "dropout", dropout, kind != "none")):
        if value is not None and not applies:
            raise UsageError(f"{flag} (or [model] {key}) does not apply to "
                             f"recurrence {kind}")
    if not reads_alpha:
        alpha = 0.1
    elif alpha is None:
        alpha = 0.3 if len(ema_at or ()) == 2 else 0.1
    return _resolve(ModelConfig, ini, input_size=(0, 0),
                    recurrence=args.recurrence, ema_points=ema_at, alpha=alpha,
                    stages=args.stages, base_channels=args.base_channels,
                    dropout=args.dropout, seed=args.seed)


def cmd_train(args) -> int:
    # every check but the frame size's runs before the dataset is read
    model_cfg = _parse_model_flags(args, args.config.get("model", {}))
    train_cfg = _resolve(TrainConfig, args.config.get("train", {}), lr=args.lr,
                         epochs=args.epochs, clip_length=args.clip_length,
                         augment=args.augment, seed=args.seed)
    samples = data_mod.read_dataset(args.data_dir)
    model_cfg = _resolve(ModelConfig, asdict(model_cfg),
                         input_size=samples[0].frames[0].shape)
    try:  # before anything is written
        model = build(model_cfg)
    except (MemoryError, OverflowError, ValueError) as exc:  # too large
        raise UsageError(
            f"a model of stages={model_cfg.stages} and base_channels="
            f"{model_cfg.base_channels} cannot be allocated: {exc}") from None
    out = Path(args.out_dir)
    _write_resolved_config(out, {"model": asdict(model_cfg),
                                 "train": asdict(train_cfg)})
    log_path = out / "loss_log.txt"

    def on_epoch(epoch, report, optimizer, rng):
        log.write(f"epoch {epoch + 1} mean_bce {report.mean_loss:.8f}\n")
        log.flush()
        save_checkpoint(out / f"checkpoint_epoch{epoch + 1:02d}.salr",
                        model, optimizer, rng, epoch + 1, train_cfg)

    with open(log_path, "w") as log:
        optimizer, rng, reports = train(model, samples, train_cfg,
                                        epoch_callback=on_epoch)
    save_checkpoint(out / "checkpoint_final.salr", model, optimizer, rng,
                    train_cfg.epochs, train_cfg)
    print(f"trained {train_cfg.epochs} epochs; "
          f"final mean BCE {reports[-1].mean_loss:.6f}; logs in {out}")
    return 0


def _check_input_size(model, samples) -> None:
    """Reject a dataset whose frames are not the model's input size."""
    size = samples[0].frames[0].shape
    if model.cfg.input_size != size:
        raise ValueError(f"checkpoint expects {model.cfg.input_size}, "
                         f"dataset frames are {size}")


def _predict_all(model, samples, alpha_override=None):
    return {s.video_id: model.predict_sequence(s.frames, alpha_override)
            for s in samples}


def cmd_eval(args) -> int:
    samples = data_mod.read_dataset(args.data_dir)
    if args.checkpoint:
        model, *_ = load_checkpoint(args.checkpoint)
        _check_input_size(model, samples)
        preds = _predict_all(model, samples)
    else:
        preds = data_mod.load_predictions(args.pred_dir, samples)
    report = metrics_mod.evaluate_predictions(samples, preds,
                                              n_splits=args.n_splits,
                                              seed=args.seed)
    out = Path(args.out_dir)
    _write_resolved_config(out, {"eval": {"data_dir": str(args.data_dir),
                                          "checkpoint": args.checkpoint,
                                          "pred_dir": args.pred_dir,
                                          "n_splits": args.n_splits,
                                          "seed": args.seed}})
    text = metrics_mod.report_to_text(report)
    (out / "report.txt").write_text(text)
    (out / "report.csv").write_text(metrics_mod.report_to_csv(report))
    if args.dump_maps:
        data_mod.write_predictions(preds, out / "maps")
    print(text, end="")
    return 0


def read_report_csv(path: Path) -> metrics_mod.MetricReport:
    return metrics_mod.report_from_csv(data_mod.read_utf8(path), path)


def cmd_compare(args) -> int:
    ra = read_report_csv(Path(args.report_a))
    rb = read_report_csv(Path(args.report_b))
    diffs, mean, var = metrics_mod.compare_per_video(ra, rb, args.metric)
    print(f"{'video':>10}  {args.metric} (A-B)")
    for vid, d in diffs:
        print(f"{vid:>10}  {d:+.6f}")
    print(f"{'mean':>10}  {mean:+.6f}")
    print(f"{'variance':>10}  {var:.6f}")
    return 0


def cmd_sweep_alpha(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
        valid = all(0.0 < a <= 1.0 for a in alphas)  # False for NaN too
    except ValueError:
        valid = False
    if not valid:
        raise UsageError(f"--alphas must be numbers in (0, 1], got {args.alphas!r}")
    model, *_ = load_checkpoint(args.checkpoint)
    if model.cfg.recurrence not in EMA_KINDS:
        raise UsageError("sweep-alpha requires a checkpoint trained with an "
                         "EMA recurrence")
    samples = data_mod.read_dataset(args.data_dir)
    _check_input_size(model, samples)
    lines = ["  ".join(f"{h:>8}" for h in ("alpha",) + metrics_mod.METRIC_NAMES)]
    for alpha in alphas:
        preds = _predict_all(model, samples, alpha_override=alpha)
        means = metrics_mod.evaluate_predictions(samples, preds,
                                                 n_splits=args.n_splits,
                                                 seed=args.seed).dataset_means
        lines.append("  ".join([f"{alpha:>8.3f}"] + [
            f"{means[m]:>8.4f}" if means[m] is not None else f"{'n/a':>8}"
            for m in metrics_mod.METRIC_NAMES]))
    table = "\n".join(lines) + "\n"
    print(table, end="")
    if args.out:
        Path(args.out).write_text(table)
    return 0


def cmd_gradcheck(args) -> int:
    modules = list(MODULE_CHECKS) if args.module == "all" else [args.module]
    results = run_checks(modules, seed=args.seed)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name:<32} max rel err {r.max_rel_err:.3e} "
              f"(tol {TOL:.0e})")
    if not all(r.passed for r in results):
        print("gradient check FAILED", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="salrec",
                     description="Video saliency with EMA / ConvLSTM recurrences")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic dataset")
    p.add_argument("out_dir")
    p.add_argument("--config", type=_load_config_file, default={},
                   help="INI config file ([synth] section)")
    p.add_argument("--videos", type=int, help="number of videos (default 20)")
    p.add_argument("--frames", type=int, help="frames per video (default 40)")
    p.add_argument("--size", type=int, help="square frame size (default 32)")
    p.add_argument("--noise", type=float, help="pixel noise amplitude")
    p.add_argument("--speed", type=float, help="max blob speed px/frame")
    p.add_argument("--seed", type=_nonnegative_int,
                   help="random seed (default 0)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset")
    p.add_argument("data_dir")
    p.add_argument("out_dir")
    p.add_argument("--config", type=_load_config_file, default={},
                   help="INI config file ([model]/[train] sections)")
    p.add_argument("--recurrence", help="temporal memory (default none)",
                   choices=RECURRENCE_KINDS)
    p.add_argument("--ema-at", help="comma list of insertion points: "
                   "encoderK | bottleneck | decoderK | output")
    p.add_argument("--alpha", type=float, help="EMA alpha (default 0.1; 0.3 "
                   "when two insertion points are given)")
    p.add_argument("--dropout", action="store_true", default=None,
                   help="dropout (p=0.5) before each recurrence")
    p.add_argument("--stages", type=int, help="encoder/decoder stages (default 3)")
    p.add_argument("--base-channels", type=int, help="channels of stage 1 (default 8)")
    p.add_argument("--lr", type=float, help="learning rate (default 1e-3)")
    p.add_argument("--epochs", type=int, help="epochs (default 7)")
    p.add_argument("--clip-length", type=int, help="BPTT window (default 10)")
    p.add_argument("--augment", action="store_true", default=None,
                   help="mirror/right-angle-rotation augmentation")
    p.add_argument("--seed", type=_nonnegative_int,
                   help="random seed (default 0)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint or prediction dir")
    p.add_argument("data_dir")
    p.add_argument("out_dir")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--pred-dir", help="directory of predicted PGM maps")
    p.add_argument("--dump-maps", action="store_true",
                   help="write predicted maps as PGMs")
    p.add_argument("--n-splits", type=_positive_int, default=100,
                   help="s-AUC negative resamplings")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="per-video metric difference A-B")
    p.add_argument("report_a", help="report.csv of run A")
    p.add_argument("report_b", help="report.csv of run B")
    p.add_argument("--metric", default="NSS",
                   choices=list(metrics_mod.METRIC_NAMES))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep-alpha", help="evaluate one checkpoint under "
                       "several inference-time alphas")
    p.add_argument("data_dir")
    p.add_argument("checkpoint")
    p.add_argument("--alphas", default="0.05,0.1,0.2,0.3",
                   help="comma list of alphas in (0, 1]")
    p.add_argument("--n-splits", type=_positive_int, default=100)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out", help="write the table to this file")
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p.add_argument("--module", default="all",
                   choices=["all"] + list(MODULE_CHECKS))
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal check, e.g. the [0, 1] map guard
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
