"""Training: pixel-wise BCE loss, Adam, truncated-BPTT clip training with
state carry-over, right-angle augmentation, and binary checkpoints.

Clips of at most `clip_length` frames are unrolled and backpropagated as one
graph; the recurrence state is detached at clip boundaries so values carry
forward while gradients do not.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .model import ALPHA_PARAM, Model, ModelConfig, RecurrenceStates, build
from .tensor import (Tensor, add, add_const, backward, clamp, log, mul, scale,
                     tmean)

CHECKPOINT_MAGIC = b"SALR"
CHECKPOINT_VERSION = 3
BCE_CLAMP = 1e-7
# Adam hyper-parameters: the defaults of Kingma & Ba 2014 (arXiv 1412.6980)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
ALPHA_LR = 0.1  # learning rate of the trainable EMA alpha (`ALPHA_PARAM`)


@dataclass
class TrainConfig:
    clip_length: int = 10
    epochs: int = 7
    lr: float = 1e-3  # paper value 1e-7 presumes a pretrained encoder
    augment: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.clip_length < 1:
            raise ValueError("clip_length must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.lr < math.inf:  # NaN fails too
            raise ValueError(f"learning rate must be positive and finite, "
                             f"got {self.lr}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def bce_loss(pred: Tensor, gt: Tensor) -> Tensor:
    """Mean binary cross entropy over pixels, target-weighted logs, with the
    prediction clamped to [1e-7, 1 - 1e-7] before the logs."""
    if pred.shape != gt.shape:
        raise ValueError(f"bce_loss: shape mismatch {pred.shape} vs {gt.shape}")
    if not (gt.data.min() >= 0.0 and gt.data.max() <= 1.0):  # NaN fails too
        raise ValueError("bce_loss: ground truth must lie in [0, 1]")
    p = clamp(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    q = gt
    one_minus_q = add_const(scale(q, -1.0), 1.0)
    one_minus_p = add_const(scale(p, -1.0), 1.0)
    ll = add(mul(q, log(p)), mul(one_minus_q, log(one_minus_p)))
    return scale(tmean(ll), -1.0)


class Adam:
    """Adam with bias correction over a parameter registry. The trainable
    alpha parameter (`ALPHA_PARAM`) is stepped with `ALPHA_LR`, not `lr`."""

    def __init__(self, registry, lr: float = 1e-3):
        self.registry = registry
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in registry.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in registry.items()}

    def step(self) -> None:
        """One update of every parameter and its moments, in place. A
        parameter without a gradient counts as one with a zero gradient:
        its moments decay, and it still moves by them."""
        self.t += 1
        b1, b2 = BETA1, BETA2
        # two scratch buffers, as large as the largest parameter
        scratch = np.empty((2, max((p.size for _, p in self.registry.items()),
                                   default=0)))
        for name, p in self.registry.items():
            m, v, g = self.m[name], self.v[name], p.grad
            step, denom = (buf[:p.size].reshape(p.shape) for buf in scratch)
            m *= b1
            v *= b2
            if g is not None:
                m += np.multiply(g, 1 - b1, out=step)
                np.multiply(g, 1 - b2, out=step)
                v += np.multiply(step, g, out=step)
            np.divide(m, 1 - b1 ** self.t, out=step)
            np.sqrt(np.divide(v, 1 - b2 ** self.t, out=denom), out=denom)
            denom += EPS
            step *= ALPHA_LR if name == ALPHA_PARAM else self.lr
            step /= denom
            p.data -= step


def train_clip(model: Model, frames: Tensor, gts: Tensor,
               state: RecurrenceStates, optimizer: Adam,
               video_id: str, rng=None, first_frame: int = 0,
               epoch: int = 0) -> tuple[float, RecurrenceStates]:
    """One optimizer step over an unrolled clip; returns (mean BCE, carried
    state). The state must come from the same video or be fresh.

    The clip's T frames and ground-truth maps come as [T, 1, H, W] stacks.
    The frames run through a single `forward_frame` call, and the loss is
    one BCE over the stack: the mean of the per-frame means, as every
    frame has H*W pixels.

    A non-finite map or clip loss raises RuntimeError before any gradient
    or optimizer update, naming the video, the clip's frames (counted from
    `first_frame`) and the epoch (`epoch` is 0-based, the message 1-based).
    """
    if state.video_id is None:
        state.video_id = video_id
    elif state.video_id != video_id:
        raise ValueError(f"state carries video {state.video_id!r} but clip is "
                         f"from {video_id!r}; reset at video boundaries")
    try:
        pred = model.forward_frame(frames, state, training=True, rng=rng)
        loss = bce_loss(pred, gts)
        if not np.isfinite(loss.item()):
            raise RuntimeError(f"non-finite training loss {loss.item()}")
    except RuntimeError as exc:  # this check or the forward pass's map guard
        raise RuntimeError(
            f"{exc}: video {video_id!r}, "
            f"frames {first_frame}-{first_frame + frames.shape[0] - 1}, "
            f"epoch {epoch + 1}") from exc
    model.registry.zero_grad()
    backward(loss)
    optimizer.step()
    state.detach()  # sever BPTT at the clip boundary
    return loss.item(), state


@dataclass
class EpochReport:
    mean_loss: float  # the mean over videos of each video's mean clip loss


def train_epoch(model: Model, samples, cfg: TrainConfig, optimizer: Adam,
                rng: np.random.Generator, epoch: int = 0) -> EpochReport:
    """One pass over the dataset: videos in shuffled order, consecutive
    clips within a video carry state, augmentation drawn per video."""
    if not samples:
        raise ValueError("empty dataset")
    order = rng.permutation(len(samples))
    video_losses = []
    for idx in order:
        s = samples[int(idx)]
        frames, gts = np.stack(s.frames)[:, None], np.stack(s.gt_maps)[:, None]
        if cfg.augment:
            mirror = bool(rng.integers(0, 2))
            square = frames.shape[2] == frames.shape[3]
            rot_k = int(rng.choice([0, 1, 2, 3] if square else [0, 2]))
            if mirror:
                frames, gts = frames[..., ::-1], gts[..., ::-1]
            frames = np.rot90(frames, rot_k, axes=(2, 3))
            gts = np.rot90(gts, rot_k, axes=(2, 3))
        state = model.fresh_states(s.video_id)
        clip_losses = []
        for start in range(0, len(frames), cfg.clip_length):
            clip = slice(start, start + cfg.clip_length)
            loss, state = train_clip(model, Tensor(frames[clip]),
                                     Tensor(gts[clip]), state, optimizer,
                                     s.video_id, rng=rng, first_frame=start,
                                     epoch=epoch)
            clip_losses.append(loss)
        video_losses.append(float(np.mean(clip_losses)))
    return EpochReport(mean_loss=float(np.mean(video_losses)))


# ---------------------------------------------------------------------------
# checkpoint format: magic "SALR", u32 version, length-prefixed JSON config,
# then named float64 blobs (parameters, Adam moments), then a JSON RNG state
# block and the epoch counter.


def _write_blob(f, name: str, arr: np.ndarray) -> None:
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)))
    f.write(nb)
    f.write(struct.pack("<I", arr.ndim))
    for d in arr.shape:
        f.write(struct.pack("<I", d))
    f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{getattr(f, 'name', '?')}: truncated checkpoint")
    return data


def _read_blob_head(f) -> tuple[str, tuple]:
    """The name and declared shape of the next array. Its data follows;
    the caller checks the shape before `_read_blob_data` sizes a read by it."""
    (nlen,) = struct.unpack("<I", _read_exact(f, 4))
    name = _read_exact(f, nlen).decode("utf-8", "backslashreplace")
    (rank,) = struct.unpack("<I", _read_exact(f, 4))
    return name, tuple(struct.unpack("<I", _read_exact(f, 4))[0] for _ in range(rank))


def _read_blob_data(f, shape: tuple) -> np.ndarray:
    count = int(np.prod(shape))
    return np.frombuffer(_read_exact(f, 8 * count), dtype="<f8").reshape(shape)


def _arrays(model: Model, optimizer: Adam) -> tuple[dict, dict]:
    """The checkpoint's two sections of named arrays, in file order: the
    parameters, then the Adam moments `adam.m.<p>` and `adam.v.<p>`."""
    params = {name: p.data for name, p in model.registry.items()}
    moments = {f"adam.{kind}.{name}": state[name]
               for kind, state in (("m", optimizer.m), ("v", optimizer.v))
               for name in params}
    return params, moments


def _read_section(f, path: Path, label: str, arrays: dict) -> None:
    """Fill `arrays` in place from the file's next section. The count, and
    each array's name and shape, are checked before its data is read."""
    (count,) = struct.unpack("<I", _read_exact(f, 4))
    if count != len(arrays):
        raise ValueError(f"{path}: {count} {label}s in file, "
                         f"expected {len(arrays)}")
    for i, (expected, target) in enumerate(arrays.items()):
        name, shape = _read_blob_head(f)
        if name != expected:
            raise ValueError(f"{path}: {label} {name!r} at position {i}, "
                             f"expected {expected!r}")
        if shape != target.shape:
            raise ValueError(f"{path}: {label} {name!r} has shape {shape}, "
                             f"model expects {target.shape}")
        target[...] = _read_blob_data(f, shape)


def save_checkpoint(path: Path, model: Model, optimizer: Adam,
                    rng: np.random.Generator, epoch: int,
                    train_cfg: Optional[TrainConfig] = None) -> None:
    path = Path(path)
    header = {
        "model": asdict(model.cfg),
        "train": asdict(train_cfg) if train_cfg else None,
        "adam": {"lr": optimizer.lr, "t": optimizer.t},
    }
    # write a sibling file and rename it over the target, so a crash
    # mid-write leaves the previous checkpoint at `path` intact
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            cfg_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
            f.write(struct.pack("<I", len(cfg_bytes)))
            f.write(cfg_bytes)
            for section in _arrays(model, optimizer):
                f.write(struct.pack("<I", len(section)))
                for name, arr in section.items():
                    _write_blob(f, name, arr)
            rng_bytes = json.dumps(rng.bit_generator.state, sort_keys=True).encode()
            f.write(struct.pack("<I", len(rng_bytes)))
            f.write(rng_bytes)
            f.write(struct.pack("<I", epoch))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _config(cls, section: dict):
    """A config dataclass from a header section that names every field;
    a missing field is an error, not its default."""
    missing = [f.name for f in fields(cls) if f.name not in section]
    if missing:
        raise ValueError(f"{cls.__name__} lacks {', '.join(missing)}")
    return cls(**section)


def load_checkpoint(path: Path) -> tuple[Model, Adam, np.random.Generator,
                                         int, Optional[TrainConfig]]:
    path = Path(path)
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version}, "
                             f"expected {CHECKPOINT_VERSION}")
        (clen,) = struct.unpack("<I", _read_exact(f, 4))
        header_bytes = _read_exact(f, clen)
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            model = build(_config(ModelConfig, header["model"]))
            lr, t = header["adam"]["lr"], header["adam"]["t"]
            if type(t) is not int or t < 0:  # a bool is not an int here
                raise ValueError(f"adam.t must be an integer >= 0, got {t!r}")
            if type(lr) not in (int, float) or not 0.0 < lr < math.inf:
                raise ValueError(f"adam.lr must be positive and finite, "
                                 f"got {lr!r}")
            optimizer = Adam(model.registry, lr=lr)
            optimizer.t = t
            train_cfg = (_config(TrainConfig, header["train"])
                         if header["train"] else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header "
                             f"({type(exc).__name__}: {exc})") from exc
        for label, arrays in zip(("parameter", "Adam moment"),
                                 _arrays(model, optimizer)):
            _read_section(f, path, label, arrays)
        (rlen,) = struct.unpack("<I", _read_exact(f, 4))
        rng_bytes = _read_exact(f, rlen)
        rng = np.random.default_rng(0)
        try:
            rng.bit_generator.state = json.loads(rng_bytes.decode("utf-8"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed checkpoint RNG state "
                             f"({type(exc).__name__}: {exc})") from exc
        (epoch,) = struct.unpack("<I", _read_exact(f, 4))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the epoch counter")
    return model, optimizer, rng, epoch, train_cfg


def train(model: Model, samples, cfg: TrainConfig,
          optimizer: Optional[Adam] = None,
          rng: Optional[np.random.Generator] = None,
          start_epoch: int = 0,
          epoch_callback=None) -> tuple[Adam, np.random.Generator, list[EpochReport]]:
    """Run the remaining epochs of the schedule; returns the optimizer, the
    rng (for checkpointing) and the per-epoch reports."""
    if optimizer is None:
        optimizer = Adam(model.registry, lr=cfg.lr)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    reports = []
    for epoch in range(start_epoch, cfg.epochs):
        report = train_epoch(model, samples, cfg, optimizer, rng, epoch=epoch)
        reports.append(report)
        if epoch_callback is not None:
            epoch_callback(epoch, report, optimizer, rng)
    return optimizer, rng, reports
