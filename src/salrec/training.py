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
from .tensor import Tensor, backward, bce

CHECKPOINT_MAGIC = b"SALR"
CHECKPOINT_VERSION = 4
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
    prediction clamped to [1e-7, 1 - 1e-7] (`tensor.BCE_CLAMP`) before the
    logs. It records one tape node (`tensor.bce`), whose value and gradient
    are bit for bit those of the chain of clamp, scale, add_const, log,
    mul, add and tmean ops that it replaces. A NaN prediction gives a NaN
    loss."""
    if pred.shape != gt.shape:
        raise ValueError(f"bce_loss: shape mismatch {pred.shape} vs {gt.shape}")
    if not (gt.data.min() >= 0.0 and gt.data.max() <= 1.0):  # NaN fails too
        raise ValueError("bce_loss: ground truth must lie in [0, 1]")
    return bce(pred, gt)


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
               video_id: str, rng) -> tuple[float, RecurrenceStates]:
    """One optimizer step over an unrolled clip; returns (mean BCE, carried
    state). The state must come from the same video or be fresh; a fresh
    one is tagged with `video_id`.

    The clip's T frames and ground-truth maps come as [T, 1, H, W] stacks.
    The frames run through a single `forward_frame` call, and the loss is
    one BCE over the stack: the mean of the per-frame means, as every
    frame has H*W pixels.

    A non-finite map or clip loss raises RuntimeError before any gradient
    or optimizer update.
    """
    if state.video_id is None:
        state.video_id = video_id
    elif state.video_id != video_id:
        raise ValueError(f"state carries video {state.video_id!r} but clip is "
                         f"from {video_id!r}; reset at video boundaries")
    pred = model.forward_frame(frames, state, rng)
    loss = bce_loss(pred, gts)
    if not np.isfinite(loss.item()):
        raise RuntimeError(f"non-finite training loss {loss.item()}")
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
    clips within a video carry state, augmentation drawn per video. A
    clip's RuntimeError (a non-finite map or loss) is raised again naming
    the video, its frames and the epoch (0-based; the message's 1-based)."""
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
        state = model.fresh_states()
        clip_losses = []
        for start in range(0, len(frames), cfg.clip_length):
            clip = slice(start, start + cfg.clip_length)
            try:
                loss, state = train_clip(model, Tensor(frames[clip]),
                                         Tensor(gts[clip]), state, optimizer,
                                         s.video_id, rng=rng)
            except RuntimeError as exc:
                last = start + len(frames[clip]) - 1
                raise RuntimeError(f"{exc}: video {s.video_id!r}, frames "
                                   f"{start}-{last}, epoch {epoch + 1}") from exc
            clip_losses.append(loss)
        video_losses.append(float(np.mean(clip_losses)))
    return EpochReport(mean_loss=float(np.mean(video_losses)))


# ---------------------------------------------------------------------------
# checkpoint format, version 4: magic "SALR", u32 version, u32 header length
# (integers little-endian), a UTF-8 JSON header, then the arrays. The header
# holds the model and training settings, Adam's learning rate and step
# count, the PCG64 state, the epoch, and `arrays`: [name, shape] for each
# array in file order, the parameters and then the Adam moments `adam.m.<p>`
# and `adam.v.<p>`, each in registry order. The arrays follow as
# little-endian float64 bytes, in that order, with nothing after them.


def _read_exact(f, n: int) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{getattr(f, 'name', '?')}: truncated checkpoint")
    return data


def _arrays(model: Model, optimizer: Adam) -> dict[str, np.ndarray]:
    """The checkpoint's arrays by name, in file order."""
    params = {name: p.data for name, p in model.registry.items()}
    return {**params, **{f"adam.{kind}.{name}": state[name]
                         for kind, state in (("m", optimizer.m),
                                             ("v", optimizer.v))
                         for name in params}}


def _index(arrays: dict[str, np.ndarray]) -> list:
    """The header's `arrays`, in the form JSON reads back."""
    return [[name, list(a.shape)] for name, a in arrays.items()]


def _index_mismatch(index, expected: list) -> str:
    """Where a header's array index first departs from the model's."""
    if not isinstance(index, list):
        return f"is {type(index).__name__}, not a list"
    for i, want in enumerate(expected):
        got = index[i] if i < len(index) else "missing"
        if got != want:
            return f"entry {i} (name, shape) is {got}, model expects {want}"
    return f"has {len(index)} entries, model expects {len(expected)}"


def save_checkpoint(path: Path, model: Model, optimizer: Adam,
                    rng: np.random.Generator, epoch: int,
                    train_cfg: TrainConfig) -> None:
    """Write everything an exact resume needs: the model and training
    settings, the parameters, the Adam state, the rng and the epoch."""
    path = Path(path)
    arrays = _arrays(model, optimizer)
    header = json.dumps({
        "model": asdict(model.cfg), "train": asdict(train_cfg),
        "adam": {"lr": optimizer.lr, "t": optimizer.t},
        "rng": rng.bit_generator.state, "epoch": epoch,
        "arrays": _index(arrays)}, sort_keys=True).encode("utf-8")
    # write a sibling file and rename it over the target, so a crash
    # mid-write leaves the previous checkpoint at `path` intact
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
            f.write(header)
            for arr in arrays.values():
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _config(cls, section: dict):
    """A config dataclass from a header section that names every field at
    its annotation's JSON type (a tuple as a list); a missing field is an
    error, not its default."""
    if not isinstance(section, dict):
        raise ValueError(f"{cls.__name__} section is "
                         f"{type(section).__name__}, not an object")
    missing = [f.name for f in fields(cls) if f.name not in section]
    if missing:
        raise ValueError(f"{cls.__name__} lacks {', '.join(missing)}")
    # the JSON types an annotation admits: a bool is no int, an int a float
    json_types = dict(int=(int,), float=(int, float), bool=(bool,), str=(str,))
    for f in fields(cls):  # annotations are strings: the __future__ import
        value, seq = section[f.name], f.type.startswith("tuple[")
        kinds = json_types[f.type[6:].split(",")[0] if seq else f.type]
        items = (value if type(value) is list else [None]) if seq else [value]
        if not all(type(v) in kinds for v in items):  # None is of no kind
            raise ValueError(f"{cls.__name__}.{f.name} is {value!r}, "
                             f"expected {f.type}")
    return cls(**section)


def load_checkpoint(path: Path) -> tuple[Model, Adam, np.random.Generator,
                                         int, TrainConfig]:
    """The model, Adam, rng, epoch and training settings that
    `save_checkpoint` wrote. A malformed file, a header without training
    settings included, raises ValueError naming the file, and before any
    array is read if the header is at fault. Array lengths come from the
    model, never from the file."""
    path = Path(path)
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: checkpoint version {version}, "
                             f"expected {CHECKPOINT_VERSION}")
        (hlen,) = struct.unpack("<I", _read_exact(f, 4))
        rest = os.fstat(f.fileno()).st_size - f.tell()
        if hlen > rest:  # before the length sizes a read
            raise ValueError(f"{path}: header length {hlen} exceeds the "
                             f"{rest} bytes left in the file")
        try:
            header = json.loads(f.read(hlen).decode("utf-8"))
            model = build(_config(ModelConfig, header["model"]))
            lr, t = header["adam"]["lr"], header["adam"]["t"]
            epoch = header["epoch"]
            for name, value in (("adam.t", t), ("epoch", epoch)):
                # a bool is not an int here
                if type(value) is not int or value < 0:
                    raise ValueError(f"{name} must be an integer >= 0, "
                                     f"got {value!r}")
            if type(lr) not in (int, float) or not 0.0 < lr < math.inf:
                raise ValueError(f"adam.lr must be positive and finite, "
                                 f"got {lr!r}")
            optimizer = Adam(model.registry, lr=lr)
            optimizer.t = t
            train_cfg = _config(TrainConfig, header["train"])
            rng = np.random.default_rng(0)
            rng.bit_generator.state = header["rng"]
            index = header["arrays"]
        except (KeyError, TypeError, ValueError, AttributeError,
                OverflowError, MemoryError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header "
                             f"({type(exc).__name__}: {exc})") from exc
        arrays = _arrays(model, optimizer)
        expected = _index(arrays)
        if index != expected:
            raise ValueError(f"{path}: array index "
                             f"{_index_mismatch(index, expected)}")
        for target in arrays.values():
            target[...] = np.frombuffer(_read_exact(f, 8 * target.size),
                                        dtype="<f8").reshape(target.shape)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the arrays")
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
