"""Miniature encoder-decoder saliency model ("MiniSal") with a temporal
recurrence inserted at configurable points.

Encoder: `stages` blocks of conv3x3 -> relu -> maxpool2, computed as pool
then relu: relu is monotone, so it commutes with the window max, and pooling
first leaves it a quarter of the values. For finite conv outputs, values and
gradients are bit for bit those of relu first. A window holding a NaN gives
0, where relu first would zero the NaN and keep the max of the other taps.
Decoder mirrors with upsampling. Head: 1x1 conv -> sigmoid producing a
per-frame probability map.

Each decoder conv after the first folds in the upsample in front of it
(`ConvLayer.upsampled`, `upsample_conv3x3`): one conv over the
low-resolution map by a phase kernel, whose four output phases interleave
into the full-size map, in place of a conv over a nearest-neighbour copy
that does four times the window work for the same information. Values
and gradients change only in summation order: maps within 1e-14, states
within 1e-13 of their largest element and gradients within 1e-13 of the
model's largest of those over an explicit upsample. A recurrence at
`decoder<k-1>`, and the dropout mask in front of it, need the full-size
map, so there the upsample stays explicit in front of dec<k>.

The head and the sigmoid run before the last upsample, on a quarter of the
pixels: a 1x1 conv, its bias and a sigmoid act on each pixel alone, so they
commute with a nearest-neighbour copy and the maps are bit for bit those of
upsampling first. Gradients change only in summation order, as the
upsample's backward sums the four taps of a pixel before the head, not
after. Two exceptions: under `ema-residual` at `output` the upsample moves
past the head only, as that EMA runs before the sigmoid; and with a
recurrence at `decoder<stages>` it stays where it is. A recurrence at
`output` runs after the upsample, at full size, so a dropout mask keeps its
shape and draws.

The recurrence (EMA variants or a ConvLSTM at the bottleneck) wraps the
activations at the configured insertion points.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layers import ConvLayer, ParameterRegistry, dropout_forward
from .recurrence import (ConvLstmState, ConvLstmWeights, EmaConfig, EmaState,
                         convlstm_step, ema_step)
from .tensor import (Tensor, concat, maxpool2d, no_grad, relu, sigmoid, split,
                     upsample_nearest)

EMA_KINDS = ("ema", "ema-trainable", "ema-residual")
RECURRENCE_KINDS = ("none", *EMA_KINDS, "convlstm")
DROPOUT_P = 0.5  # drop probability of the dropout in front of each recurrence
ALPHA_PARAM = "ema.p"  # registry name of the trainable EMA alpha's logit


def parse_point(text: str, stages: int) -> str:
    """The canonical name of an insertion point, where a recurrence wraps
    the activations: `bottleneck`, `output`, or `encoderK`/`decoderK` for
    stage K in 1..stages. Case, outer blanks and leading zeros are ignored
    (`" Encoder01"` is `encoder1`), and `encoder<stages>` is `bottleneck`,
    the same activation."""
    text = text.strip().lower()
    if text in ("bottleneck", "output"):
        return text
    for prefix in ("encoder", "decoder"):
        if text.startswith(prefix):
            try:
                k = int(text[len(prefix):])
            except ValueError:
                break
            if not 1 <= k <= stages:
                raise ValueError(
                    f"insertion point {prefix}{k} outside 1..{stages}")
            if prefix == "encoder" and k == stages:
                return "bottleneck"
            return f"{prefix}{k}"
    raise ValueError(f"cannot parse insertion point {text!r}")


@dataclass
class ModelConfig:
    """Model settings in JSON-native form: `asdict` serialises them and
    `ModelConfig(**d)` reads them back. `input_size` becomes a tuple and
    `ema_points` canonical names (`parse_point`)."""
    input_size: tuple[int, int] = (32, 32)
    stages: int = 3
    base_channels: int = 8
    recurrence: str = "none"
    ema_points: tuple[str, ...] = ("bottleneck",)
    alpha: float = 0.1
    dropout: bool = False
    seed: int = 0

    def __post_init__(self):
        self.input_size = tuple(self.input_size)
        h, w = self.input_size
        if self.stages < 1:
            raise ValueError("stages must be >= 1")
        if self.base_channels < 1:
            raise ValueError("base_channels must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if h % (1 << self.stages) or w % (1 << self.stages):
            raise ValueError(
                f"input size {self.input_size} not divisible by 2^{self.stages}")
        if self.recurrence not in RECURRENCE_KINDS:
            raise ValueError(f"unknown recurrence {self.recurrence!r}")
        pts = self.ema_points = tuple(parse_point(p, self.stages)
                                      for p in self.ema_points)
        if self.recurrence == "convlstm":
            if pts != ("bottleneck",):
                raise ValueError("convlstm recurrence is placed only at the "
                                 "bottleneck; --ema-at does not apply")
        elif self.recurrence in EMA_KINDS:
            if not 1 <= len(pts) <= 2:
                raise ValueError("ema supports 1 or 2 insertion points")
            if len(set(pts)) != len(pts):
                raise ValueError("duplicate insertion points")
            if self.recurrence != "ema-trainable":  # it learns sigmoid(p)
                EmaConfig(self.alpha)  # checks the fixed alpha
            if (self.dropout and "output" in pts
                    and self.recurrence != "ema-residual"):
                raise ValueError(
                    "dropout before the output EMA, which averages maps after "
                    "the sigmoid, can push them past 1; use ema-residual or "
                    "another insertion point")

    def encoder_channels(self) -> list[int]:
        return [self.base_channels << k for k in range(self.stages)]

    @property
    def bottleneck_channels(self) -> int:
        return self.base_channels << (self.stages - 1)

    @property
    def bottleneck_size(self) -> tuple[int, int]:
        h, w = self.input_size
        return h >> self.stages, w >> self.stages


class RecurrenceStates:
    """Per-video recurrence state bundle, tagged with its owning model and
    the video it belongs to: one slot per insertion point, None until the
    point's first frame."""

    def __init__(self, model: "Model", video_id: Optional[str] = None):
        self.model = model
        self.video_id = video_id
        self.states: dict[str, object] = dict.fromkeys(model.points)

    def detach(self) -> None:
        """Sever gradient flow at a clip boundary; values carry forward."""
        for point, st in self.states.items():
            if st is not None:
                self.states[point] = type(st)(
                    *(t.detach() for t in vars(st).values()))


class Model:
    """Encoder-decoder saliency predictor; see `build`."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.registry = ParameterRegistry()
        rng = np.random.default_rng(cfg.seed)
        chans = cfg.encoder_channels()
        self.enc_convs = []
        prev = 1  # frames are single-channel luminance
        for k, c in enumerate(chans, start=1):
            self.enc_convs.append(
                ConvLayer(self.registry, f"enc{k}", prev, c, 3, rng, padding=1))
            prev = c
        self.points = () if cfg.recurrence == "none" else cfg.ema_points
        self.dec_convs = []
        dec_out = chans[-2::-1] + [cfg.base_channels]
        for k, c in enumerate(dec_out, start=1):
            # dec<k> folds in the upsample after dec<k-1>, unless a
            # recurrence at decoder<k-1> needs the full-size map
            upsampled = k > 1 and f"decoder{k - 1}" not in self.points
            self.dec_convs.append(
                ConvLayer(self.registry, f"dec{k}", prev, c, 3, rng, padding=1,
                          upsampled=upsampled))
            prev = c
        self.head = ConvLayer(self.registry, "head", prev, 1, 1, rng)

        self.ema_cfg: Optional[EmaConfig] = None
        self.convlstm: Optional[ConvLstmWeights] = None
        if cfg.recurrence == "convlstm":
            self.convlstm = ConvLstmWeights(
                self.registry, "convlstm", cfg.bottleneck_channels,
                cfg.bottleneck_channels, cfg.bottleneck_size, rng)
        elif cfg.recurrence in EMA_KINDS:
            # p starts at 0, so a trainable alpha starts at sigmoid(0) = 0.5
            p = (self.registry.register(ALPHA_PARAM, Tensor(np.asarray(0.0)))
                 if cfg.recurrence == "ema-trainable" else None)
            self.ema_cfg = EmaConfig(
                alpha=cfg.alpha, residual=cfg.recurrence == "ema-residual", p=p)

    def fresh_states(self, video_id: Optional[str] = None) -> RecurrenceStates:
        return RecurrenceStates(self, video_id)

    def _recur(self, x: Tensor, point: str, states: RecurrenceStates,
               training: bool, rng):
        """The recurrence at `point` folded over the frame stack x, whose
        axis 0 is time; x itself when no recurrence sits there. An empty
        slot starts from a fresh state: the ConvLSTM's is batch 1, as it
        scans the whole stack in one call."""
        if point not in states.states:
            return x
        if self.cfg.dropout:
            x = dropout_forward(x, DROPOUT_P, training, rng)
        st = states.states[point]
        if self.convlstm is not None:
            out, states.states[point] = convlstm_step(
                x, st or ConvLstmState.zeros(1, *x.shape[1:]), self.convlstm)
            return out
        outs = []
        for s_t in split(x, x.shape[0], axis=0):
            out, st = ema_step(s_t, st or EmaState(), self.ema_cfg)
            outs.append(out)
        states.states[point] = st
        return concat(*outs, axis=0)

    def forward_frame(self, frames: Tensor, states: RecurrenceStates,
                      training: bool = False, rng=None) -> Tensor:
        """A stack of T >= 1 consecutive frames of one video, shaped
        [T, 1, H, W], in; their saliency maps, shaped [T, 1, H, W], out.

        Every layer runs once over the whole stack. Only the recurrence at
        each configured insertion point steps frame by frame, in order, and
        leaves the state advanced past the last frame. So one call over T
        frames gives the maps of T calls over one frame each; a dropout
        mask is drawn once per insertion point for the whole stack.
        """
        if states.model is not self:
            raise ValueError("recurrence states belong to a different model")
        h, w = self.cfg.input_size
        if frames.shape[1:] != (1, h, w) or not frames.size:
            raise ValueError(
                f"frame shape {frames.shape} does not match configured "
                f"(T, 1, {h}, {w}) with T >= 1")
        x = frames
        for k, conv in enumerate(self.enc_convs, start=1):
            x = relu(maxpool2d(conv(x)))  # pool first: see the module docstring
            x = self._recur(x, f"encoder{k}", states, training, rng)
        x = self._recur(x, "bottleneck", states, training, rng)
        # an explicit upsample follows dec<k> unless dec<k+1> folds it in;
        # the last waits for the head, and for the sigmoid too unless the
        # residual output EMA runs first: see the module docstring
        late = f"decoder{self.cfg.stages}" not in self.points
        explicit = [not conv.upsampled for conv in self.dec_convs[1:]] + [not late]
        for k, (conv, up) in enumerate(zip(self.dec_convs, explicit), start=1):
            x = relu(conv(x))
            if up:
                x = upsample_nearest(x)
            x = self._recur(x, f"decoder{k}", states, training, rng)
        x = self.head(x)
        up = upsample_nearest if late else (lambda t: t)
        # the output EMA averages maps after the sigmoid; the residual one
        # stays before it so the map keeps to [0, 1]
        if "output" in self.points and self.ema_cfg.residual:
            x = sigmoid(self._recur(up(x), "output", states, training, rng))
        else:
            x = self._recur(up(sigmoid(x)), "output", states, training, rng)
        vals = x.data
        if not (vals.min() >= 0.0 and vals.max() <= 1.0):  # False for NaN
            raise RuntimeError("saliency map left [0, 1] or went non-finite")
        return x

    def predict_sequence(self, frames: list[np.ndarray],
                         alpha_override: Optional[float] = None) -> list[np.ndarray]:
        """Evaluation-mode maps of a video's (H, W) frames, as (H, W) float
        arrays: `forward_frame` folded over the frames one at a time, in
        order, from a fresh state and under `no_grad`. The maps equal those
        of one call over the video's [T, 1, H, W] stack. `alpha_override`
        runs the EMA at that fixed alpha; a model without one ignores it."""
        if len(frames) == 0:
            raise ValueError("predict_sequence needs at least one frame")
        model = self
        if alpha_override is not None and self.ema_cfg is not None:
            model = copy.copy(self)
            model.ema_cfg = EmaConfig(alpha_override,
                                      residual=self.ema_cfg.residual)
        states = model.fresh_states()
        with no_grad():
            return [model.forward_frame(Tensor(f[None, None]), states).data[0, 0]
                    for f in frames]


def build(cfg: ModelConfig) -> Model:
    return Model(cfg)
