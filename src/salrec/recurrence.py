"""Temporal recurrences: exponential moving average (fixed alpha, trainable
alpha, residual skip) and a peephole ConvLSTM cell.

EMA update: e_t = alpha * s_t + (1 - alpha) * e_{t-1}, with e_0 = s_0 so the
first frame behaves like a static predictor; every later update, with a
fixed or a trainable alpha, is one tape node. A trainable alpha is sigmoid(p)
for the scalar `ema.p` the model registers, which keeps the blend convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layers import ParameterRegistry, xavier_init
from .tensor import (Tensor, _node, _sigmoid, _unbroadcast, add, concat,
                     conv2d, lstm_cell)


@dataclass
class EmaConfig:
    """The EMA's settings. A registered scalar `p` makes alpha trainable,
    sigmoid(p), and `alpha` is then unused; without one, `alpha` is fixed
    and must lie in (0, 1]. `residual` adds the input to the output."""
    alpha: float = 0.1
    residual: bool = False
    p: Optional[Tensor] = None

    def __post_init__(self):
        if self.p is None and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass
class EmaState:
    accumulator: Optional[Tensor] = None


def ema_step(s_t: Tensor, state: EmaState,
             cfg: EmaConfig) -> tuple[Tensor, EmaState]:
    """One EMA update; returns (output, advanced state).

    With residual enabled the returned value is s_t + e_t while the
    accumulator still stores e_t.
    """
    prev = state.accumulator
    if prev is not None and prev.shape != s_t.shape:
        raise ValueError(
            f"ema_step: input shape {s_t.shape} does not match "
            f"accumulator shape {prev.shape}")
    if prev is None or (cfg.p is None and cfg.alpha == 1.0):
        e_t = s_t  # first frame, or alpha 1.0: a bit-exact identity
    else:
        a = cfg.alpha if cfg.p is None else _sigmoid(cfg.p.data)
        b = 1.0 - a
        edges = [(s_t, lambda g: g * a), (prev, lambda g: g * b)]
        if cfg.p is not None:  # d alpha / d p = a * (1 - a)
            edges.append((cfg.p, lambda g: (_unbroadcast(g * s_t.data, ())
                          - _unbroadcast(g * prev.data, ())) * a * b))
        e_t = _node(s_t.data * a + prev.data * b, *edges)
    new_state = EmaState(accumulator=e_t)
    out = add(s_t, e_t) if cfg.residual else e_t
    return out, new_state


@dataclass
class ConvLstmState:
    cell: Tensor
    hidden: Tensor

    @classmethod
    def zeros(cls, n: int, channels: int, h: int, w: int) -> "ConvLstmState":
        return cls(cell=Tensor(np.zeros((n, channels, h, w))),
                   hidden=Tensor(np.zeros((n, channels, h, w))))


class ConvLstmWeights:
    """Parameters of the peephole ConvLSTM cell (Glorot-initialized).

    One 3x3 kernel of shape (4C, Cin + C, 3, 3) and one bias of shape (4C,)
    compute the pre-activations of gates u/f/o and the candidate c, in that
    order of output-channel blocks, from [s_t, H_{t-1}]. Gates u/f/o also
    own an elementwise peephole on the previous cell state; the candidate
    has none. Peepholes are per-position, of shape (channels, H, W).
    """

    def __init__(self, registry: ParameterRegistry, name: str,
                 in_ch: int, channels: int, spatial: tuple[int, int],
                 rng: np.random.Generator):
        self.kernel = registry.register(
            f"{name}.kernel",
            xavier_init((4 * channels, in_ch + channels, 3, 3),
                        (in_ch + channels) * 9, channels * 9, rng))
        self.bias = registry.register(f"{name}.bias",
                                      Tensor(np.zeros(4 * channels)))
        peep_shape = (channels,) + tuple(spatial)
        fan = int(np.prod(peep_shape))
        self.peepholes = tuple(
            registry.register(f"{name}.{g}.peephole",
                              xavier_init(peep_shape, fan, fan, rng))
            for g in "ufo")


def convlstm_step(s_t: Tensor, state: ConvLstmState,
                  w: ConvLstmWeights) -> tuple[Tensor, ConvLstmState]:
    """One ConvLSTM step (Shi et al. 2015, eq. 3); emits the new cell state
    C_t, the routing used downstream. H_t is in the returned state."""
    if s_t.shape[2:] != state.cell.shape[2:]:
        raise ValueError(
            f"convlstm_step: input spatial dims {s_t.shape} do not match "
            f"state {state.cell.shape}")
    pre = conv2d(concat(s_t, state.hidden, axis=1), w.kernel, w.bias, padding=1)
    c_t, h_t = lstm_cell(pre, state.cell, w.peepholes)
    return c_t, ConvLstmState(cell=c_t, hidden=h_t)
