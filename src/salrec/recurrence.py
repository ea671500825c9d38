"""Temporal recurrences: exponential moving average (fixed or trainable
alpha) and a peephole ConvLSTM cell.

Each scans a stack of consecutive frames of one video in one call and
records one tape node, whose backward is the reverse scan: `convlstm_step`
a stack whose axis 0 is time, from a batch-1 state; `ema_step` a stack of
`frames` equal blocks along axis 0, one frame by default.

EMA update: e_t = alpha * s_t + (1 - alpha) * e_{t-1}, with e_0 = s_0 so the
first frame behaves like a static predictor. A trainable alpha is
sigmoid(p) for the scalar `ema.p` the model registers, which keeps the
blend convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .layers import ParameterRegistry, xavier_init
from .tensor import (Tensor, _node, _sigmoid, _unbroadcast, _unwindow,
                     _windows)


@dataclass
class EmaConfig:
    """The EMA's settings. A registered scalar `p` makes alpha trainable,
    sigmoid(p), and `alpha` is then unused; without one, `alpha` is fixed
    and must lie in (0, 1]."""
    alpha: float = 0.1
    p: Optional[Tensor] = None

    def __post_init__(self):
        if self.p is None and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass
class EmaState:
    accumulator: Optional[Tensor] = None


def ema_step(s: Tensor, state: EmaState, cfg: EmaConfig,
             frames: int = 1) -> tuple[Tensor, EmaState]:
    """The EMA scanned over s, `frames` consecutive frames stacked in equal
    blocks along axis 0 (by default one frame, s whole, of any shape), as
    one tape node whose backward runs the updates in reverse; returns
    (e_1..e_T, shaped like s, and the advanced state). Each update runs the
    numpy expressions of the single-op chain in its order, so outputs and
    the gradients to the frames and to a carried-in accumulator are bit for
    bit those of `frames` one-frame calls.
    """
    prev, m = state.accumulator, s.shape[0]
    n = m // frames if frames > 0 else 0
    block = (n,) + s.shape[1:]
    if not n or n * frames != m or prev is not None and prev.shape != block:
        raise ValueError(
            f"ema_step: input shape {s.shape} does not split along axis 0 "
            f"into {frames} frame(s) of shape "
            f"{block if prev is None else prev.shape}")
    xs = s.data.reshape((frames,) + block)
    # updates before `first` are e_t = s_t: the first frame of a fresh
    # state, or every frame at a fixed alpha of 1.0, a bit-exact identity
    first = frames if cfg.p is None and cfg.alpha == 1.0 else int(prev is None)
    if first == frames:
        return s, EmaState(accumulator=_rows(s, m - n, m))
    a = cfg.alpha if cfg.p is None else _sigmoid(cfg.p.data)
    b = 1.0 - a
    # row t + 1 holds e_t, row 0 the carried-in accumulator if any
    es = np.concatenate([xs[:1] if prev is None else prev.data[None], xs])
    for t in range(first, frames):
        es[t + 1] = xs[t] * a + es[t] * b

    def reverse(g):
        """From g at the node: the gradients at s, at prev and at p."""
        g = g.reshape(xs.shape)
        ds = np.empty_like(xs)
        # e_t's gradient from later: the next update's
        carry, dp = 0.0, 0.0
        for t in reversed(range(first, frames)):
            ge = g[t] + carry
            ds[t] = ge * a
            if cfg.p is not None:  # d alpha / d p = a * (1 - a)
                dp = dp + (_unbroadcast(ge * xs[t], ())
                           - _unbroadcast(ge * es[t], ())) * a * b
            carry = ge * b
        if first:  # s_0 is e_0
            ds[0] = g[0] + carry
        return ds.reshape(s.shape), carry, dp

    edges = [(s, lambda d: d[0])]
    if first == 0:
        edges.append((prev, lambda d: d[1]))
    if cfg.p is not None:
        edges.append((cfg.p, lambda d: d[2]))
    node = _node(es[1:].reshape(s.shape), *edges, prepare=reverse)
    return node, EmaState(accumulator=_rows(node, m - n, m))


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


def _cell_vjp(dc, dh, c_prev, gates, peepholes, dz):
    """The backward of one cell step. From the gradients at C_t (dc, from
    the output and the next step) and at H_t (dh), write the gradients at
    the step's u/f/o/c pre-activations into dz, shaped (4, C, H, W), and
    return the gradient at C_{t-1}."""
    u, f, o, tc, t_ct = gates
    p_u, p_f, p_o = peepholes
    dc = dc + dh * o * (1.0 - t_ct * t_ct)  # H_t = o * tanh(C_t)
    dz[0] = dc * tc * u * (1.0 - u)
    dz[1] = dc * c_prev * f * (1.0 - f)
    dz[2] = dh * t_ct * o * (1.0 - o)
    dz[3] = dc * u * (1.0 - tc * tc)
    return dc * f + dz[0] * p_u + dz[1] * p_f + dz[2] * p_o


def _rows(x: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo:hi of x along axis 0, x itself when that is all of them;
    their gradient flows into those rows."""
    if lo == 0 and hi == x.shape[0]:
        return x

    def dx(g):
        full = np.zeros_like(x.data)
        full[lo:hi] = g
        return full
    return _node(x.data[lo:hi], (x, dx))


def convlstm_step(s: Tensor, state: ConvLstmState,
                  w: ConvLstmWeights) -> tuple[Tensor, ConvLstmState]:
    """The ConvLSTM (Shi et al. 2015, eq. 3) scanned over s, a stack of
    T >= 1 consecutive frames of one video shaped (T, Cin, H, W): axis 0
    is time. It starts from a batch-1 state and returns the cell states
    C_1..C_T, shaped (T, C, H, W), the routing used downstream, and the
    state after the last frame, whose H_T and C_T are (1, C, H, W).

    Each step runs the GEMM and bias add `conv2d` runs over [s_t, H_{t-1}]
    and the gate expressions of the peephole cell, so the values are bit
    for bit those of a concat, conv2d and single-op cell chain stepped
    frame by frame; a one-frame stack is one step. The whole stack is one
    tape node, with edges to the frames, the initial C and H and every
    weight, plus a slice per output. Its backward steps in reverse; only
    each step's gradient at H_{t-1} is sequential. The kernel gradient is
    then one GEMM over all steps' windows, the frame gradient one batched
    GEMM and scatter, and the bias and peephole gradients one sum each.
    They match the chain's up to summation order.
    """
    cell, hidden = state.cell, state.hidden
    if (s.data.ndim != 4 or not s.shape[0] or cell.data.ndim != 4
            or cell.shape[0] != 1 or hidden.shape != cell.shape):
        raise ValueError(
            f"convlstm_step: input {s.shape} must be a (T, Cin, H, W) stack "
            f"with T >= 1, and state {cell.shape}, {hidden.shape} batch 1")
    t_len, cin, h, wd = s.shape
    ch = cell.shape[1]
    k = cin + ch
    if w.kernel.shape[:2] != (4 * ch, k):
        raise ValueError(
            f"convlstm_step: input channels {cin} and state channels {ch} "
            f"do not match kernel {w.kernel.shape}")
    if s.shape[2:] != cell.shape[2:] or any(
            p.shape != cell.shape[1:] for p in w.peepholes):
        raise ValueError(
            f"convlstm_step: input spatial dims {s.shape} do not match "
            f"state {cell.shape} and peepholes {w.peepholes[0].shape}")
    kmat = w.kernel.data.reshape(4 * ch, k * 9)
    peep = [p.data for p in w.peepholes]
    # the padded [s_t, H_{t-1}] of every step, and its channel-major
    # window matrix, (k, 3, 3) rows by (T, H, W) columns, as `conv2d`'s: a
    # view, of which step t fills only its own columns
    xp = np.zeros((t_len, k, h + 2, wd + 2))
    xp[:, :cin, 1:h + 1, 1:wd + 1] = s.data
    windows = _windows(xp, 3)
    out = np.empty((t_len + 1, ch, h, wd))  # C_1..C_T, then H_T
    gates = []
    c, hid = cell.data[0], hidden.data[0]
    for t in range(t_len):
        xp[t, cin:, 1:h + 1, 1:wd + 1] = hid
        a = kmat @ windows[:, :, :, t].reshape(k * 9, h * wd)
        a += w.bias.data[:, None]
        a = a.reshape(4, ch, h, wd)
        u, f, o = (_sigmoid(a[g] + peep[g] * c) for g in range(3))
        tc = np.tanh(a[3])
        c = f * c + u * tc
        t_ct = np.tanh(c)
        hid = o * t_ct
        out[t] = c
        gates.append((u, f, o, tc, t_ct))
    out[t_len] = hid

    def reverse(g):
        """From g at (C_1..C_T, H_T): the gradients at every step's
        pre-activations, as a (4C, T*H*W) matrix and a (4, C, T, H, W)
        view, at C_0 and at H_0, and the stack C_0..C_{T-1}."""
        c_prev = np.concatenate([cell.data, out[:t_len - 1]])
        dpre = np.empty((4, ch, t_len, h, wd))
        dc, dh = np.zeros((ch, h, wd)), g[t_len]
        for t in reversed(range(t_len)):
            dz = dpre[:, :, t]
            dc = _cell_vjp(g[t] + dc, dh, c_prev[t], gates[t], peep, dz)
            dcols = dz.reshape(4 * ch, h * wd).T @ kmat[:, cin * 9:]
            dh = _unwindow(dcols.reshape(1, h, wd, ch, 3, 3))[0]
        return dpre.reshape(4 * ch, t_len * h * wd), dpre, dc, dh, c_prev

    def dframes(d):
        dcols = d[0].T @ kmat[:, :cin * 9]
        return _unwindow(dcols.reshape(t_len, h, wd, cin, 3, 3))

    packed = _node(
        out,
        (s, dframes),
        (cell, lambda d: d[2][None]),
        (hidden, lambda d: d[3][None]),
        (w.kernel, lambda d: (d[0] @ windows.reshape(k * 9, -1).T)
         .reshape(w.kernel.shape)),
        (w.bias, lambda d: d[1].sum(axis=(2, 3, 4)).reshape(-1)),
        *((p, lambda d, g=g: (d[1][g] * d[4].transpose(1, 0, 2, 3))
           .sum(axis=1)) for g, p in enumerate(w.peepholes)),
        prepare=reverse)
    return _rows(packed, 0, t_len), ConvLstmState(
        cell=_rows(packed, t_len - 1, t_len),
        hidden=_rows(packed, t_len, t_len + 1))
