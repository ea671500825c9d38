"""Minimal reverse-mode autodiff over dense float64 arrays.

Only the operations the saliency network needs are implemented:
2d convolution, 2x2 max pooling, nearest-neighbour upsampling,
sigmoid/tanh/relu, elementwise arithmetic, log/clamp, reductions,
concatenation/splitting along the frame or channel axis, and the gate
arithmetic of a peephole ConvLSTM cell. No broadcasting except the conv
bias over the channel axis, the cell's peepholes over the batch, and the
broadcast-multiply used by the trainable alpha.

Each op computes its value and gives `_node` one (parent, vjp) edge per
input; a vjp maps the upstream gradient to that parent's gradient. `_node`
keeps only the edges whose parent requires grad, and records the op only
if grad is on and an edge is left, so no op tests `requires_grad` itself.
An op whose vjps share work on the upstream gradient (the LSTM gates)
gives `_node` a `prepare` step that does it once per backward call.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Tensor",
    "ComputationTape",
    "no_grad",
    "backward",
    "conv2d",
    "concat",
    "split",
    "maxpool2d",
    "upsample_nearest",
    "sigmoid",
    "tanh",
    "relu",
    "add",
    "sub",
    "mul",
    "broadcast_mul",
    "scale",
    "add_const",
    "log",
    "clamp",
    "tsum",
    "tmean",
    "lstm_cell",
]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation-mode forwards)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """Dense n-dimensional float64 array with an optional gradient buffer.

    Data is immutable by convention once the tensor is created; only the
    grad buffer is mutated (by backward passes and ``zero_grad``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g into the grad buffer. The first g is stored as g + 0.0 in a
        new C-contiguous buffer: the bits of a zeroed buffer plus g (-0.0
        becomes +0.0), without the zero fill and never aliased to g."""
        if self.grad is None:
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def detach(self) -> "Tensor":
        """A new leaf sharing this tensor's values, severed from the graph."""
        return Tensor(self.data.copy(), requires_grad=False)

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _node(data: np.ndarray, *edges: tuple[Tensor, Callable],
          prepare: Optional[Callable] = None) -> Tensor:
    """Create a result tensor from its value and one (parent, vjp) edge per
    input, where vjp maps the upstream gradient to that parent's gradient.

    While grad is on, only the edges whose parent requires grad are kept,
    and the op is recorded only if any are left. Its backward adds vjp(g)
    into each kept parent, in edge order; no other vjp is ever called.
    With `prepare`, the vjps take prepare(g) in place of g, and prepare
    runs once per backward call.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        kept = [edge for edge in edges if edge[0].requires_grad]
        if kept:
            def backward_fn(g):
                if prepare is not None:
                    g = prepare(g)
                for parent, vjp in kept:
                    parent.accumulate_grad(vjp(g))

            out.requires_grad = True
            out._parents = tuple([edge[0] for edge in kept])
            out._backward_fn = backward_fn
    return out


class ComputationTape:
    """Topologically ordered record of the ops reachable from a root tensor.

    Reverse replay visits every recorded op exactly once and accumulates
    gradients additively into every tensor that requires them.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.ops: list[Tensor] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:  # iterative DFS; sequences can be deep
            node, expanded = stack.pop()
            if expanded:
                self.ops.append(node)
                continue
            if id(node) in seen or node._backward_fn is None:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

    def replay_backward(self) -> None:
        self.root.accumulate_grad(np.ones_like(self.root.data))
        for node in reversed(self.ops):
            node._backward_fn(node.grad)


def backward(loss: Tensor) -> ComputationTape:
    """Fill grad buffers of every tensor the scalar loss depends on."""
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    tape = ComputationTape(loss)
    tape.replay_backward()
    return tape


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _node(a.data + b.data, (a, lambda g: g), (b, lambda g: g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "sub")
    return _node(a.data - b.data, (a, lambda g: g), (b, lambda g: -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "mul")
    return _node(a.data * b.data, (a, lambda g: g * b.data),
                 (b, lambda g: g * a.data))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def broadcast_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting.

    Used where broadcasting is intentional: the scalar trainable alpha
    against a feature map.
    """
    return _node(a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _node(a.data * c, (a, lambda g: g * c))


def add_const(a: Tensor, c: float) -> Tensor:
    return _node(a.data + float(c), (a, lambda g: g))


# ---------------------------------------------------------------------------
# activations and pointwise functions


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.data)
    return _node(s, (a, lambda g: g * s * (1.0 - s)))


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    return _node(t, (a, lambda g: g * (1.0 - t * t)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0  # subgradient at 0 is 0
    return _node(np.where(mask, a.data, 0.0), (a, lambda g: g * mask))


def log(a: Tensor) -> Tensor:
    return _node(np.log(a.data), (a, lambda g: g / a.data))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the interval."""
    inside = (a.data >= lo) & (a.data <= hi)
    return _node(np.clip(a.data, lo, hi), (a, lambda g: g * inside))


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor) -> Tensor:
    return _node(np.asarray(a.data.sum()),
                 (a, lambda g: np.full_like(a.data, g.reshape(-1)[0])))


def tmean(a: Tensor) -> Tensor:
    n = a.data.size
    return _node(np.asarray(a.data.mean()),
                 (a, lambda g: np.full_like(a.data, g.reshape(-1)[0] / n)))


# ---------------------------------------------------------------------------
# spatial ops


def conv2d(input: Tensor, kernel: Tensor, bias: Optional[Tensor] = None,
           padding: int = 0) -> Tensor:
    """2d cross-correlation of NCHW input with an OIHW kernel, at stride 1.

    Output spatial size is H + 2*padding - kH + 1. Bias, when given, is
    added per output channel (the one sanctioned broadcast).

    Layout: the input windows form a channel-major (Cin*kH*kW, N*H'*W')
    matrix, rows in (Cin, kH, kW) order to match the kernel viewed as a
    (Cout, Cin*kH*kW) matrix, so building it copies whole output rows.
    The forward output is one (Cout, Cin*kH*kW) x (Cin*kH*kW, N*H'*W')
    GEMM, and the kernel gradient one (Cout, N*H'*W') x (N*H'*W',
    Cin*kH*kW) GEMM. Contract, against the np.pad + sliding_window_view
    formulation kept as the test oracle: the input gradient (kernel taps
    (i, j) added in row-major order into a zeroed buffer) is exact, bit for
    bit; the forward output and the kernel gradient match it up to
    summation order, within the bounds the tests state.
    """
    if input.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d expects 4d input/kernel, got {input.shape} and {kernel.shape}")
    if padding < 0:
        raise ValueError(f"conv2d padding must be >= 0, got {padding}")
    n, cin, h, w = input.shape
    cout, kcin, kh, kw = kernel.shape
    if cin != kcin:
        raise ValueError(
            f"conv2d channel mismatch: input {input.shape} has Cin={cin}, "
            f"kernel {kernel.shape} expects Cin={kcin}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(
            f"conv2d kernel {kernel.shape} larger than padded input "
            f"({hp}x{wp} from {input.shape} with padding={padding})")
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({cout},)")

    if padding:
        xp = np.zeros((n, cin, hp, wp))
        xp[:, :, padding:padding + h, padding:padding + w] = input.data
    else:
        xp = input.data
    ho, wo = hp - kh + 1, wp - kw + 1
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(  # (Cin, kH, kW, N, H', W')
        xp, shape=(cin, kh, kw, n, ho, wo),
        strides=(sc, sh, sw, sn, sh, sw), writeable=False)
    cols = windows.reshape(cin * kh * kw, n * ho * wo)
    kmat = kernel.data.reshape(cout, cin * kh * kw)
    out = kmat @ cols  # (Cout, N*H'*W')
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(cout, n, ho, wo).transpose(1, 0, 2, 3)

    def dinput(g):
        dcols = (g.reshape(n, cout, ho * wo).transpose(0, 2, 1) @ kmat
                 ).reshape(n, ho, wo, cin, kh, kw)
        dxp = np.zeros((n, hp, wp, cin))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + ho, j:j + wo] += dcols[..., i, j]
        return dxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2)

    def dkernel(g):
        gk = g.reshape(n, cout, ho * wo).transpose(1, 0, 2).reshape(cout, n * ho * wo)
        return (gk @ cols.T).reshape(kernel.shape)

    edges = [(input, dinput), (kernel, dkernel)]
    if bias is not None:
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _node(out, *edges)


def _along(axis: int, lo: int, hi: int) -> tuple:
    """Index of the slice lo:hi along `axis`."""
    return (slice(None),) * axis + (slice(lo, hi),)


def concat(*xs: Tensor, axis: int) -> Tensor:
    """Concatenate NCHW tensors along `axis` (0 frames, 1 channels); the
    other dims must agree. A single tensor is returned as it is: no copy
    and no tape node."""
    shapes = [x.shape for x in xs]
    if (not 0 <= axis < 4 or any(len(s) != 4 for s in shapes)
            or len({s[:axis] + s[axis + 1:] for s in shapes}) != 1):
        raise ValueError(f"concat: incompatible shapes {shapes} on axis {axis}")
    if len(xs) == 1:
        return xs[0]
    bounds = np.cumsum([0] + [s[axis] for s in shapes])
    return _node(np.concatenate([x.data for x in xs], axis=axis),
                 *((x, lambda g, i=_along(axis, lo, hi): g[i])
                   for x, lo, hi in zip(xs, bounds[:-1], bounds[1:])))


def split(input: Tensor, k: int, axis: int) -> list[Tensor]:
    """Split an NCHW tensor into k equal consecutive groups along `axis`
    (0 frames, 1 channels). With k = 1 the input is the one group: no copy
    and no tape node."""
    if (input.data.ndim != 4 or not 0 <= axis < 4 or k < 1
            or input.shape[axis] % k):
        raise ValueError(
            f"split: cannot split {input.shape} into {k} groups on axis {axis}")
    if k == 1:
        return [input]
    c = input.shape[axis] // k

    def part(lo):
        i = _along(axis, lo, lo + c)

        def dinput(g):
            full = np.zeros_like(input.data)
            full[i] = g
            return full

        return _node(input.data[i], (input, dinput))

    return [part(lo) for lo in range(0, k * c, c)]


def maxpool2d(input: Tensor) -> Tensor:
    """2x2 max pooling with stride 2, on the four strided views
    x[:, :, i::2, j::2] (the window taps in row-major order).

    Ties route the gradient to the first tap, in row-major window order,
    that equals the output. Contract: the output values and, for a finite
    upstream gradient, the input gradient are bit for bit those of the
    transposed-window argmax formulation kept as the test oracle. Only the
    sign of a zero output may differ when a window ties -0.0 with +0.0. A
    NaN input gives a NaN output, and no gradient reaches its window.
    """
    if input.data.ndim != 4:
        raise ValueError(f"maxpool2d expects 4d input, got {input.shape}")
    h, w = input.shape[2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2d requires even spatial dims, got {h}x{w}")
    x = input.data
    taps = [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]
    out = np.maximum(np.maximum(taps[0], taps[1]), np.maximum(taps[2], taps[3]))

    def dinput(g):
        dx = np.empty_like(x)
        free = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for k, tap in enumerate(taps):
            hit = tap == out
            hit &= free
            free ^= hit
            np.multiply(g, hit, out=dx[:, :, k // 2::2, k % 2::2])
        return dx

    return _node(out, (input, dinput))


def upsample_nearest(input: Tensor) -> Tensor:
    """Nearest-neighbour upsampling by a factor of 2 in both spatial dims.

    The gradient sums each 2x2 block of g from its four strided views as
    (g00 + g01) + (g10 + g11): bit for bit the reshape-and-sum over the
    two length-2 axes kept as the test oracle.
    """
    if input.data.ndim != 4:
        raise ValueError(f"upsample_nearest expects 4d input, got {input.shape}")
    return _node(input.data.repeat(2, axis=2).repeat(2, axis=3),
                 (input, lambda g: (g[:, :, 0::2, 0::2] + g[:, :, 0::2, 1::2])
                  + (g[:, :, 1::2, 0::2] + g[:, :, 1::2, 1::2])))


# ---------------------------------------------------------------------------
# recurrent cells


def lstm_cell(pre: Tensor, cell: Tensor,
              peepholes: tuple[Tensor, Tensor, Tensor]) -> tuple[Tensor, Tensor]:
    """The pointwise half of a peephole ConvLSTM step: (C_t, H_t) from the
    (N, 4C, H, W) conv pre-activations, in u/f/o/c channel blocks, the
    previous cell state C_{t-1} of shape (N, C, H, W), and the u/f/o
    peepholes of shape (C, H, W):

        g = sigmoid(a_g + p_g * C_{t-1})  for the gates g = u, f, o
        C_t = f * C_{t-1} + u * tanh(a_c)
        H_t = o * tanh(C_t)

    Contract: the values are bit for bit those of the split, broadcast_mul,
    add, sigmoid, tanh and mul chain kept as the test oracle; the gradients
    match it up to summation order. Two tape nodes: C_t with edges (pre,
    C_{t-1}, p_u, p_f), and H_t with edges (pre, C_{t-1}, p_o, C_t).
    """
    shape = cell.shape
    if (len(shape) != 4 or pre.shape != (shape[0], 4 * shape[1]) + shape[2:]
            or len(peepholes) != 3
            or any(p.shape != shape[1:] for p in peepholes)):
        raise ValueError(
            f"lstm_cell: pre-activations {pre.shape}, cell {shape} and "
            f"peepholes {[p.shape for p in peepholes]} do not agree")
    a, c, ch = pre.data, cell.data, shape[1]
    p_u, p_f, p_o = peepholes
    u, f, o = (_sigmoid(a[:, k * ch:(k + 1) * ch] + p.data * c)
               for k, p in enumerate(peepholes))
    tc = np.tanh(a[:, 3 * ch:])
    c_t = f * c + u * tc
    t_ct = np.tanh(c_t)

    def blocks(*parts):  # the gradient at pre from its u/f/o/c blocks
        zero = np.zeros(c.shape)
        return np.concatenate(
            [zero if part is None else part for part in parts], axis=1)

    # each node prepares (g, the gradients at its gates' sigmoid inputs)
    c_node = _node(
        c_t,
        (pre, lambda d: blocks(d[1], d[2], None, d[0] * u * (1.0 - tc * tc))),
        (cell, lambda d: d[0] * f + d[1] * p_u.data + d[2] * p_f.data),
        (p_u, lambda d: (d[1] * c).sum(axis=0)),
        (p_f, lambda d: (d[2] * c).sum(axis=0)),
        prepare=lambda g: (g, g * tc * u * (1.0 - u), g * c * f * (1.0 - f)))
    h_node = _node(
        o * t_ct,
        (pre, lambda d: blocks(None, None, d[1], None)),
        (cell, lambda d: d[1] * p_o.data),
        (p_o, lambda d: (d[1] * c).sum(axis=0)),
        (c_node, lambda d: d[0] * o * (1.0 - t_ct * t_ct)),
        prepare=lambda g: (g, g * t_ct * o * (1.0 - o)))
    return c_node, h_node
