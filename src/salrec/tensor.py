"""Minimal reverse-mode autodiff over dense float64 arrays.

Only the operations the saliency network needs are implemented:
2d convolution, 2x2 max pooling, nearest-neighbour upsampling, a 3x3
convolution over a nearest-upsampled map folded into one convolution of
the low-resolution map, sigmoid/relu, the elementwise product of the
dropout mask and the binary cross entropy; `add`, `mul` and `tsum` also
build the gradcheck's losses. No broadcasting except the conv bias over
the channel axis and `broadcast_mul`. Eight ops serve only test oracles
and perfbench's tracer: `sub`, `tanh`, `broadcast_mul`, `scale`,
`add_const`, `log`, `clamp` and `tmean`. They stay because the tracer's
`ELEMENTWISE` list looks each of them up by name (ROADMAP item 11).
`ema_step` and `convlstm_step` each build one node per frame stack with
`_node`.

Each op computes its value and gives `_node` one (parent, vjp) edge per
input; a vjp maps the upstream gradient to that parent's gradient. `_node`
keeps only the edges whose parent requires grad, and records the op only
if grad is on and an edge is left, so no op tests `requires_grad` itself.
An op whose vjps share work on the upstream gradient (the reverse loop
of a recurrence's scan) gives `_node` a `prepare` step that does it once
per backward call.
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
    "maxpool2d",
    "upsample_nearest",
    "upsample_conv3x3",
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
    "bce",
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
    """Elementwise product with numpy broadcasting, as of a scalar and a map."""
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


def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """The stride-1 k x k windows of the contiguous NCHW array xp, as a
    (C, k, k, N, H', W') view of it."""
    n, c, hp, wp = xp.shape
    sn, sc, sh, sw = xp.strides
    return np.ndarray((c, k, k, n, hp - k + 1, wp - k + 1), np.float64,
                      xp, 0, (sc, sh, sw, sn, sh, sw))


def _unwindow(dcols: np.ndarray) -> np.ndarray:
    """The input gradient of a same-size stride-1 conv from the gradient at
    its windows, shaped (N, H, W, C, k, k): the taps added in row-major
    order into a zeroed padded buffer, which is then cropped by k // 2;
    returns (N, C, H, W)."""
    n, h, w, c, k, _ = dcols.shape
    dxp = np.zeros((n, h + k - 1, w + k - 1, c))
    for i in range(k):
        for j in range(k):
            dxp[:, i:i + h, j:j + w] += dcols[..., i, j]
    p = k // 2
    return dxp[:, p:p + h, p:p + w].transpose(0, 3, 1, 2)


def conv2d(input: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Same-size 2d cross-correlation of NCHW input with an OIHW kernel, at
    stride 1: the kernel is square, k x k with k odd, and the input is
    zero-padded by k // 2 on each side, so the output keeps its H x W.
    Any other kernel raises ValueError. Bias, when given, is added per
    output channel (the one sanctioned broadcast).

    Layout: the input windows form a channel-major (Cin*k*k, N*H*W)
    matrix, rows in (Cin, kH, kW) order to match the kernel viewed as a
    (Cout, Cin*k*k) matrix, so building it copies whole output rows.
    The forward output is one (Cout, Cin*k*k) x (Cin*k*k, N*H*W) GEMM,
    and the kernel gradient one (Cout, N*H*W) x (N*H*W, Cin*k*k) GEMM.
    Contract, against the np.pad + sliding_window_view formulation kept
    as the test oracle: the input gradient (kernel taps (i, j) added in
    row-major order into a zeroed buffer) is exact, bit for bit; the
    forward output and the kernel gradient match it up to summation
    order, within the bounds the tests state.
    """
    if input.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d expects 4d input/kernel, got {input.shape} and {kernel.shape}")
    n, cin, h, w = input.shape
    cout, kcin, k, kw = kernel.shape
    if k != kw or k % 2 == 0:
        raise ValueError(
            f"conv2d needs a square kernel of odd size, got {kernel.shape}")
    if cin != kcin:
        raise ValueError(
            f"conv2d channel mismatch: input {input.shape} has Cin={cin}, "
            f"kernel {kernel.shape} expects Cin={kcin}")
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({cout},)")

    p, xp = k // 2, input.data  # a 1x1 kernel reads the input itself
    if p:
        xp = np.zeros((n, cin, h + 2 * p, w + 2 * p))
        xp[:, :, p:p + h, p:p + w] = input.data
    cols = _windows(xp, k).reshape(cin * k * k, n * h * w)
    kmat = kernel.data.reshape(cout, cin * k * k)
    out = kmat @ cols  # (Cout, N*H*W)
    if bias is not None:
        out += bias.data[:, None]
    out = out.reshape(cout, n, h, w).transpose(1, 0, 2, 3)

    def dinput(g):
        dcols = g.reshape(n, cout, h * w).transpose(0, 2, 1) @ kmat
        return _unwindow(dcols.reshape(n, h, w, cin, k, k))

    def dkernel(g):
        gk = g.reshape(n, cout, h * w).transpose(1, 0, 2).reshape(cout, n * h * w)
        return (gk @ cols.T).reshape(kernel.shape)

    edges = [(input, dinput), (kernel, dkernel)]
    if bias is not None:
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _node(out, *edges)


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


def _phase_fold() -> np.ndarray:
    """(4, 9, 9) 0/1 matrices: a row-major flattened 3x3 kernel times matrix
    2a + b is the kernel of output phase (a, b) of `upsample_conv3x3`.

    Output row 2i + a of a same-size 3x3 conv over a nearest-upsampled map
    reads input rows i-1, i, i (a = 0) or i, i, i+1 (a = 1), so kernel row
    r moves to phase kernel row rows[a][r]; the same holds for columns.
    """
    rows = ((0, 1, 1), (1, 1, 2))
    fold = np.zeros((4, 9, 9))
    for a, b, r, s in np.ndindex(2, 2, 3, 3):
        fold[2 * a + b, 3 * r + s, 3 * rows[a][r] + rows[b][s]] = 1.0
    return fold


_PHASE_FOLD = _phase_fold()
_PHASE_UNFOLD = np.ascontiguousarray(_PHASE_FOLD.transpose(0, 2, 1))


def upsample_conv3x3(input: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """conv2d(upsample_nearest(input), kernel, bias) for a 3x3 kernel, as
    one conv over the low-resolution input: each of the four output phases
    (a, b), the pixels (2i + a, 2j + b), is a 3x3 conv of the input whose
    kernel sums the taps that read the same input pixel.

    Three tape nodes: the fold of the (Cout, Cin, 3, 3) kernel into the
    (4*Cout, Cin, 3, 3) phase kernel (one batched matmul by 0/1 matrices),
    the `conv2d` of the input by the phase kernel, and the interleave of
    its four phase channel blocks into (N, Cout, 2H, 2W), with the bias
    added after it. Contract, against the conv over the upsampled map:
    the bias gradient is bit for bit; values and the input and kernel
    gradients match up to summation order, within the bounds the tests
    state.
    """
    if (input.data.ndim != 4 or kernel.data.ndim != 4
            or kernel.shape[1:] != (input.shape[1], 3, 3)
            or bias.shape != kernel.shape[:1]):
        raise ValueError(
            f"upsample_conv3x3: input {input.shape}, kernel {kernel.shape} "
            f"and bias {bias.shape} do not agree as (N, Cin, H, W), "
            f"(Cout, Cin, 3, 3) and (Cout,)")
    n, _, h, w = input.shape
    cout, cin = kernel.shape[:2]
    m = cout * cin
    phases = _node(
        np.matmul(kernel.data.reshape(m, 9), _PHASE_FOLD).reshape(4 * cout, cin, 3, 3),
        (kernel, lambda g: np.matmul(g.reshape(4, m, 9), _PHASE_UNFOLD)
         .sum(axis=0).reshape(kernel.shape)))
    z = conv2d(input, phases)  # (N, 4*Cout, H, W), phase-major
    # copy first: for a 1x1 map the reshape alone can be a view of z, and
    # the += would write into it
    out = z.data.reshape(n, 2, 2, cout, h, w).transpose(0, 3, 4, 1, 5, 2).copy()
    out = out.reshape(n, cout, 2 * h, 2 * w)
    out += bias.data[:, None, None]
    return _node(
        out,
        (z, lambda g: g.reshape(n, cout, h, 2, w, 2).transpose(0, 3, 5, 1, 2, 4)
         .reshape(n, 4 * cout, h, w)),
        (bias, lambda g: g.sum(axis=(0, 2, 3))))


# ---------------------------------------------------------------------------
# loss


BCE_CLAMP = 1e-7  # `bce` clips the prediction to [BCE_CLAMP, 1 - BCE_CLAMP]


def bce(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross entropy of `pred` against `target`, with pred
    clipped to [BCE_CLAMP, 1 - BCE_CLAMP] before the logs. No gradient
    reaches the target. Shapes must agree; the caller checks them.

    Contract: one tape node, where the clamp, scale, add_const, log, mul,
    add and tmean chain kept as the test oracle records ten, with its value
    and its gradient bit for bit, sign bits included. The forward evaluates
    the chain's numpy expressions in its order, and the vjp its backward's,
    masked by the clamp's inside set. The chain also adds 0.0 as it first
    fills each gradient buffer; that changes only the sign of a zero, which
    the first fill of the prediction's own buffer clears in both.
    """
    x, q = pred.data, target.data
    p = np.clip(x, BCE_CLAMP, 1.0 - BCE_CLAMP)
    one_minus_q = q * -1.0 + 1.0
    one_minus_p = p * -1.0 + 1.0
    ll = q * np.log(p) + one_minus_q * np.log(one_minus_p)

    def dpred(g):
        d = g.reshape(-1)[0] * -1.0 / x.size  # the sign's, then the mean's
        dp = d * q / p  # through log(p)
        dp -= d * one_minus_q / one_minus_p  # through log(1 - p)
        dp *= (x >= BCE_CLAMP) & (x <= 1.0 - BCE_CLAMP)
        return dp

    return _node(np.asarray(ll.mean()) * -1.0, (pred, dpred))
