"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the `gradcheck` CLI command. Relative error is
|analytic - numeric| / max(|analytic|, |numeric|, 1e-8), elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np

from . import model as model_module
from . import recurrence as rec
from .layers import ParameterRegistry
from .model import ModelConfig, build
from .tensor import (Tensor, add, add_const, backward, bce, broadcast_mul,
                     clamp, conv2d, log, maxpool2d, mul, no_grad, relu, scale,
                     sigmoid, sub, tanh, tmean, tsum, upsample_conv3x3,
                     upsample_nearest)

H = 1e-5  # central-difference step
TOL = 1e-4  # every check's bound on the relative error
# the least distance of the model probe's clip from a kink (`kink_distance`):
# one step of H in a parameter moved a ReLU input by up to 2.7e-5 over the
# probes of seeds 0-39, so a pool window's top-two gap by up to twice that
KINK_GAP = 1e-3


def max_rel_error(fn: Callable[[], Tensor], tensors: Sequence[Tensor],
                  max_coords: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> float:
    """Compare analytic gradients of the scalar fn() against central finite
    differences over every coordinate of each tensor, or over `max_coords`
    of them drawn from `rng`."""
    for t in tensors:
        t.requires_grad = True
        t.zero_grad()
    loss = fn()
    backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        coords = np.arange(flat.size)
        if max_coords is not None and flat.size > max_coords:
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + H
            up = fn().item()
            flat[i] = orig - H
            down = fn().item()
            flat[i] = orig
            numeric = (up - down) / (2 * H)
            ana = a.reshape(-1)[i]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < TOL


def _rand(rng, *shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


def _uniform(*shape, lo=-2.0, hi=2.0):
    """An input maker: rng -> values uniform in [lo, hi)."""
    return lambda rng: _rand(rng, *shape, lo=lo, hi=hi)


def _positive(*shape):
    """An input maker: rng -> values uniform in [0.5, 2)."""
    return _uniform(*shape, lo=0.5, hi=2.0)


def _away_from(*points):
    """An input maker: rng -> a (3, 4) matrix of values in [-2, 2] at least
    0.2 from every point, so that no probe crosses a kink."""
    def make(rng):
        x = rng.uniform(-2.0, 2.0, size=(3, 4))
        for p in points:
            near = np.abs(x - p) < 0.2
            x[near] = p + np.where(x[near] < p, -0.2, 0.2)
        return Tensor(x)
    return make


_MATRIX = _uniform(3, 4)
_BCE_TARGET = Tensor([[0.0, 1.0, 0.55], [0.8, 0.0, 1.0]])

# name -> (op, one input maker per input). A name's first "-"-separated
# word is the tensor op it checks; `check_op` runs the op alone under a
# fixed random projection of its output with weights in [0.5, 1.5], so
# every output element reaches the loss with its own weight, and no
# gradient cancels over the elements.
OP_CASES = {
    # conv2d's gradients sum products of the projection weights with the
    # kernel (input gradient) or with the input (kernel gradient). A
    # positive kernel and input keep every sum from cancelling to near
    # zero, where the central difference's roundoff (about eps*|loss|/H) is
    # a large share of the element: inputs in [-2, 2] read 1.34e-5 at seed
    # 136 under normal weights, and 1.7e-6 at seed 91 under positive ones.
    # These rows read at most 3.8e-9 over seeds 0-199 (seed 24; 1.7e-9 for
    # conv2d-1x1)
    "conv2d": (conv2d,
               (_positive(2, 2, 5, 5), _positive(3, 2, 3, 3), _uniform(3))),
    "conv2d-1x1": (conv2d,
                   (_positive(1, 3, 4, 4), _positive(2, 3, 1, 1),
                    _uniform(2))),
    # pooling over a frame stack, the shape training runs
    "maxpool2d": (maxpool2d, (_uniform(3, 2, 4, 4),)),
    "upsample_nearest": (upsample_nearest, (_uniform(3, 2, 3, 3),)),
    # a positive kernel and input, as for conv2d; Cin != Cout on a
    # non-square map. At most 1.2e-9 over seeds 0-199 (seed 156)
    "upsample_conv3x3": (upsample_conv3x3,
                         (_positive(2, 2, 3, 4), _positive(3, 2, 3, 3),
                          _uniform(3))),
    "sigmoid": (sigmoid, (_MATRIX,)),
    "tanh": (tanh, (_MATRIX,)),
    "relu": (relu, (_away_from(0.0),)),
    "add": (add, (_MATRIX, _MATRIX)),
    "sub": (sub, (_MATRIX, _MATRIX)),
    "mul": (mul, (_MATRIX, _MATRIX)),
    "broadcast_mul-0d": (broadcast_mul, (_uniform(1, 2, 3, 3), _uniform())),
    "broadcast_mul-chw": (broadcast_mul,
                          (_uniform(2, 3, 2, 2), _uniform(3, 2, 2))),
    "scale": (lambda x: scale(x, -1.5), (_MATRIX,)),
    "add_const": (lambda x: add_const(x, 0.7), (_MATRIX,)),
    "log": (log, (_uniform(3, 4, lo=0.5, hi=2.0),)),
    "clamp": (lambda x: clamp(x, -1.0, 1.0), (_away_from(-1.0, 1.0),)),
    "tsum": (tsum, (_MATRIX,)),
    "tmean": (tmean, (_MATRIX,)),
    # the pixel gradient is (1 - q)/(1 - p) - q/p over the pixel count,
    # near zero where the target q nears the prediction p; predictions in
    # [0.05, 0.45], inside the clamp, against targets of 0 or at least 0.55
    # keep it at least 0.4 in magnitude: 1.4e-8 at worst over seeds 0-199
    "bce": (lambda p: bce(p, _BCE_TARGET),
            (_uniform(2, 3, lo=0.05, hi=0.45),)),
}


def check_op(name: str, seed: int = 0) -> float:
    """The worst relative error of the `OP_CASES` row `name` at `seed`."""
    op, makers = OP_CASES[name]
    rng = np.random.default_rng(seed)
    inputs = [make(rng) for make in makers]
    weights = Tensor(rng.uniform(0.5, 1.5, size=op(*inputs).shape))
    return max_rel_error(lambda: tsum(mul(op(*inputs), weights)), inputs)


def check_tensor_ops(seed: int = 0) -> list[GradCheckResult]:
    return [GradCheckResult(name, check_op(name, seed)) for name in OP_CASES]


# frames per call of each recurrence probe: a stack from a fresh state, a
# one-frame call (the default `frames=1`), and a stack that carries the state in
CALLS = (2, 1, 2)


def check_recurrence(seed: int = 0) -> list[GradCheckResult]:
    """Each recurrence over five frames in the calls of CALLS, the state
    carried from call to call as training and prediction carry it, so one
    probe reaches the first-frame path of a scan, the one-frame path and
    the edges to a carried-in state. Each call's frames are a leaf of their
    own; the loss sums each call's outputs and its final state (the
    accumulator, or H)."""
    rng = np.random.default_rng(seed)
    frames = [_rand(rng, n, 1, 2, 2) for n in CALLS]

    def ema_run(cfg, residual):
        """The summed squares of the outputs, s_t + e_t under `residual` as
        `ema-residual` adds them, and of the accumulators."""
        state, terms = rec.EmaState(), []
        for s, n in zip(frames, CALLS):
            out, state = rec.ema_step(s, state, cfg, frames=n)
            if residual:
                out = add(s, out)
            acc = state.accumulator
            terms += [tsum(mul(out, out)), tsum(mul(acc, acc))]
        return reduce(add, terms)

    # alpha = sigmoid(-0.8) = 0.31: at p = 0, alpha = 1 - alpha, and a vjp
    # that swaps them goes unseen. Over seeds 0-199 at most 1.1e-6 (fixed
    # alpha, seed 11), 1.0e-7 (trainable, seed 197) and 5.1e-8 (residual,
    # seed 16)
    p = Tensor(np.asarray(-0.8))
    results = [GradCheckResult(name, max_rel_error(
        lambda: ema_run(cfg, residual),
        frames if cfg.p is None else [p] + frames))
        for name, cfg, residual in (
            ("ema_step", rec.EmaConfig(alpha=0.3), False),
            ("trainable alpha", rec.EmaConfig(p=p), False),
            ("ema-residual", rec.EmaConfig(alpha=0.3), True))]

    reg = ParameterRegistry()
    w = rec.ConvLstmWeights(reg, "clstm", 2, 2, (3, 3),
                            np.random.default_rng(seed + 1))
    # a positive kernel over frames in [0, 1] keeps every cell state and
    # candidate positive, so no gradient sums over the steps cancel to
    # near zero, where the central difference's roundoff is a large share
    # of the element: a signed kernel over frames in [-1, 1] put a
    # peephole gradient at 5e-7 and read 3.2e-5 at seed 183, the worst of
    # seeds 0-199; a positive one reads 1.2e-8 at worst (seed 49)
    w.kernel.data[...] = np.abs(w.kernel.data)
    lframes = [_rand(rng, n, 2, 3, 3, lo=0, hi=1) for n in CALLS]
    params = [reg[n] for n in reg.names()]
    # fixed, positive, non-uniform upstream weights on each C_t and H let the
    # o gate reach the loss within its own step; through later convs alone
    # its terms can cancel to below finite-difference resolution
    upstream = np.linspace(0.5, 1.5, 18).reshape(1, 2, 3, 3)

    def clstm_run():
        state, terms = rec.ConvLstmState.zeros(1, 2, 3, 3), []
        for s, n in zip(lframes, CALLS):
            out, state = rec.convlstm_step(s, state, w)
            terms += [tsum(mul(out, Tensor(np.tile(upstream, (n, 1, 1, 1))))),
                      tsum(mul(state.hidden, Tensor(upstream)))]
        return reduce(add, terms)

    return results + [GradCheckResult(
        "convlstm_step",
        max_rel_error(clstm_run, params + lframes, max_coords=6,
                      rng=np.random.default_rng(seed + 2)))]


def kink_distance(model, frames: Tensor) -> float:
    """How near `model.forward_frame` over `frames` comes to a kink: the
    least |x| over the inputs of its ReLUs, and the least gap between the
    top two taps of a max-pool window whose top tap is positive. While it
    runs, the model module's `relu` and `maxpool2d` are wrapped to look."""
    distances = []
    saved_relu, saved_pool = model_module.relu, model_module.maxpool2d

    def watch_relu(x):
        distances.append(np.abs(x.data).min())
        return saved_relu(x)

    def watch_pool(x):
        n, c, h, w = x.shape
        taps = np.sort(x.data.reshape(n, c, h // 2, 2, w // 2, 2)
                       .transpose(0, 1, 2, 4, 3, 5).reshape(-1, 4))
        top = taps[:, 3] > 0
        distances.append(np.min(taps[top, 3] - taps[top, 2], initial=np.inf))
        return saved_pool(x)

    model_module.relu, model_module.maxpool2d = watch_relu, watch_pool
    try:
        with no_grad():
            model.forward_frame(frames, model.fresh_states())
    finally:
        model_module.relu, model_module.maxpool2d = saved_relu, saved_pool
    return float(min(distances))


def check_model(seed: int = 0) -> list[GradCheckResult]:
    """Gradient of a 3-frame clip w.r.t. every parameter of a tiny model
    with EMA at the bottleneck (sampled coordinates), on the path training
    runs: one `forward_frame` over the clip's stack. The loss is a fixed
    random projection of the maps, not BCE (the `bce` row of OP_CASES):
    BCE's mean over the clip left some gradients near 1e-7, where the
    loss's roundoff limits the central difference. The biases and the clip
    are drawn again, from the same generator, until the clip keeps
    KINK_GAP from every kink, where a central difference that straddles it
    reads a slope between the two sides (a ReLU input 8.6e-6 from zero read
    2.3e-2 at seed 105). Over seeds 0-199, 116 probes were drawn again,
    at most 18 times."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(input_size=(8, 8), stages=2, base_channels=2,
                      recurrence="ema", alpha=0.3, seed=seed)
    model = build(cfg)
    biases = [p for name, p in model.registry.items() if name.endswith(".bias")]
    for _ in range(100):
        for p in biases:
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.shape)
        frames = Tensor(rng.uniform(0, 1, size=(3, 1, 8, 8)))
        if kink_distance(model, frames) >= KINK_GAP:
            break
    else:
        raise RuntimeError(f"seed {seed}: no probe clip clear of the kinks")
    weights = Tensor(rng.normal(size=(3, 1, 8, 8)))

    def run():
        return tsum(mul(model.forward_frame(frames, model.fresh_states()), weights))

    params = [model.registry[n] for n in model.registry.names()]
    return [GradCheckResult(
        "model clip loss", max_rel_error(run, params, max_coords=4,
                                         rng=np.random.default_rng(seed + 3)))]


MODULE_CHECKS = {
    "tensor": check_tensor_ops,
    "recurrence": check_recurrence,
    "model": check_model,
}


def run_checks(modules: Sequence[str], seed: int = 0) -> list[GradCheckResult]:
    results = []
    for m in modules:
        if m not in MODULE_CHECKS:
            raise ValueError(f"unknown gradcheck module {m!r}")
        results.extend(MODULE_CHECKS[m](seed=seed))
    return results
