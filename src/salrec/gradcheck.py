"""Central finite-difference verification of the analytic gradients.

Used by the test suite and by the `gradcheck` CLI command. Relative error is
|analytic - numeric| / max(|analytic|, |numeric|, 1e-8), elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import recurrence as rec
from .layers import ParameterRegistry
from .model import ALPHA_PARAM, ModelConfig, build
from .tensor import (Tensor, add, backward, concat, conv2d, maxpool2d, mul,
                     relu, scale, sigmoid, split, tanh, tsum, upsample_nearest)
from .training import bce_loss

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4


def max_rel_error(fn: Callable[[], Tensor], tensors: Sequence[Tensor],
                  h: float = DEFAULT_H,
                  max_coords: Optional[int] = None,
                  rng: Optional[np.random.Generator] = None) -> float:
    """Compare analytic gradients of the scalar fn() against central finite
    differences over every (or a sampled subset of) coordinate."""
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
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(flat.size, size=max_coords, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = fn().item()
            flat[i] = orig - h
            down = fn().item()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            ana = a.reshape(-1)[i]
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _rand(rng, *shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape))


def check_tensor_ops(seed: int = 0, tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    x = _rand(rng, 1, 2, 6, 6)
    k = _rand(rng, 3, 2, 3, 3)
    b = _rand(rng, 3)
    results.append(GradCheckResult(
        "conv2d", max_rel_error(lambda: tsum(conv2d(x, k, b, padding=1)),
                                [x, k, b]), tol))
    x2 = _rand(rng, 1, 2, 4, 4)
    results.append(GradCheckResult(
        "maxpool2d", max_rel_error(lambda: tsum(mul(maxpool2d(x2), maxpool2d(x2))),
                                   [x2]), tol))
    x3 = _rand(rng, 1, 2, 3, 3)
    results.append(GradCheckResult(
        "upsample_nearest",
        max_rel_error(lambda: tsum(mul(upsample_nearest(x3), upsample_nearest(x3))),
                      [x3]), tol))
    for op in (sigmoid, tanh, relu):
        xa = _rand(rng, 5, 5)
        if op is relu:  # keep the checker away from the kink at 0
            xa.data[np.abs(xa.data) < 1e-3] = 0.5
        results.append(GradCheckResult(
            op.__name__, max_rel_error(lambda: tsum(op(xa)), [xa]), tol))
    a, bb = _rand(rng, 4, 4), _rand(rng, 4, 4)
    results.append(GradCheckResult(
        "elementwise", max_rel_error(
            lambda: tsum(mul(add(a, bb), scale(mul(a, bb), 0.5))), [a, bb]), tol))
    # conv2d geometries beyond 3x3/padding 1, each under tsum(y*y) so the
    # upstream gradient 2y is non-uniform and exposes layout errors
    for name, xs, ks, padding in (
            ("conv2d 1x1 padding 0", (1, 3, 4, 4), (2, 3, 1, 1), 0),
            ("conv2d padding 2", (1, 2, 5, 5), (3, 2, 3, 3), 2),
            ("conv2d N=2", (2, 2, 4, 4), (3, 2, 3, 3), 1)):
        xc, kc, bc = _rand(rng, *xs), _rand(rng, *ks), _rand(rng, ks[0])

        def conv_sq(xc=xc, kc=kc, bc=bc, padding=padding):
            y = conv2d(xc, kc, bc, padding=padding)
            return tsum(mul(y, y))

        results.append(GradCheckResult(
            name, max_rel_error(conv_sq, [xc, kc, bc]), tol))
    xa, xb = _rand(rng, 1, 2, 3, 3), _rand(rng, 1, 3, 3, 3)
    results.append(GradCheckResult("concat", max_rel_error(
        lambda: tsum(mul(concat(xa, xb, axis=1), concat(xa, xb, axis=1))),
        [xa, xb]), tol))
    xs = _rand(rng, 2, 4, 3, 3)

    def split_mix():  # the last channel group goes unused: zero gradient
        p = split(xs, 4, axis=1)
        return tsum(add(mul(p[0], p[1]), mul(p[2], p[2])))

    results.append(GradCheckResult(
        "split", max_rel_error(split_mix, [xs]), tol))
    # pooling over a frame stack, the shape training runs
    xm, xu = _rand(rng, 3, 2, 4, 4), _rand(rng, 3, 2, 3, 3)
    results.append(GradCheckResult("maxpool2d N=3", max_rel_error(
        lambda: tsum(mul(maxpool2d(xm), maxpool2d(xm))), [xm]), tol))
    results.append(GradCheckResult("upsample_nearest N=3", max_rel_error(
        lambda: tsum(mul(upsample_nearest(xu), upsample_nearest(xu))), [xu]), tol))
    return results


def check_recurrence(seed: int = 0, tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    rng = np.random.default_rng(seed)
    results = []

    frames = [_rand(rng, 1, 1, 2, 2) for _ in range(5)]

    def ema_unroll(cfg):  # the summed squares of a 5-frame EMA's outputs
        state = rec.EmaState()
        total = None
        for f in frames:
            out, state = rec.ema_step(f, state, cfg)
            s = tsum(mul(out, out))
            total = s if total is None else add(total, s)
        return total

    cfg = rec.EmaConfig(alpha=0.3)
    results.append(GradCheckResult(
        "ema_step (5-frame unroll)",
        max_rel_error(lambda: ema_unroll(cfg), frames), tol))

    tcfg = rec.EmaConfig(alpha=0.3, trainable=True)
    tcfg.init_trainable(ParameterRegistry(), ALPHA_PARAM)
    results.append(GradCheckResult(
        "trainable alpha", max_rel_error(lambda: ema_unroll(tcfg), [tcfg.p]),
        tol))

    reg2 = ParameterRegistry()
    w = rec.ConvLstmWeights(reg2, "clstm", 2, 2, (3, 3),
                            np.random.default_rng(seed + 1))
    lframes = [_rand(rng, 1, 2, 3, 3, lo=-1, hi=1) for _ in range(5)]
    params = [reg2[n] for n in reg2.names()]
    # fixed, positive, non-uniform upstream weights on C_t + H_t let the o
    # gate reach the loss within its own step; through later convs alone
    # its terms can cancel to a gradient below finite-difference resolution
    upstream = Tensor(np.linspace(0.5, 1.5, 18).reshape(1, 2, 3, 3))

    def clstm_run():
        state = rec.ConvLstmState.zeros(1, 2, 3, 3)
        total = None
        for f in lframes:
            out, state = rec.convlstm_step(f, state, w)
            s = tsum(mul(add(out, state.hidden), upstream))
            total = s if total is None else add(total, s)
        return total

    results.append(GradCheckResult(
        "convlstm_step (5-frame unroll)",
        max_rel_error(clstm_run, params + lframes, max_coords=6,
                      rng=np.random.default_rng(seed + 2)), tol))
    return results


def check_loss(seed: int = 0, tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    rng = np.random.default_rng(seed)
    pred = Tensor(rng.uniform(0.05, 0.95, size=(4, 4)))
    gt = Tensor(rng.uniform(0.0, 1.0, size=(4, 4)))
    return [GradCheckResult(
        "bce_loss", max_rel_error(lambda: bce_loss(pred, gt), [pred]), tol)]


def check_model(seed: int = 0, tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    """Gradient of a 3-frame clip w.r.t. every parameter of a tiny model
    with EMA at the bottleneck (sampled coordinates), on the path training
    runs: one `forward_frame` over the clip's stack. The loss is a fixed
    random projection of the maps, not BCE (which `check_loss` covers):
    BCE's mean over the clip left some gradients near 1e-7, where the
    loss's roundoff limits the central difference. The biases get a
    nonzero draw, so that no pre-activation sits exactly on a ReLU kink,
    where central differences read a slope of 1/2."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(input_size=(8, 8), stages=2, base_channels=2,
                      recurrence="ema", alpha=0.3, seed=seed)
    model = build(cfg)
    for name, p in model.registry.items():
        if name.endswith(".bias"):
            p.data[...] = rng.uniform(-0.5, 0.5, size=p.shape)
    frames = Tensor(rng.uniform(0, 1, size=(3, 1, 8, 8)))
    weights = Tensor(rng.normal(size=(3, 1, 8, 8)))

    def run():
        return tsum(mul(model.forward_frame(frames, model.fresh_states()), weights))

    params = [model.registry[n] for n in model.registry.names()]
    return [GradCheckResult(
        "model clip loss", max_rel_error(run, params, max_coords=4,
                                         rng=np.random.default_rng(seed + 3)),
        tol)]


MODULE_CHECKS = {
    "tensor": check_tensor_ops,
    "recurrence": check_recurrence,
    "loss": check_loss,
    "model": check_model,
}


def run_checks(modules: Sequence[str], seed: int = 0,
               tol: float = DEFAULT_TOL) -> list[GradCheckResult]:
    results = []
    for m in modules:
        if m not in MODULE_CHECKS:
            raise ValueError(f"unknown gradcheck module {m!r}")
        results.extend(MODULE_CHECKS[m](seed=seed, tol=tol))
    return results
