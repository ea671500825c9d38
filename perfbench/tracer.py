"""Call tracing for the benchmark's traced run.

The tracer replaces, for the duration of one unit of work, every binding of
a salrec public function (and a few methods) with a wrapper that records a
span: inclusive time, self time (inclusive minus traced children) and a call
count. Tensor ops additionally wrap the backward closure of the tensor they
return, so backward time is attributed both to the op and to every span that
was open when the tensor was created (a layer, a recurrence step, the loss).
Work counts (flops, bytes, tape nodes, thresholds) are taken at the same
boundaries; the time spent computing them is excluded from the spans.

Nothing in the program changes: wrappers pass arguments and results through
unchanged, so a traced unit produces the same bytes as an untraced one.
"""

from __future__ import annotations

import os
import sys
import weakref
from collections import defaultdict
from time import perf_counter

import numpy as np

ELEMENTWISE = ("add", "sub", "mul", "broadcast_mul", "scale", "add_const",
               "sigmoid", "tanh", "relu", "log", "clamp", "tsum", "tmean")
LAYER_NAMES = ("enc1", "enc2", "enc3", "dec1", "dec2", "dec3", "head")
METRIC_FUNCS = ("auc_judd", "auc_shuffled", "nss", "cc", "sim")


def rebind(module, attr, make_wrapper) -> list:
    """Point every salrec module attribute that holds `module.attr` at
    make_wrapper(module.attr); returns the (owner, name, old value) patches.
    Benchmark code calls salrec through module attributes so it sees them."""
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    patches = []
    for key, mod in list(sys.modules.items()):
        if key != "salrec" and not key.startswith("salrec."):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, name, value))
                setattr(mod, name, wrapper)
    return patches


def rebind_method(cls, attr, make_wrapper) -> list:
    """Replace cls.attr by make_wrapper(cls.attr); returns the patch."""
    original = cls.__dict__[attr]
    setattr(cls, attr, make_wrapper(original))
    return [(cls, attr, original)]


def restore(patches: list) -> None:
    while patches:
        owner, name, value = patches.pop()
        setattr(owner, name, value)


class Tracer:
    """Span and count recorder; `install()` patches, `uninstall()` restores."""

    def __init__(self):
        self.incl = defaultdict(float)  # seconds, traced children included
        self.self_time = defaultdict(float)  # seconds, traced children excluded
        self.bwd = defaultdict(float)  # backward-closure seconds per open span
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.last = {}  # last observed value of a count (sizes)
        self._stack = []  # open spans: [name, child seconds, bookkeeping seconds]
        self._patches = []
        self._conv_names = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        """Call fn inside a span; returns (result, inclusive seconds)."""
        stack = self._stack
        frame = [name, 0.0, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            incl = dt - frame[2]
            self.incl[name] += incl
            self.self_time[name] += incl - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += incl
                stack[-1][2] += frame[2]
        return out, incl

    def _book(self, t0):
        """Exclude bookkeeping since t0 from the innermost open span."""
        if self._stack:
            self._stack[-1][2] += perf_counter() - t0

    def _timed(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            out, _ = self._span(name, fn, args, kwargs)
            if after is not None:
                t0 = perf_counter()
                after(args, kwargs, out)
                self._book(t0)
            return out
        return wrapper

    def _tensor_op(self, name, fn, count=None):
        """Span around a tensor op plus a span around its backward closure."""
        def wrapper(*args, **kwargs):
            out, _ = self._span(name, fn, args, kwargs)
            t0 = perf_counter()
            if count is not None:
                count(args, kwargs, out)
            bwd = out._backward_fn
            if bwd is not None:
                scopes = tuple(f[0] for f in self._stack)
                out._backward_fn = lambda g: self._backward(name, scopes, bwd, g)
            self._book(t0)
            return out
        return wrapper

    def _backward(self, name, scopes, bwd, g):
        _, incl = self._span(name + ".bwd", bwd, (g,), {})
        for scope in scopes:
            self.bwd[scope] += incl

    # -- counts --------------------------------------------------------------

    def _count_conv(self, args, kwargs, out):
        kernel = args[1] if len(args) > 1 else kwargs["kernel"]
        bias = args[2] if len(args) > 2 else kwargs.get("bias")
        x = args[0] if args else kwargs["input"]
        n, cout, ho, wo = out.shape
        _, cin, kh, kw = kernel.shape
        self.counts["tensor.conv2d.flop"] += 2 * n * ho * wo * cout * cin * kh * kw
        nbytes = x.data.nbytes + kernel.data.nbytes + out.data.nbytes
        if bias is not None:
            nbytes += bias.data.nbytes
        self.counts["tensor.conv2d.bytes"] += nbytes

    def _count_tape(self, args, kwargs, tape):
        self.counts["tensor.tape_nodes"] += len(tape.ops)

    def _count_params(self, args, kwargs, out):
        self.counts["training.adam_step.params"] += sum(
            p.size for _, p in args[0].registry.items())

    def _checkpoint_size(self, args, kwargs, out):
        self.last["training.checkpoint_bytes"] = os.path.getsize(args[0])

    def _count_frames(self, args, kwargs, samples):
        self.counts["data.frames_read"] += sum(len(s.frames) for s in samples)

    def _sauc_pool(self, fn):
        def wrapper(pred, fix, other_fix, *args, **kwargs):
            t0 = perf_counter()
            self.counts["metrics.sauc_pool_points"] += sum(
                len(f.points) for f in other_fix)
            self._book(t0)
            return fn(pred, fix, other_fix, *args, **kwargs)
        return wrapper

    def _thresholds(self, fn):
        def wrapper(pos, neg):
            t0 = perf_counter()
            self.counts["metrics.auc_thresholds"] += np.unique(
                np.concatenate([pos, neg])).size
            self._book(t0)
            return fn(pos, neg)
        return wrapper

    def _forward_frame(self, fn):
        def wrapper(model, *args, **kwargs):
            t0 = perf_counter()
            if model.head not in self._conv_names:
                for k, conv in enumerate(model.enc_convs, start=1):
                    self._conv_names[conv] = f"layers.enc{k}"
                for k, conv in enumerate(model.dec_convs, start=1):
                    self._conv_names[conv] = f"layers.dec{k}"
                self._conv_names[model.head] = "layers.head"
            self._book(t0)
            out, _ = self._span("model.forward_frame", fn, (model,) + args, kwargs)
            return out
        return wrapper

    def _conv_layer(self, fn):
        def wrapper(layer, x):
            out, _ = self._span(self._conv_names[layer], fn, (layer, x), {})
            return out
        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch_function(self, module, attr, make_wrapper):
        self._patches += rebind(module, attr, make_wrapper)

    def _patch_method(self, cls, attr, make_wrapper):
        self._patches += rebind_method(cls, attr, make_wrapper)

    def install(self):
        from salrec import data, layers, metrics, model, tensor, training

        self._patch_function(tensor, "conv2d", lambda f: self._tensor_op(
            "tensor.conv2d", f, self._count_conv))
        for op in ("maxpool2d", "upsample_nearest"):
            self._patch_function(tensor, op, lambda f, op=op: self._tensor_op(
                f"tensor.{op}", f))
        for op in ELEMENTWISE:
            self._patch_function(tensor, op, lambda f: self._tensor_op(
                "tensor.elementwise", f))
        self._patch_function(tensor, "backward", lambda f: self._timed(
            "tensor.backward", f, self._count_tape))
        self._patch_method(layers.ConvLayer, "__call__", self._conv_layer)
        for step in ("ema_step", "convlstm_step"):
            self._patch_function(model, step, lambda f, step=step: self._timed(
                f"recurrence.{step}", f))
        self._patch_method(model.Model, "forward_frame", self._forward_frame)
        self._patch_method(model.Model, "predict_sequence", lambda f: self._timed(
            "model.predict_sequence", f))
        for fn in ("train_clip", "bce_loss"):
            self._patch_function(training, fn, lambda f, fn=fn: self._timed(
                f"training.{fn}", f))
        self._patch_method(training.Adam, "step", lambda f: self._timed(
            "training.adam_step", f, self._count_params))
        self._patch_function(training, "save_checkpoint", lambda f: self._timed(
            "training.save_checkpoint", f, self._checkpoint_size))
        self._patch_function(training, "load_checkpoint", lambda f: self._timed(
            "training.load_checkpoint", f, self._checkpoint_size))
        # the one private function: every AUC sweep goes through it
        self._patch_function(metrics, "_auc_from_scores", self._thresholds)
        self._patch_function(metrics, "auc_shuffled", self._sauc_pool)
        for fn in METRIC_FUNCS + ("evaluate_predictions",):
            self._patch_function(metrics, fn, lambda f, fn=fn: self._timed(
                f"metrics.{fn}", f))
        self._patch_function(data, "generate", lambda f: self._timed(
            "data.generate", f))
        self._patch_function(data, "write_dataset", lambda f: self._timed(
            "data.write_dataset", f))
        self._patch_function(data, "read_dataset", lambda f: self._timed(
            "data.read_dataset", f, self._count_frames))

    def uninstall(self):
        restore(self._patches)

    def add_data_spans(self, other: "Tracer") -> None:
        """Fold another tracer's data-layer spans (taken during set-up) in."""
        for table in ("incl", "calls", "counts"):
            for key, value in getattr(other, table).items():
                if key.startswith("data."):
                    getattr(self, table)[key] += value

    # -- report --------------------------------------------------------------

    def metrics(self, frames: int, overhead_frac: float) -> dict:
        """Per-layer table as {name: (value, unit)}; times are ms per traced
        workload frame. Forward times of layers, recurrence steps and the
        loss include the tensor ops they call; tensor.* and *.self_ms times
        exclude every traced callee. A layer's bwd_ms is the backward time of
        the tensors created inside it."""
        ms = 1e3 / frames
        out = {}

        def per(total, n):
            return total / n if n else 0.0

        def put(name, value, unit):
            out[name] = (value, unit)

        put("tensor.conv2d.calls", self.calls["tensor.conv2d"] / frames, "count/frame")
        put("tensor.conv2d.fwd_ms", self.self_time["tensor.conv2d"] * ms, "ms/frame")
        put("tensor.conv2d.bwd_ms", self.incl["tensor.conv2d.bwd"] * ms, "ms/frame")
        put("tensor.conv2d.mflop", self.counts["tensor.conv2d.flop"] / 1e6 / frames,
            "Mflop/frame")
        put("tensor.conv2d.mbytes", self.counts["tensor.conv2d.bytes"] / 1e6 / frames,
            "MB/frame")
        for op in ("maxpool2d", "upsample_nearest", "elementwise"):
            put(f"tensor.{op}.fwd_ms", self.self_time[f"tensor.{op}"] * ms, "ms/frame")
            put(f"tensor.{op}.bwd_ms", self.incl[f"tensor.{op}.bwd"] * ms, "ms/frame")
        put("tensor.backward.ms", self.self_time["tensor.backward"] * ms, "ms/frame")
        put("tensor.tape_nodes", per(self.counts["tensor.tape_nodes"],
                                     self.calls["tensor.backward"]), "count/clip")
        for layer in LAYER_NAMES:
            put(f"layers.{layer}.fwd_ms", self.incl[f"layers.{layer}"] * ms, "ms/frame")
            put(f"layers.{layer}.bwd_ms", self.bwd[f"layers.{layer}"] * ms, "ms/frame")
        for step in ("convlstm_step", "ema_step"):
            name = f"recurrence.{step}"
            put(f"{name}.calls", self.calls[name] / frames, "count/frame")
            put(f"{name}.fwd_ms", self.incl[name] * ms, "ms/frame")
            put(f"{name}.bwd_ms", self.bwd[name] * ms, "ms/frame")
        put("model.forward_frame.calls", self.calls["model.forward_frame"] / frames,
            "count/frame")
        put("model.forward_frame.self_ms", self.self_time["model.forward_frame"] * ms,
            "ms/frame")
        put("model.predict_sequence_ms", self.incl["model.predict_sequence"] * ms,
            "ms/frame")
        put("training.train_clip.self_ms", self.self_time["training.train_clip"] * ms,
            "ms/frame")
        put("training.bce_loss.fwd_ms", self.incl["training.bce_loss"] * ms, "ms/frame")
        put("training.bce_loss.bwd_ms", self.bwd["training.bce_loss"] * ms, "ms/frame")
        put("training.adam_step.ms", self.incl["training.adam_step"] * ms, "ms/frame")
        put("training.adam_step.params", per(self.counts["training.adam_step.params"],
                                             self.calls["training.adam_step"]),
            "count/step")
        put("training.save_checkpoint.ms", self.incl["training.save_checkpoint"] * ms,
            "ms/frame")
        put("training.load_checkpoint.ms", self.incl["training.load_checkpoint"] * ms,
            "ms/frame")
        put("training.checkpoint_bytes", self.last.get("training.checkpoint_bytes", 0),
            "bytes")
        for fn in METRIC_FUNCS:
            put(f"metrics.{fn}.ms", self.incl[f"metrics.{fn}"] * ms, "ms/frame")
        put("metrics.evaluate_predictions.self_ms",
            self.self_time["metrics.evaluate_predictions"] * ms, "ms/frame")
        put("metrics.auc_thresholds", self.counts["metrics.auc_thresholds"] / frames,
            "count/frame")
        put("metrics.sauc_pool_points", per(self.counts["metrics.sauc_pool_points"],
                                            self.calls["metrics.auc_shuffled"]),
            "count/call")
        for fn in ("generate", "write_dataset", "read_dataset"):
            put(f"data.{fn}_s", per(self.incl[f"data.{fn}"], self.calls[f"data.{fn}"]),
                "s/call")
        put("data.frames_read", per(self.counts["data.frames_read"],
                                    self.calls["data.read_dataset"]), "count/call")
        put("trace.overhead_frac", overhead_frac, "ratio")
        return out
