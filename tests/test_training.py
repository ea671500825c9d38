import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from salrec.data import SynthConfig, generate
from salrec.layers import ParameterRegistry
from salrec.model import ModelConfig, build
from salrec.tensor import (BCE_CLAMP, ComputationTape, Tensor, add, add_const,
                           backward, clamp, log, mul, no_grad, scale, tmean)
import salrec.training as training_mod
from salrec.training import (Adam, TrainConfig, bce_loss, load_checkpoint,
                             save_checkpoint, train, train_clip, train_epoch)

LN2 = float(np.log(2.0))


def small_dataset(n_videos=2, frames=8, size=16, seed=0):
    return generate(SynthConfig(n_videos=n_videos, frames_per_video=frames,
                                height=size, width=size, seed=seed))


def small_model(seed=0, recurrence="ema", size=16, **kw):
    return build(ModelConfig(input_size=(size, size), stages=2,
                             base_channels=4, recurrence=recurrence,
                             alpha=0.2, seed=seed, **kw))


class TestBceLoss:
    def test_half_half_is_ln2(self):
        pred = Tensor(np.full((4, 4), 0.5))
        gt = Tensor(np.full((4, 4), 0.5))
        assert bce_loss(pred, gt).item() == pytest.approx(LN2, abs=1e-12)

    def test_perfect_binary_prediction_near_zero(self):
        gt = np.zeros((4, 4))
        gt[1, 2] = 1.0
        loss = bce_loss(Tensor(gt), Tensor(gt)).item()
        assert loss < 1e-6
        assert loss > 0.0

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0.01, 0.99, size=(4, 4))
        gt = rng.uniform(size=(4, 4))
        got = bce_loss(Tensor(pred), Tensor(gt)).item()
        total = 0.0
        for p, q in zip(pred.flat, gt.flat):
            total += q * np.log(p) + (1 - q) * np.log(1 - p)
        assert got == pytest.approx(-total / 16, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            bce_loss(Tensor(np.full((2, 2), 0.5)), Tensor(np.full((2, 3), 0.5)))

    def test_gt_out_of_range_rejected(self):
        for bad in (1.5, -0.5, np.nan):
            gt = np.full((2, 2), 0.5)
            gt[1, 0] = bad
            with pytest.raises(ValueError, match="ground truth"):
                bce_loss(Tensor(np.full((2, 2), 0.5)), Tensor(gt))

    def test_nonnegative_always(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            pred = rng.uniform(size=(3, 3))
            gt = rng.uniform(size=(3, 3))
            assert bce_loss(Tensor(pred), Tensor(gt)).item() >= 0.0


def chain_bce(pred, gt):
    """Oracle: `bce_loss` as the chain of single ops that `tensor.bce`
    replaces, ten tape nodes for a prediction that requires grad."""
    p = clamp(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    one_minus_q = add_const(scale(gt, -1.0), 1.0)
    one_minus_p = add_const(scale(p, -1.0), 1.0)
    ll = add(mul(gt, log(p)), mul(one_minus_q, log(one_minus_p)))
    return scale(tmean(ll), -1.0)


def loss_bits(loss_fn, pred, gt, upstream=1.0):
    """The bytes of the loss and of the prediction's gradient under a loss
    scaled by `upstream`."""
    x = Tensor(pred, requires_grad=True)
    loss = loss_fn(x, Tensor(gt))
    backward(scale(loss, upstream))
    return loss.data.tobytes(), x.grad.tobytes()


# the clamp's edges, a pixel either side of each, and values it clips
PRED_EDGES = [0.0, -0.0, BCE_CLAMP, 1.0 - BCE_CLAMP, 1.0,
              np.nextafter(BCE_CLAMP, 0.0), np.nextafter(1.0 - BCE_CLAMP, 1.0),
              -0.5, 1.5]


class TestBceOp:
    """`bce_loss`'s one tape node against the op chain it replaced
    (`chain_bce`): the loss and the prediction's gradient are bit-equal,
    sign bits included."""

    @pytest.mark.parametrize("p", [0.0, BCE_CLAMP, 1.0 - BCE_CLAMP, 1.0])
    @pytest.mark.parametrize("q", [0.0, 1.0])
    def test_clamp_edges_match_chain(self, p, q):
        pred, gt = np.full((2, 3), p), np.full((2, 3), q)
        assert loss_bits(bce_loss, pred, gt) == loss_bits(chain_bce, pred, gt)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, (2, 3), elements=st.one_of(
               st.sampled_from(PRED_EDGES), st.floats(-0.1, 1.1))),
           hnp.arrays(np.float64, (2, 3), elements=st.one_of(
               st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))),
           st.sampled_from([1.0, -2.5, 0.0, -0.0, 5e-324]))
    def test_matches_chain(self, pred, gt, upstream):
        assert loss_bits(bce_loss, pred, gt, upstream) == \
            loss_bits(chain_bce, pred, gt, upstream)

    def test_records_one_node(self):
        pred = Tensor(np.full((2, 3), 0.3), requires_grad=True)
        loss = bce_loss(pred, Tensor(np.full((2, 3), 0.6)))
        assert loss._parents == (pred,)
        assert ComputationTape(loss).ops == [loss]

    def test_nan_prediction_gives_nan_loss(self):
        pred = np.full((2, 3), 0.3)
        pred[1, 2] = np.nan
        assert np.isnan(bce_loss(Tensor(pred), Tensor(np.zeros((2, 3)))).item())

    def test_nan_prediction_raises_before_backward(self, monkeypatch):
        """A NaN that reaches the loss past the map guard stops `train_clip`
        before any gradient or update."""
        model = small_model()
        data = small_dataset()[0]
        forward = model.forward_frame

        def nan_forward(frames, states, rng):
            poison = np.zeros(frames.shape)
            poison[1, 0, 2, 3] = np.nan
            return add(forward(frames, states, rng), Tensor(poison))

        monkeypatch.setattr(model, "forward_frame", nan_forward)
        before = {n: p.data.copy() for n, p in model.registry.items()}
        opt = Adam(model.registry)
        with pytest.raises(RuntimeError, match="non-finite training loss nan"):
            train_clip(model, to_stack(data.frames[:3]),
                       to_stack(data.gt_maps[:3]), model.fresh_states(), opt,
                       "v0", np.random.default_rng(0))
        for name, p in model.registry.items():
            assert p.grad is None and np.array_equal(p.data, before[name])
        assert opt.t == 0


class TestAdam:
    def single_param(self, value=0.0):
        reg = ParameterRegistry()
        theta = reg.register("theta", Tensor(np.asarray(value)))
        return reg, theta

    def test_first_step_magnitude_is_lr(self):
        reg, theta = self.single_param(0.0)
        opt = Adam(reg, lr=0.1)
        theta.grad = np.asarray(1.0)
        opt.step()
        assert theta.data == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_is_noop(self):
        reg, theta = self.single_param(1.23)
        opt = Adam(reg, lr=0.1)
        for _ in range(5):
            theta.grad = np.asarray(0.0)
            opt.step()
        assert theta.data == 1.23

    def test_converges_on_scalar_quadratic(self):
        reg, theta = self.single_param(0.0)
        opt = Adam(reg, lr=0.1)
        for _ in range(200):
            theta.grad = 2.0 * (theta.data - 3.0)  # d/dtheta (theta-3)^2
            opt.step()
        assert abs(theta.data - 3.0) < 0.1

    def test_alpha_parameter_uses_alpha_lr(self):
        reg = ParameterRegistry()
        p = reg.register("ema.p", Tensor(np.asarray(0.0)))
        w = reg.register("w", Tensor(np.asarray(0.0)))
        opt = Adam(reg, lr=1e-3)
        p.grad = np.asarray(1.0)
        w.grad = np.asarray(1.0)
        opt.step()
        assert p.data == pytest.approx(-0.1, rel=1e-6)
        assert w.data == pytest.approx(-1e-3, rel=1e-6)

    @staticmethod
    def assert_steps_match(oracle_step):
        """Five steps of `Adam.step` leave the bytes of every parameter and
        moment that `oracle_step` leaves, for the trainable alpha (stepped
        at `ALPHA_LR`) and for a parameter whose grad turns None (moments
        still decaying) too."""
        shapes = {"w": (2, 3), training_mod.ALPHA_PARAM: (), "idle": (4,)}
        opts = []
        for _ in range(2):
            reg = ParameterRegistry()
            for name, shape in shapes.items():
                reg.register(name, Tensor(np.random.default_rng(1).normal(
                    size=shape)))
            opts.append(Adam(reg, lr=3e-3))
        rng = np.random.default_rng(2)
        for step in range(5):
            grads = {name: rng.normal(size=shape)
                     for name, shape in shapes.items()}
            if step >= 2:
                grads["idle"] = None
            for opt in opts:
                for name, p in opt.registry.items():
                    p.grad = None if grads[name] is None else grads[name].copy()
            opts[0].step()
            oracle_step(opts[1])
            for name in shapes:
                for table in ("m", "v"):
                    a, b = getattr(opts[0], table)[name], getattr(opts[1], table)[name]
                    assert a.tobytes() == b.tobytes(), (step, table, name)
                assert (opts[0].registry[name].data.tobytes()
                        == opts[1].registry[name].data.tobytes()), (step, name)

    def test_in_place_step_matches_out_of_place(self):
        def out_of_place_step(opt):
            opt.t += 1
            b1, b2 = training_mod.BETA1, training_mod.BETA2
            for name, p in opt.registry.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                opt.m[name] = b1 * opt.m[name] + (1 - b1) * g
                opt.v[name] = b2 * opt.v[name] + (1 - b2) * g * g
                m_hat = opt.m[name] / (1 - b1 ** opt.t)
                v_hat = opt.v[name] / (1 - b2 ** opt.t)
                lr = (training_mod.ALPHA_LR if name == training_mod.ALPHA_PARAM
                      else opt.lr)
                p.data -= lr * m_hat / (np.sqrt(v_hat) + training_mod.EPS)

        self.assert_steps_match(out_of_place_step)

    def test_scratch_step_matches_temporaries(self):
        """The step that writes into scratch buffers runs the operations,
        in order, of the step that made a temporary for each of them."""
        def temporaries_step(opt):
            opt.t += 1
            b1, b2 = training_mod.BETA1, training_mod.BETA2
            for name, p in opt.registry.items():
                m, v = opt.m[name], opt.v[name]
                m *= b1
                v *= b2
                if p.grad is not None:
                    m += (1 - b1) * p.grad
                    v += (1 - b2) * p.grad * p.grad
                m_hat = m / (1 - b1 ** opt.t)
                denom = np.sqrt(v / (1 - b2 ** opt.t))
                denom += training_mod.EPS
                m_hat *= (training_mod.ALPHA_LR
                          if name == training_mod.ALPHA_PARAM else opt.lr)
                m_hat /= denom
                p.data -= m_hat

        self.assert_steps_match(temporaries_step)


def to_stack(arrs):
    """A clip's (H, W) frames or maps as one [T, 1, H, W] tensor."""
    return Tensor(np.stack(arrs)[:, None])


def to_tensors(arrs):
    return [Tensor(a[None, None]) for a in arrs]


class TestTrainClip:
    def test_loss_equals_mean_of_independent_frame_losses(self):
        model = small_model(recurrence="none")
        data = small_dataset()[0]
        frames, gts = data.frames[:4], data.gt_maps[:4]
        with no_grad():
            expected = np.mean([
                bce_loss(model.forward_frame(f, model.fresh_states()), g).item()
                for f, g in zip(to_tensors(frames), to_tensors(gts))])
        opt = Adam(model.registry, lr=1e-3)
        loss, _ = train_clip(model, to_stack(frames), to_stack(gts),
                             model.fresh_states(), opt, "v0",
                             np.random.default_rng(0))
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_single_frame_clip_is_static_step(self):
        model = small_model(recurrence="ema")
        data = small_dataset()[0]
        frames = to_stack(data.frames[:1])
        gts = to_stack(data.gt_maps[:1])
        opt = Adam(model.registry, lr=1e-3)
        loss, state = train_clip(model, frames, gts, model.fresh_states(), opt,
                                 "v0", np.random.default_rng(0))
        assert loss > 0.0
        assert state.video_id == "v0"

    def test_rng_is_required(self):
        """Training hands dropout its generator; a clip without one is an
        error, not a clip trained without dropout."""
        model = small_model(recurrence="ema")
        data = small_dataset()[0]
        with pytest.raises(TypeError, match="rng"):
            train_clip(model, to_stack(data.frames[:2]),
                       to_stack(data.gt_maps[:2]), model.fresh_states(),
                       Adam(model.registry), "v0")

    def test_video_mixing_rejected(self):
        model = small_model()
        data = small_dataset()[0]
        frames = to_stack(data.frames[:2])
        gts = to_stack(data.gt_maps[:2])
        opt = Adam(model.registry, lr=1e-3)
        rng = np.random.default_rng(0)
        _, state = train_clip(model, frames, gts, model.fresh_states(), opt,
                              "video-a", rng)
        with pytest.raises(ValueError, match="video"):
            train_clip(model, frames, gts, state, opt, "video-b", rng)

    def test_gradients_truncated_at_clip_boundary(self):
        # gradients of clip 2 must equal those computed with the carried
        # state replaced by a constant holding the same values
        model = small_model(recurrence="ema")
        data = small_dataset()[0]
        f1 = to_stack(data.frames[:3])
        g1 = to_stack(data.gt_maps[:3])
        f2 = to_tensors(data.frames[3:6])
        g2 = to_tensors(data.gt_maps[3:6])

        def clip2_grads(state):
            from salrec.tensor import add, backward, scale
            model.registry.zero_grad()
            losses = [bce_loss(model.forward_frame(f, state), g)
                      for f, g in zip(f2, g2)]
            total = losses[0]
            for l in losses[1:]:
                total = add(total, l)
            backward(scale(total, 1.0 / 3))
            return {n: (model.registry[n].grad.copy()
                        if model.registry[n].grad is not None else None)
                    for n in model.registry.names()}

        opt = Adam(model.registry, lr=0.0)  # keep parameters fixed
        opt.lr = 0.0
        _, carried = train_clip(model, f1, g1, model.fresh_states(), opt, "v",
                                np.random.default_rng(0))
        frozen = model.fresh_states()
        for point, st in carried.states.items():
            frozen.states[point] = type(st)(Tensor(st.accumulator.data.copy()))
        grads_carried = clip2_grads(carried)
        grads_frozen = clip2_grads(frozen)
        for name in grads_carried:
            a, b = grads_carried[name], grads_frozen[name]
            if a is None or b is None:
                assert a is None and b is None
            else:
                np.testing.assert_array_equal(a, b)


def reference_augment_video(frames, gts, mirror: bool, rot_k: int):
    """The per-frame augmentation `train_epoch` once applied: each (H, W)
    frame and map mirrored along W, then turned by rot_k right angles."""
    def tx(a):
        if mirror:
            a = a[:, ::-1]
        if rot_k:
            a = np.rot90(a, rot_k)
        return np.ascontiguousarray(a)

    return [tx(f) for f in frames], [tx(g) for g in gts]


class FixedDraws:
    """An rng stand-in for `train_epoch`: videos in dataset order, and the
    given mirror and rotation for every video."""

    def __init__(self, mirror: bool, rot_k: int):
        self.mirror, self.rot_k = mirror, rot_k

    def permutation(self, n):
        return np.arange(n)

    def integers(self, low, high):
        return int(self.mirror)

    def choice(self, options):
        assert self.rot_k in options
        return self.rot_k


class TestTrainEpoch:
    def test_deterministic(self):
        data = small_dataset()
        cfg = TrainConfig(epochs=1, clip_length=4, seed=5)

        def run():
            model = small_model(seed=3)
            opt = Adam(model.registry, lr=cfg.lr)
            return train_epoch(model, data, cfg, opt,
                               np.random.default_rng(cfg.seed)).mean_loss

        assert run() == run()

    def test_one_video_ten_frames_single_clip(self, monkeypatch):
        calls = []
        import salrec.training as training_mod
        orig = training_mod.train_clip

        def counting(*args, **kw):
            calls.append(1)
            return orig(*args, **kw)

        monkeypatch.setattr(training_mod, "train_clip", counting)
        data = small_dataset(n_videos=1, frames=10)
        model = small_model()
        cfg = TrainConfig(epochs=1, clip_length=10, augment=False)
        train_epoch(model, data, cfg, Adam(model.registry), np.random.default_rng(0))
        assert len(calls) == 1

    def test_mirroring_leaves_constant_model_loss_unchanged(self):
        # a constant-output predictor scores the same bce on mirrored data
        data = small_dataset(n_videos=1, frames=4)[0]
        const = Tensor(np.full((1, 1, 16, 16), 0.5))
        for gt in data.gt_maps:
            plain = bce_loss(const, Tensor(gt[None, None])).item()
            mirrored = bce_loss(const, Tensor(np.ascontiguousarray(
                gt[:, ::-1])[None, None])).item()
            assert plain == pytest.approx(mirrored, abs=1e-15)

    def test_augmented_epoch_runs_and_is_deterministic(self):
        data = small_dataset()
        cfg = TrainConfig(epochs=1, clip_length=4, augment=True, seed=9)

        def run():
            model = small_model(seed=1)
            return train_epoch(model, data, cfg, Adam(model.registry),
                               np.random.default_rng(cfg.seed)).mean_loss

        assert run() == run()

    @pytest.mark.parametrize("size,mirror,rot_k", [
        *(((16, 16), m, k) for m in (False, True) for k in range(4)),
        *(((8, 12), m, k) for m in (False, True) for k in (0, 2))])
    def test_stack_augmentation_matches_per_frame_reference(
            self, monkeypatch, size, mirror, rot_k):
        data = generate(SynthConfig(n_videos=2, frames_per_video=5,
                                    height=size[0], width=size[1], seed=1))
        clips = []

        def record(model, frames, gts, state, *args, **kw):
            clips.append((frames.data, gts.data))
            return 0.0, state

        monkeypatch.setattr(training_mod, "train_clip", record)
        cfg = TrainConfig(epochs=1, clip_length=2, augment=True)
        train_epoch(small_model(), data, cfg, None, FixedDraws(mirror, rot_k))
        assert len(clips) == 6  # clips of 2, 2 and 1 frames per video
        for v, s in enumerate(data):
            frames, gts = reference_augment_video(s.frames, s.gt_maps,
                                                  mirror, rot_k)
            got = clips[3 * v:3 * v + 3]
            assert np.array_equal(np.concatenate([f for f, _ in got]),
                                  np.stack(frames)[:, None])
            assert np.array_equal(np.concatenate([g for _, g in got]),
                                  np.stack(gts)[:, None])

    @pytest.mark.parametrize("where", ["parameter", "ground truth"])
    def test_non_finite_loss_fails_before_update(self, where):
        data = small_dataset(n_videos=1, frames=8)
        model = small_model()
        if where == "parameter":  # the map guard in forward_frame fires
            model.registry["head.bias"].data[0] = np.nan
            error = RuntimeError
            expected = re.escape(f"video {data[0].video_id!r}, frames 0-3, epoch 1")
        else:  # bce_loss rejects the NaN target before the loss is formed
            data[0].gt_maps[2][3, 3] = np.nan
            error, expected = ValueError, "ground truth must lie in"
        before = {n: p.data.copy() for n, p in model.registry.items()}
        opt = Adam(model.registry)
        cfg = TrainConfig(epochs=1, clip_length=4)
        with pytest.raises(error, match=expected):
            train(model, data, cfg, optimizer=opt)
        for name, p in model.registry.items():
            assert np.array_equal(p.data, before[name], equal_nan=True), name
            assert not opt.m[name].any() and not opt.v[name].any(), name
        assert opt.t == 0


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    """A checkpoint's JSON header and the array bytes after it."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen]), raw[12 + hlen:]


def join_checkpoint(header, arrays: bytes) -> bytes:
    """Version 4 checkpoint bytes from a header, a JSON value or its bytes,
    and the array bytes."""
    if not isinstance(header, bytes):
        header = json.dumps(header, sort_keys=True).encode()
    return b"SALR" + struct.pack("<II", 4, len(header)) + header + arrays


def edit_header(raw: bytes, edit) -> bytes:
    """`raw` with `edit` applied to its header in place."""
    header, arrays = split_checkpoint(raw)
    edit(header)
    return join_checkpoint(header, arrays)


class TestCheckpoint:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model(seed=4)
        opt = Adam(model.registry, lr=1e-3)
        rng = np.random.default_rng(0)
        p1 = tmp_path / "a.salr"
        save_checkpoint(p1, model, opt, rng, 1, TrainConfig(lr=0.01))
        m2, o2, r2, epoch, cfg = load_checkpoint(p1)
        assert epoch == 1 and cfg == TrainConfig(lr=0.01)
        p2 = tmp_path / "b.salr"
        save_checkpoint(p2, m2, o2, r2, epoch, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_layout(self, tmp_path):
        """Magic, version 4, the header length, one JSON header that indexes
        every array, then the arrays' float64 bytes and nothing else."""
        model = small_model(recurrence="ema-trainable")
        opt = Adam(model.registry)
        opt.t = 5
        rng = np.random.default_rng(9)
        p = tmp_path / "l.salr"
        save_checkpoint(p, model, opt, rng, 2, TrainConfig())
        raw = p.read_bytes()
        assert raw[:4] == b"SALR" and struct.unpack("<I", raw[4:8]) == (4,)
        header, arrays = split_checkpoint(raw)
        assert sorted(header) == ["adam", "arrays", "epoch", "model", "rng",
                                  "train"]
        assert header["adam"] == {"lr": opt.lr, "t": 5}
        assert header["epoch"] == 2
        assert header["rng"] == rng.bit_generator.state
        names = model.registry.names()
        assert [n for n, _ in header["arrays"]] == (
            names + [f"adam.m.{n}" for n in names]
            + [f"adam.v.{n}" for n in names])
        values = [model.registry[n].data for n in names]
        values += [opt.m[n] for n in names] + [opt.v[n] for n in names]
        assert [s for _, s in header["arrays"]] == [list(v.shape)
                                                    for v in values]
        assert arrays == b"".join(v.astype("<f8").tobytes() for v in values)

    def test_magic_and_version_checked(self, tmp_path):
        p = tmp_path / "bad.salr"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)
        model = small_model()
        good = tmp_path / "good.salr"
        save_checkpoint(good, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        raw = bytearray(good.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        bad = tmp_path / "v99.salr"
        bad.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad)

    def relabel_version(self, tmp_path, version):
        model = small_model()
        p = tmp_path / f"v{version}.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        raw = bytearray(p.read_bytes())
        assert struct.unpack("<I", raw[4:8]) == (4,)
        raw[4:8] = struct.pack("<I", version)
        p.write_bytes(bytes(raw))
        return p

    def test_version_1_rejected(self, tmp_path):
        # v1 files hold the per-gate ConvLSTM parameters; v4 has no reader
        # for them
        with pytest.raises(ValueError, match="version 1, expected 4"):
            load_checkpoint(self.relabel_version(tmp_path, 1))

    def test_version_2_rejected(self, tmp_path):
        # v2 headers carry Adam's betas, eps and alpha_lr, and may carry the
        # model settings v3 dropped
        with pytest.raises(ValueError, match="version 2, expected 4"):
            load_checkpoint(self.relabel_version(tmp_path, 2))

    def test_version_3_rejected(self, tmp_path):
        # v3 files name and size each array in a section of their own, and
        # keep the rng and the epoch after the arrays
        with pytest.raises(ValueError, match="version 3, expected 4"):
            load_checkpoint(self.relabel_version(tmp_path, 3))

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        p = tmp_path / "t.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        (tmp_path / "cut.salr").write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "cut.salr")

    @pytest.mark.parametrize("length", [0xFFFFFFFF, 1 << 30])
    def test_header_length_checked_against_file_size(self, tmp_path, length):
        """The header length is the one length the file supplies; a corrupt
        one must not size a read (0xFFFFFFFF would allocate 4 GiB)."""
        raw = bytearray(self.saved(tmp_path))
        rest = len(raw) - 12
        raw[8:12] = struct.pack("<I", length)
        self.assert_rejected(
            tmp_path, bytes(raw),
            f"header length {length} exceeds the {rest} bytes left")

    def test_config_shape_mismatch_named(self, tmp_path):
        model = small_model()
        p = tmp_path / "c.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 0, TrainConfig())
        # tamper: different channel widths, the same array index
        bad = tmp_path / "tampered.salr"
        bad.write_bytes(edit_header(
            p.read_bytes(),
            lambda h: h["model"].update(base_channels=8)))
        with pytest.raises(ValueError, match=re.escape(
                "array index entry 0 (name, shape) is ['enc1.kernel', "
                "[4, 1, 3, 3]], model expects ['enc1.kernel', [8, 1, 3, 3]]")):
            load_checkpoint(bad)

    def test_resume_equality(self, tmp_path):
        data = small_dataset()
        cfg = TrainConfig(epochs=2, clip_length=4, seed=7)

        model_a = small_model(seed=6)
        train(model_a, data, cfg)

        model_b = small_model(seed=6)
        opt_b = Adam(model_b.registry, lr=cfg.lr)
        rng_b = np.random.default_rng(cfg.seed)
        one = TrainConfig(**{**cfg.__dict__, "epochs": 1})
        train(model_b, data, one, optimizer=opt_b, rng=rng_b)
        p = tmp_path / "mid.salr"
        save_checkpoint(p, model_b, opt_b, rng_b, 1, cfg)
        model_c, opt_c, rng_c, epoch, cfg_c = load_checkpoint(p)
        train(model_c, data, cfg_c, optimizer=opt_c, rng=rng_c,
              start_epoch=epoch)

        for name in model_a.registry.names():
            np.testing.assert_array_equal(model_a.registry[name].data,
                                          model_c.registry[name].data)

    def test_full_training_determinism_hash(self, tmp_path):
        data = small_dataset()
        cfg = TrainConfig(epochs=1, clip_length=4, seed=3)

        def run(name):
            model = small_model(seed=2)
            opt, rng, _ = train(model, data, cfg)
            p = tmp_path / name
            save_checkpoint(p, model, opt, rng, cfg.epochs, cfg)
            return hashlib.sha256(p.read_bytes()).hexdigest()

        assert run("one.salr") == run("two.salr")

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        p = tmp_path / "ck.salr"
        model = small_model(seed=1)
        save_checkpoint(p, model, Adam(model.registry), np.random.default_rng(0), 1,
                        TrainConfig())
        previous = p.read_bytes()

        class DiskFull(io.BufferedWriter):
            writes = 0

            def write(self, data):
                DiskFull.writes += 1
                if DiskFull.writes == 5:  # the second array, after the header
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(training_mod, "open", raising=False,
                            value=lambda file, mode: DiskFull(
                                io.FileIO(file, mode)))
        other = small_model(seed=2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(p, other, Adam(other.registry),
                            np.random.default_rng(0), 2, TrainConfig())
        assert DiskFull.writes == 5
        assert p.read_bytes() == previous
        assert [q.name for q in tmp_path.iterdir()] == ["ck.salr"]

    def saved(self, tmp_path):
        model = small_model()
        p = tmp_path / "ok.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 3, TrainConfig())
        return p.read_bytes()

    def assert_rejected(self, tmp_path, raw, message):
        bad = tmp_path / "forged.salr"
        bad.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(bad)) + ".*" + message):
            load_checkpoint(bad)

    def assert_index_rejected(self, tmp_path, edit, message):
        """A forged array index is rejected before any array is read: the
        file keeps no array bytes, which a read would report as a
        truncation."""
        header, _ = split_checkpoint(self.saved(tmp_path))
        edit(header["arrays"])
        self.assert_rejected(tmp_path, join_checkpoint(header, b""),
                             "array index " + re.escape(message))

    @pytest.mark.parametrize("section,field", [
        ("model", "alpha"), ("model", "dropout"), ("model", "ema_points"),
        ("train", "lr"), ("train", "augment")])
    def test_header_missing_field_rejected(self, tmp_path, section, field):
        """A header section must name every config field: a missing one
        would otherwise load as its default, a different model or run."""
        self.assert_rejected(
            tmp_path,
            edit_header(self.saved(tmp_path), lambda h: h[section].pop(field)),
            f"malformed checkpoint header .*lacks {field}")

    @pytest.mark.parametrize("section,field,value", [
        ("model", "dropout", "no"), ("train", "augment", "no"),
        ("train", "clip_length", 2.5), ("model", "stages", True),
        ("train", "epochs", True), ("model", "alpha", False),
        ("model", "input_size", [16.0, 16.0]),
        ("model", "ema_points", "bottleneck")])
    def test_header_value_of_wrong_json_type_rejected(self, tmp_path, section,
                                                      field, value):
        """Each config value has its field's JSON type: the string "no"
        would load as a truthy dropout or augment flag, and a bool is no
        number here."""
        self.assert_rejected(
            tmp_path, edit_header(self.saved(tmp_path),
                                  lambda h: h[section].update({field: value})),
            f"malformed checkpoint header .*{field} is {re.escape(repr(value))}")

    def test_header_int_for_float_field_loads(self, tmp_path):
        raw = edit_header(self.saved(tmp_path),
                          lambda h: (h["model"].update(alpha=1),
                                     h["train"].update(lr=1)))
        (tmp_path / "ints.salr").write_bytes(raw)
        model, _, _, _, train_cfg = load_checkpoint(tmp_path / "ints.salr")
        assert model.cfg.alpha == 1 and train_cfg.lr == 1

    @pytest.mark.parametrize("edit", [
        "unknown model key", "no adam", "null train", "no rng", "no epoch",
        "no arrays", "epoch -1", "epoch 1.5", "epoch true",
        "ema_points not text"])
    def test_malformed_header_rejected(self, tmp_path, edit):
        """Every checkpoint records its training settings, so a header
        without them, `"train": null`, is malformed too; so is one without
        the rng, the epoch or the array index, or with an epoch that is not
        an integer >= 0."""
        edits = {
            "unknown model key": lambda h: h["model"].update(frame_rate=25),
            "no adam": lambda h: h.pop("adam"),
            "null train": lambda h: h.update(train=None),
            "no rng": lambda h: h.pop("rng"),
            "no epoch": lambda h: h.pop("epoch"),
            "no arrays": lambda h: h.pop("arrays"),
            "epoch -1": lambda h: h.update(epoch=-1),
            "epoch 1.5": lambda h: h.update(epoch=1.5),
            "epoch true": lambda h: h.update(epoch=True),
            "ema_points not text": lambda h: h["model"].update(ema_points=[5])}
        self.assert_rejected(
            tmp_path, edit_header(self.saved(tmp_path), edits[edit]),
            "malformed checkpoint header")

    @pytest.mark.parametrize("state", [[1, 2], {"bit_generator": "PCG64"},
                                       {"bit_generator": "MT19937"}],
                             ids=["list", "no-state", "not-pcg64"])
    def test_bad_rng_state_rejected(self, tmp_path, state):
        self.assert_rejected(
            tmp_path,
            edit_header(self.saved(tmp_path), lambda h: h.update(rng=state)),
            "malformed checkpoint header")

    @pytest.mark.parametrize("field, value", [
        ("t", -3), ("t", 1.5), ("t", True), ("t", "x"), ("lr", -1.0),
        ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("lr", True), ("lr", "x")])
    def test_bad_adam_state_rejected(self, tmp_path, field, value):
        """Adam's step count is an integer >= 0 and its learning rate
        positive and finite, as `TrainConfig` requires; anything else
        would step with a wrong bias correction or turn the weights NaN."""
        self.assert_rejected(
            tmp_path,
            edit_header(self.saved(tmp_path),
                        lambda h: h["adam"].update({field: value})),
            f"malformed checkpoint header .*adam.{field}")

    @pytest.mark.parametrize("header, error", [
        (b"\xff", "UnicodeDecodeError"), (b"[", "JSONDecodeError"),
        (b"[" * 100_000, "RecursionError")],
        ids=["not-utf8", "not-json", "nested-too-deep"])
    def test_undecodable_header_rejected(self, tmp_path, header, error):
        raw = self.saved(tmp_path)
        self.assert_rejected(tmp_path, raw[:12] + header + raw[13:],
                             f"malformed checkpoint header \\({error}")

    @pytest.mark.parametrize("section", ["parameter", "moment"])
    def test_name_not_utf8_rejected(self, tmp_path, section):
        raw = self.saved(tmp_path)
        name = b'"enc1.kernel"' if section == "parameter" else b'"adam.m.'
        at = raw.index(name, 12) + 1  # the name's first byte
        self.assert_rejected(
            tmp_path, raw[:at] + b"\xff" + raw[at + 1:],
            "malformed checkpoint header \\(UnicodeDecodeError")

    def test_trailing_bytes_rejected(self, tmp_path):
        self.assert_rejected(tmp_path, self.saved(tmp_path) + b"garbage",
                             "trailing bytes")

    def test_repeated_parameter_rejected(self, tmp_path):
        def repeat(index):
            assert [n for n, _ in index[:2]] == ["enc1.kernel", "enc1.bias"]
            index[1] = index[0]  # enc1.kernel twice, enc1.bias never

        self.assert_index_rejected(
            tmp_path, repeat,
            "entry 1 (name, shape) is ['enc1.kernel', [4, 1, 3, 3]], "
            "model expects ['enc1.bias', [4]]")

    def test_moment_count_checked(self, tmp_path):
        header, _ = split_checkpoint(self.saved(tmp_path))
        n = len(header["arrays"])
        self.assert_index_rejected(
            tmp_path, lambda index: index.pop(),
            f"entry {n - 1} (name, shape) is missing, "
            "model expects ['adam.v.head.bias', [1]]")
        self.assert_index_rejected(
            tmp_path, lambda index: index.append(index[-1]),
            f"has {n + 1} entries, model expects {n}")
        self.assert_index_rejected(
            tmp_path, lambda index: index.clear() or index.append(None),
            "entry 0 (name, shape) is None")

    def test_array_index_not_a_list_rejected(self, tmp_path):
        header, arrays = split_checkpoint(self.saved(tmp_path))
        header["arrays"] = dict(header["arrays"])
        self.assert_rejected(tmp_path, join_checkpoint(header, arrays),
                             "array index is dict, not a list")

    @pytest.mark.parametrize("dim", [0x7FFF, 0xFFFFFFFF])
    @pytest.mark.parametrize("section", ["parameter", "moment"])
    def test_corrupt_dims_rejected_before_reading(self, tmp_path, dim, section):
        """Declared dims are checked against the model before any array is
        read: 0x7FFF four times once asked for 9.2e18 bytes (MemoryError),
        0xFFFFFFFF overflowed to a negative length (a ValueError that did
        not name the file)."""
        header, _ = split_checkpoint(self.saved(tmp_path))
        at = 0 if section == "parameter" else header["arrays"].index(
            ["adam.m.enc1.kernel", [4, 1, 3, 3]])
        name = header["arrays"][at][0]

        def oversize(index):
            index[at][1] = [4, dim, dim, dim]

        self.assert_index_rejected(
            tmp_path, oversize,
            f"entry {at} (name, shape) is ['{name}', [4, {dim}, {dim}, "
            f"{dim}]], model expects ['{name}', [4, 1, 3, 3]]")

    @pytest.mark.parametrize("forged", ["adam.m.head.bias", "adam.x.head.bias",
                                        "head.bias"])
    def test_moment_names_checked(self, tmp_path, forged):
        header, _ = split_checkpoint(self.saved(tmp_path))
        n = len(header["arrays"])
        assert header["arrays"][-1] == ["adam.v.head.bias", [1]]

        def forge(index):
            index[-1][0] = forged

        self.assert_index_rejected(
            tmp_path, forge,
            f"entry {n - 1} (name, shape) is ['{forged}', [1]], "
            "model expects ['adam.v.head.bias', [1]]")

    def test_seeded_corruption_raises_only_value_error(self, tmp_path):
        """Bit flips, byte overwrites (the version and header-length fields
        included) and truncations of a small checkpoint either load or
        raise ValueError naming the file; nothing else escapes."""
        model = small_model(recurrence="convlstm", size=8)
        p = tmp_path / "ok.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 3, TrainConfig())
        raw = p.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        rng = np.random.default_rng(23)
        mutants = []
        # bit flips over the whole file, and again over the fields and header
        for at in np.concatenate([rng.integers(0, len(raw), 60),
                                  rng.integers(0, 12 + hlen, 240)]):
            bit = 1 << int(rng.integers(0, 8))
            mutants.append(raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:])
        # byte overwrites: each byte of the version and length fields with
        # 0x00, 0xff and a random byte, then random offsets in the header
        offsets = [*range(4, 12)] * 3 + list(rng.integers(12, 12 + hlen, 100))
        values = [0x00] * 8 + [0xFF] * 8 + list(rng.integers(0, 256, 108))
        for at, value in zip(offsets, values):
            mutants.append(raw[:at] + bytes([int(value)]) + raw[at + 1:])
        mutants += [raw[:int(n)] for n in np.linspace(0, len(raw) - 1, 64)]
        bad = tmp_path / "mutant.salr"
        outcomes = {"loaded": 0, "rejected": 0}
        for i, mutant in enumerate(mutants):
            bad.write_bytes(mutant)
            try:
                load_checkpoint(bad)
            except ValueError as exc:
                assert str(bad) in str(exc), (i, exc)
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
        assert sum(outcomes.values()) == 488
        assert outcomes["rejected"] > 200, outcomes


# one epoch of a default-geometry EMA and ConvLSTM model, whose checkpoints
# go to the directory named by the first argument
TRAIN_BOTH = """
import sys
from pathlib import Path
from salrec.data import SynthConfig, generate
from salrec.model import ModelConfig, build
from salrec.training import TrainConfig, save_checkpoint, train
data = generate(SynthConfig(n_videos=2, frames_per_video=10, seed=4))
cfg = TrainConfig(epochs=1)
for kind in ("ema", "convlstm"):
    model = build(ModelConfig(recurrence=kind, seed=5))
    opt, rng, _ = train(model, data, cfg)
    save_checkpoint(Path(sys.argv[1]) / (kind + ".salr"), model, opt, rng, 1,
                    cfg)
"""


def test_checkpoints_independent_of_blas_threads(tmp_path):
    """Training writes the same checkpoint bytes at 1 and 2 OpenBLAS
    threads. A 10-frame clip gives GEMMs large enough for OpenBLAS to split
    between threads; the split must not change the order of any sum."""
    src = Path(__file__).resolve().parent.parent / "src"
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src),
               "OPENBLAS_NUM_THREADS": threads}
        runs.append((out, subprocess.Popen(
            [sys.executable, "-c", TRAIN_BOTH, str(out)], env=env,
            stderr=subprocess.PIPE, text=True)))
    for out, proc in runs:
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
    (one, _), (two, _) = runs
    for kind in ("ema", "convlstm"):
        name = kind + ".salr"
        assert (one / name).read_bytes() == (two / name).read_bytes(), kind
