import hashlib
import io
import json
import re
import struct

import numpy as np
import pytest

from salrec.data import SynthConfig, generate
from salrec.layers import ParameterRegistry
from salrec.model import ModelConfig, build
from salrec.tensor import Tensor, no_grad
import salrec.training as training_mod
from salrec.training import (Adam, TrainConfig, _read_blob_data,
                             _read_blob_head, bce_loss, load_checkpoint,
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
                             model.fresh_states(), opt, "v0")
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_single_frame_clip_is_static_step(self):
        model = small_model(recurrence="ema")
        data = small_dataset()[0]
        frames = to_stack(data.frames[:1])
        gts = to_stack(data.gt_maps[:1])
        opt = Adam(model.registry, lr=1e-3)
        loss, state = train_clip(model, frames, gts, model.fresh_states(), opt,
                                 "v0")
        assert loss > 0.0
        assert state.video_id == "v0"

    def test_video_mixing_rejected(self):
        model = small_model()
        data = small_dataset()[0]
        frames = to_stack(data.frames[:2])
        gts = to_stack(data.gt_maps[:2])
        opt = Adam(model.registry, lr=1e-3)
        _, state = train_clip(model, frames, gts, model.fresh_states(), opt,
                              "video-a")
        with pytest.raises(ValueError, match="video"):
            train_clip(model, frames, gts, state, opt, "video-b")

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
        _, carried = train_clip(model, f1, g1, model.fresh_states(), opt, "v")
        frozen = model.fresh_states("v")
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


def split_checkpoint(raw: bytes):
    """Cut checkpoint bytes into the header, the parameter blobs, the Adam
    moment blobs and the tail (RNG state and epoch counter)."""
    f = io.BytesIO(raw)
    (clen,) = struct.unpack("<I", raw[8:12])
    f.seek(12 + clen)
    sections = []
    for _ in range(2):
        (count,) = struct.unpack("<I", f.read(4))
        blobs = []
        for _ in range(count):
            start = f.tell()
            name, shape = _read_blob_head(f)
            _read_blob_data(f, shape)
            blobs.append((name, raw[start:f.tell()]))
        sections.append(blobs)
    return raw[:12 + clen], sections[0], sections[1], raw[f.tell():]


def join_checkpoint(head: bytes, params, moments, tail: bytes) -> bytes:
    return (head + struct.pack("<I", len(params)) + b"".join(b for _, b in params)
            + struct.pack("<I", len(moments)) + b"".join(b for _, b in moments)
            + tail)


class TestCheckpoint:
    def roundtrip(self, tmp_path, model, opt, rng, epoch):
        p = tmp_path / "ck.salr"
        save_checkpoint(p, model, opt, rng, epoch)
        return p

    def test_save_load_save_byte_identical(self, tmp_path):
        model = small_model(seed=4)
        opt = Adam(model.registry, lr=1e-3)
        rng = np.random.default_rng(0)
        p1 = tmp_path / "a.salr"
        save_checkpoint(p1, model, opt, rng, 1)
        m2, o2, r2, epoch, _ = load_checkpoint(p1)
        assert epoch == 1
        p2 = tmp_path / "b.salr"
        save_checkpoint(p2, m2, o2, r2, epoch)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_and_version_checked(self, tmp_path):
        p = tmp_path / "bad.salr"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)
        model = small_model()
        good = tmp_path / "good.salr"
        save_checkpoint(good, model, Adam(model.registry),
                        np.random.default_rng(0), 0)
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
                        np.random.default_rng(0), 0)
        raw = bytearray(p.read_bytes())
        assert struct.unpack("<I", raw[4:8]) == (3,)
        raw[4:8] = struct.pack("<I", version)
        p.write_bytes(bytes(raw))
        return p

    def test_version_1_rejected(self, tmp_path):
        # v1 files hold the per-gate ConvLSTM parameters; v3 has no reader
        # for them
        with pytest.raises(ValueError, match="version 1, expected 3"):
            load_checkpoint(self.relabel_version(tmp_path, 1))

    def test_version_2_rejected(self, tmp_path):
        # v2 headers carry Adam's betas, eps and alpha_lr, and may carry the
        # model settings v3 dropped
        with pytest.raises(ValueError, match="version 2, expected 3"):
            load_checkpoint(self.relabel_version(tmp_path, 2))

    def test_truncated_file_rejected(self, tmp_path):
        model = small_model()
        p = tmp_path / "t.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 0)
        (tmp_path / "cut.salr").write_bytes(p.read_bytes()[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "cut.salr")

    def test_config_shape_mismatch_named(self, tmp_path):
        model = small_model()
        p = tmp_path / "c.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 0)
        # tamper: rewrite the config block with different channel widths
        raw = p.read_bytes()
        (clen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + clen])
        header["model"]["base_channels"] = 8
        new_cfg = json.dumps(header, sort_keys=True).encode()
        tampered = (raw[:8] + struct.pack("<I", len(new_cfg)) + new_cfg
                    + raw[12 + clen:])
        bad = tmp_path / "tampered.salr"
        bad.write_bytes(tampered)
        with pytest.raises(ValueError, match=r"shape.*expects|expects.*shape"):
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
        save_checkpoint(p, model, Adam(model.registry), np.random.default_rng(0), 1)
        previous = p.read_bytes()
        written = []
        orig = training_mod._write_blob

        def failing(f, name, arr):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(name)
            orig(f, name, arr)

        monkeypatch.setattr(training_mod, "_write_blob", failing)
        other = small_model(seed=2)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(p, other, Adam(other.registry),
                            np.random.default_rng(0), 2)
        assert p.read_bytes() == previous
        assert [q.name for q in tmp_path.iterdir()] == ["ck.salr"]

    def saved(self, tmp_path):
        model = small_model()
        p = tmp_path / "ok.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 3)
        return p.read_bytes()

    def assert_rejected(self, tmp_path, raw, message):
        bad = tmp_path / "forged.salr"
        bad.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(str(bad)) + ".*" + message):
            load_checkpoint(bad)

    @pytest.mark.parametrize("section,field", [
        ("model", "alpha"), ("model", "dropout"), ("model", "ema_points"),
        ("train", "lr"), ("train", "augment")])
    def test_header_missing_field_rejected(self, tmp_path, section, field):
        """A header section must name every config field: a missing one
        would otherwise load as its default, a different model or run."""
        model = small_model()
        p = tmp_path / "ok.salr"
        save_checkpoint(p, model, Adam(model.registry),
                        np.random.default_rng(0), 3, TrainConfig())
        raw = p.read_bytes()
        (clen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + clen])
        del header[section][field]
        new = json.dumps(header, sort_keys=True).encode()
        self.assert_rejected(
            tmp_path,
            raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + clen:],
            f"malformed checkpoint header .*lacks {field}")

    @pytest.mark.parametrize("edit", ["unknown model key", "no adam"])
    def test_malformed_header_rejected(self, tmp_path, edit):
        raw = self.saved(tmp_path)
        (clen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + clen])
        if edit == "unknown model key":
            header["model"]["frame_rate"] = 25
        else:
            del header["adam"]
        new = json.dumps(header, sort_keys=True).encode()
        self.assert_rejected(
            tmp_path,
            raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + clen:],
            "malformed checkpoint header")

    @pytest.mark.parametrize("field, value", [
        ("t", -3), ("t", 1.5), ("t", True), ("t", "x"), ("lr", -1.0),
        ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("lr", True), ("lr", "x")])
    def test_bad_adam_state_rejected(self, tmp_path, field, value):
        """Adam's step count is an integer >= 0 and its learning rate
        positive and finite, as `TrainConfig` requires; anything else
        would step with a wrong bias correction or turn the weights NaN."""
        raw = self.saved(tmp_path)
        (clen,) = struct.unpack("<I", raw[8:12])
        header = json.loads(raw[12:12 + clen])
        header["adam"][field] = value
        new = json.dumps(header, sort_keys=True).encode()
        self.assert_rejected(
            tmp_path,
            raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + clen:],
            f"malformed checkpoint header .*adam.{field}")

    @pytest.mark.parametrize("header, error", [
        (b"\xff", "UnicodeDecodeError"), (b"[", "JSONDecodeError")],
        ids=["not-utf8", "not-json"])
    def test_undecodable_header_rejected(self, tmp_path, header, error):
        raw = self.saved(tmp_path)
        self.assert_rejected(tmp_path, raw[:12] + header + raw[13:],
                             f"malformed checkpoint header \\({error}")

    @pytest.mark.parametrize("section", ["parameter", "moment"])
    def test_name_not_utf8_rejected(self, tmp_path, section):
        head, params, moments, tail = split_checkpoint(self.saved(tmp_path))
        blobs = params if section == "parameter" else moments
        name, blob = blobs[0]
        blobs[0] = (name, blob[:4] + b"\xff" + blob[5:])  # the name's first byte
        self.assert_rejected(
            tmp_path, join_checkpoint(head, params, moments, tail),
            f"{section} '.*' at position 0, expected '{name}'")

    def test_trailing_bytes_rejected(self, tmp_path):
        self.assert_rejected(tmp_path, self.saved(tmp_path) + b"garbage",
                             "trailing bytes")

    def test_repeated_parameter_rejected(self, tmp_path):
        head, params, _, tail = split_checkpoint(self.saved(tmp_path))
        assert [n for n, _ in params[:2]] == ["enc1.kernel", "enc1.bias"]
        params[1] = params[0]  # enc1.kernel twice, enc1.bias never
        self.assert_rejected(tmp_path, join_checkpoint(head, params, [], tail),
                             "'enc1.kernel' at position 1, expected 'enc1.bias'")

    def test_moment_count_checked(self, tmp_path):
        head, params, moments, tail = split_checkpoint(self.saved(tmp_path))
        self.assert_rejected(
            tmp_path, join_checkpoint(head, params, moments[:-1], tail),
            f"{len(moments) - 1} Adam moments in file, expected {len(moments)}")

    @pytest.mark.parametrize("dim", [0x7FFF, 0xFFFFFFFF])
    @pytest.mark.parametrize("section", ["parameter", "moment"])
    def test_corrupt_dims_rejected_before_reading(self, tmp_path, dim, section):
        """Declared dims are checked against the model before they size a
        read: 0x7FFF four times once asked for 9.2e18 bytes (MemoryError),
        0xFFFFFFFF overflowed to a negative length (a ValueError that did
        not name the file)."""
        head, params, moments, tail = split_checkpoint(self.saved(tmp_path))
        blobs = params if section == "parameter" else moments
        name, blob = blobs[0]
        (nlen,) = struct.unpack("<I", blob[:4])
        assert struct.unpack("<I", blob[4 + nlen:8 + nlen]) == (4,)  # a kernel
        dims = struct.pack("<5I", 4, dim, dim, dim, dim)
        blobs[0] = (name, blob[:4 + nlen] + dims + blob[4 + nlen + 20:])
        self.assert_rejected(
            tmp_path, join_checkpoint(head, params, moments, tail),
            f"{section} '{name}' (has shape|is unknown, repeated or of the wrong shape)")

    @pytest.mark.parametrize("forged", ["adam.m.head.bias", "adam.x.head.bias",
                                        "head.bias"])
    def test_moment_names_checked(self, tmp_path, forged):
        head, params, moments, tail = split_checkpoint(self.saved(tmp_path))
        assert moments[-1][0] == "adam.v.head.bias"
        blob = moments[-1][1]
        (nlen,) = struct.unpack("<I", blob[:4])
        name = forged.encode()
        moments[-1] = (forged, struct.pack("<I", len(name)) + name + blob[4 + nlen:])
        self.assert_rejected(tmp_path, join_checkpoint(head, params, moments, tail),
                             f"moment '{forged}' at position {len(moments) - 1}, "
                             "expected 'adam.v.head.bias'")
