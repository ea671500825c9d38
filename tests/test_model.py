from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import salrec.model
from salrec.gradcheck import TOL, check_model, kink_distance
from salrec.model import (RECURRENCE_KINDS, Model, ModelConfig, build,
                          parse_point)
from salrec.recurrence import EmaConfig, EmaState, ema_step
from salrec.tensor import (Tensor, _node, add, backward, maxpool2d, no_grad,
                           relu, scale, sigmoid, upsample_nearest)
from salrec.training import bce_loss


def frames_from(rng, n, size=32):
    return [rng.uniform(0, 1, size=(size, size)) for _ in range(n)]


def parameter_count(model):
    return sum(p.size for _, p in model.registry.items())


class TestInsertionPoint:
    @pytest.mark.parametrize("text", ["bottleneck", "output", "encoder1",
                                      "decoder3"])
    def test_parse_roundtrip(self, text):
        assert parse_point(text, stages=3) == text

    @pytest.mark.parametrize("text,canonical", [
        (" Output", "output"), ("BOTTLENECK ", "bottleneck"),
        ("Encoder01", "encoder1"), ("decoder003", "decoder3"),
        ("encoder3", "bottleneck")])  # the last encoder stage's activation
    def test_noncanonical_spellings(self, text, canonical):
        assert parse_point(text, stages=3) == canonical

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_point("middle", stages=3)

    @pytest.mark.parametrize("text,match", [
        ("encoder", "cannot parse"), ("decoderx", "cannot parse"),
        ("encoder0", "outside 1..3"), ("decoder4", "outside 1..3")])
    def test_rejects_malformed_and_out_of_range(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_point(text, stages=3)

    def test_config_holds_canonical_names(self):
        cfg = ModelConfig(input_size=[16, 16], recurrence="ema",
                          ema_points=["Encoder01", " OUTPUT"])
        assert cfg.input_size == (16, 16)
        assert cfg.ema_points == ("encoder1", "output")
        assert ModelConfig(**asdict(cfg)) == cfg

    def test_duplicate_spellings_rejected(self):
        for pair in (("encoder1", "Encoder01"), ("encoder3", "bottleneck")):
            with pytest.raises(ValueError, match="duplicate"):
                ModelConfig(recurrence="ema", ema_points=pair)


class TestBuild:
    def test_bottleneck_size_and_parameter_count(self):
        cfg = ModelConfig(input_size=(32, 32), stages=3, base_channels=8)
        model = build(cfg)
        assert cfg.bottleneck_size == (4, 4)
        # closed-form count: conv kernels + biases along the channel plan
        chans = [8, 16, 32]
        expected = 0
        prev = 1
        for c in chans:
            expected += c * prev * 9 + c
            prev = c
        for c in [16, 8, 8]:
            expected += c * prev * 9 + c
            prev = c
        expected += 1 * prev * 1 + 1  # 1x1 head
        assert parameter_count(model) == expected

    def test_convlstm_registry(self):
        model = build(ModelConfig(recurrence="convlstm"))
        assert len(model.registry) == 19
        lstm = [(n, model.registry[n].shape) for n in model.registry.names()
                if n.startswith("convlstm.")]
        assert lstm == [("convlstm.kernel", (128, 64, 3, 3)),
                        ("convlstm.bias", (128,)),
                        ("convlstm.u.peephole", (32, 4, 4)),
                        ("convlstm.f.peephole", (32, 4, 4)),
                        ("convlstm.o.peephole", (32, 4, 4))]
        assert parameter_count(model) == 87_657

    def test_indivisible_input_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(input_size=(33, 33), stages=3)

    def test_convlstm_only_at_bottleneck(self):
        with pytest.raises(ValueError, match="bottleneck"):
            ModelConfig(recurrence="convlstm", ema_points=("output",))

    def test_same_seed_bit_identical_parameters(self):
        a = build(ModelConfig(seed=11))
        b = build(ModelConfig(seed=11))
        for name in a.registry.names():
            assert np.array_equal(a.registry[name].data, b.registry[name].data)

    def test_three_ema_points_rejected(self):
        with pytest.raises(ValueError, match="1 or 2"):
            ModelConfig(recurrence="ema",
                        ema_points=("encoder1", "bottleneck", "output"))


class TestForwardFrame:
    def test_stateless_model_ignores_frame_order(self):
        model = build(ModelConfig(recurrence="none", seed=0))
        rng = np.random.default_rng(0)
        fs = frames_from(rng, 3)
        seq = model.predict_sequence(fs)
        rev = model.predict_sequence(fs[::-1])
        for a, b in zip(seq, rev[::-1]):
            assert np.array_equal(a, b)

    def test_ema_alpha_one_equals_none(self):
        # identical seeds give identical conv weights; alpha=1 is an identity
        none_model = build(ModelConfig(recurrence="none", seed=3))
        ema_model = build(ModelConfig(recurrence="ema", alpha=1.0, seed=3))
        rng = np.random.default_rng(1)
        fs = frames_from(rng, 4)
        for a, b in zip(none_model.predict_sequence(fs),
                        ema_model.predict_sequence(fs)):
            assert np.array_equal(a, b)

    def test_constant_video_constant_output(self):
        model = build(ModelConfig(recurrence="ema", alpha=0.3, seed=4))
        frame = np.random.default_rng(2).uniform(0, 1, (32, 32))
        maps = model.predict_sequence([frame] * 5)
        for m in maps[1:]:
            np.testing.assert_allclose(m, maps[0], atol=1e-12)

    def test_output_in_unit_interval(self):
        model = build(ModelConfig(recurrence="convlstm", seed=5))
        rng = np.random.default_rng(3)
        for m in model.predict_sequence(frames_from(rng, 3)):
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_foreign_state_rejected(self):
        a = build(ModelConfig(seed=0))
        b = build(ModelConfig(seed=1))
        states = b.fresh_states()
        frame = Tensor(np.zeros((1, 1, 32, 32)))
        with pytest.raises(ValueError, match="different model"):
            a.forward_frame(frame, states)

    def test_wrong_frame_shape_rejected(self):
        model = build(ModelConfig(seed=0))
        for shape in ((1, 1, 16, 16), (0, 1, 32, 32), (2, 2, 32, 32),
                      (1, 32, 32)):
            with pytest.raises(ValueError, match="frame shape"):
                model.forward_frame(Tensor(np.zeros(shape)),
                                    model.fresh_states())


class TestMapCheck:
    """`forward_frame` raises RuntimeError for a map that leaves [0, 1] or
    is not finite, and passes the bounds themselves."""

    @staticmethod
    def forward(monkeypatch, value):
        """The maps of a stack whose sigmoid puts `value` at one pixel of
        the second frame and 0.5 everywhere else, at whatever size the
        sigmoid runs (half the input size, before the last upsample)."""
        def sigmoid(x):
            maps = np.full(x.shape, 0.5)
            maps[1, 0, 2, 3] = value
            return Tensor(maps)

        monkeypatch.setattr(salrec.model, "sigmoid", sigmoid)
        model = build(ModelConfig(input_size=(16, 16), stages=2,
                                  base_channels=2))
        return model.forward_frame(Tensor(np.zeros((3, 1, 16, 16))),
                                   model.fresh_states())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300,
                                       -0.5, 1.0 + 2 ** -52, 7.0])
    def test_rejects(self, monkeypatch, value):
        with pytest.raises(RuntimeError, match="non-finite"):
            self.forward(monkeypatch, value)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0])
    def test_accepts_bounds(self, monkeypatch, value):
        maps = self.forward(monkeypatch, value).data
        assert value in maps[1, 0] and maps.min() >= 0.0


class TestForwardSequence:
    """A video's frames run through the model in order (`predict_sequence`)."""

    def test_single_frame_equals_forward_frame(self):
        model = build(ModelConfig(recurrence="ema", alpha=0.2, seed=6))
        frame = np.random.default_rng(4).uniform(0, 1, (32, 32))
        seq = model.predict_sequence([frame])
        single = model.forward_frame(Tensor(frame[None, None]),
                                     model.fresh_states())
        assert np.array_equal(seq[0], single.data[0, 0])

    def test_empty_sequence_rejected(self):
        model = build(ModelConfig(seed=0))
        with pytest.raises(ValueError, match="at least one"):
            model.predict_sequence([])

    def test_output_ema_composes_with_standalone_oracle(self):
        stateless = build(ModelConfig(recurrence="none", seed=7))
        wrapped = build(ModelConfig(recurrence="ema", alpha=0.1,
                                    ema_points=("output",), seed=7))
        rng = np.random.default_rng(5)
        fs = frames_from(rng, 6)
        raw_maps = stateless.predict_sequence(fs)
        cfg = EmaConfig(alpha=0.1)
        state = EmaState()
        expected = []
        for m in raw_maps:
            out, state = ema_step(Tensor(m), state, cfg)
            expected.append(out.data)
        got = wrapped.predict_sequence(fs)
        for e, g in zip(expected, got):
            np.testing.assert_allclose(g, e, atol=1e-12)

    def test_frame_permutation_changes_outputs(self):
        model = build(ModelConfig(recurrence="ema", alpha=0.1, seed=8))
        rng = np.random.default_rng(6)
        fs = frames_from(rng, 3)
        a = model.predict_sequence(fs)[-1]
        b = model.predict_sequence([fs[1], fs[0], fs[2]])[-1]
        assert not np.array_equal(a, b)

    def test_temporal_influence_of_first_frame(self):
        model = build(ModelConfig(recurrence="ema", alpha=0.3, seed=9))
        rng = np.random.default_rng(7)
        fs = frames_from(rng, 6)
        base = model.predict_sequence(fs)[5]
        perturbed = [fs[0] + 0.1] + fs[1:]
        moved = model.predict_sequence(perturbed)[5]
        assert np.abs(base - moved).max() > 0.0

    def test_dual_insertion_keeps_two_states(self):
        model = build(ModelConfig(recurrence="ema", alpha=0.3,
                                  ema_points=("encoder1", "decoder3"), seed=10))
        states = model.fresh_states()
        assert len(states.states) == 2
        rng = np.random.default_rng(8)
        model.forward_frame(Tensor(np.stack(frames_from(rng, 3))[:, None]),
                            states)
        accs = [st.accumulator for st in states.states.values()]
        assert all(a is not None for a in accs)
        assert accs[0].shape != accs[1].shape  # encoder vs decoder resolution

    def test_residual_ema_runs_and_stays_in_range(self):
        model = build(ModelConfig(recurrence="ema-residual", alpha=0.5,
                                  ema_points=("output",), seed=11))
        rng = np.random.default_rng(9)
        for m in model.predict_sequence(frames_from(rng, 4)):
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_dropout_only_active_in_training(self):
        """Dropout draws a mask only from a generator it is handed, as
        training hands it one; without one the maps repeat."""
        cfg = ModelConfig(recurrence="ema", alpha=0.5, dropout=True, seed=12)
        model = build(cfg)
        frames = np.random.default_rng(10).uniform(0, 1, (3, 32, 32))
        frame = Tensor(frames[:1, None])
        a = model.forward_frame(frame, model.fresh_states())
        b = model.forward_frame(frame, model.fresh_states())
        assert np.array_equal(a.data, b.data)
        maps = model.predict_sequence(list(frames))
        assert np.array_equal(maps[0], a.data[0, 0])
        assert all(np.array_equal(m, n) for m, n in
                   zip(maps, model.predict_sequence(list(frames))))
        rng = np.random.default_rng(11)
        c = model.forward_frame(frame, model.fresh_states(), rng)
        assert not np.array_equal(a.data, c.data)


# --- a clip as one frame stack ----------------------------------------------

STACK_CASES = {
    "none": dict(recurrence="none"),
    "ema-bottleneck": dict(recurrence="ema"),
    "ema-encoder1-output": dict(recurrence="ema",
                                ema_points=("encoder1", "output")),
    "ema-trainable": dict(recurrence="ema-trainable"),
    "ema-residual-output": dict(recurrence="ema-residual",
                                ema_points=("output",)),
    "convlstm": dict(recurrence="convlstm"),
}
# dropout in front of the output EMA is rejected; `none` has no dropout
DROPOUT_CASES = ("ema-bottleneck", "ema-trainable", "ema-residual-output",
                 "convlstm")


def stack_model(dropout=False, alpha=0.3, **kw):
    return build(ModelConfig(input_size=(16, 16), stages=2, base_channels=4,
                             alpha=alpha, dropout=dropout, seed=13, **kw))


def per_frame_fold(model, frames, gts, states, rng):
    """The oracle: one `forward_frame` per [1, 1, H, W] frame, and the clip
    loss as the mean of the per-frame BCEs."""
    maps, total = [], None
    for f, g in zip(frames, gts):
        pred = model.forward_frame(Tensor(f[None]), states, rng)
        maps.append(pred.data[0])
        loss = bce_loss(pred, Tensor(g[None]))
        total = loss if total is None else add(total, loss)
    return np.stack(maps), scale(total, 1.0 / len(frames))


def one_stack(model, frames, gts, states, rng):
    pred = model.forward_frame(Tensor(frames), states, rng)
    return pred.data, bce_loss(pred, Tensor(gts))


def state_values(states):
    return [t.data for st in states.states.values()
            for t in vars(st).values()]


def run_clip(fold, dropout, **kw):
    """Maps, loss, gradients and final state of a 5-frame clip that starts
    from a state advanced by one frame, so every step folds in a carry."""
    model = stack_model(dropout, **kw)
    rng = np.random.default_rng(0)
    frames = rng.uniform(0, 1, size=(6, 1, 16, 16))
    gts = rng.uniform(0, 1, size=(6, 1, 16, 16))
    drop = np.random.default_rng(1)
    states = model.fresh_states()
    model.forward_frame(Tensor(frames[:1]), states, drop)
    maps, loss = fold(model, frames[1:], gts[1:], states, drop)
    backward(loss)
    grads = {name: p.grad for name, p in model.registry.items()}
    return maps, loss.item(), grads, state_values(states)


class TestFrameStack:
    """One `forward_frame` over a clip's [T, 1, H, W] stack against the
    per-frame fold. Maps, states and dropout masks at one insertion point
    are bit-equal. The loss and gradients sum the same terms in another
    order (the BCE mean over all T*H*W pixels at once, each conv's kernel
    and bias gradient over all T frames at once), so they agree to within
    T*H*W float64 epsilons of their scale."""

    TOL = 5 * 16 * 16 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("case,dropout", [
        *((case, False) for case in sorted(STACK_CASES)),
        *((case, True) for case in DROPOUT_CASES)])
    def test_matches_per_frame_fold(self, case, dropout):
        maps, loss, grads, state = run_clip(one_stack, dropout,
                                            **STACK_CASES[case])
        ref_maps, ref_loss, ref_grads, ref_state = run_clip(
            per_frame_fold, dropout, **STACK_CASES[case])
        assert np.array_equal(maps, ref_maps)
        assert len(state) == len(ref_state)
        assert all(np.array_equal(a, b) for a, b in zip(state, ref_state))
        assert abs(loss - ref_loss) <= self.TOL * ref_loss
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= self.TOL * np.abs(ref).max(), name

    def test_dropout_draws_point_after_point(self):
        """With dropout at two insertion points, a stack draws the first
        point's masks for all T frames, then the second's. T per-frame
        calls drew them frame after frame, so the masks differ from those
        of the per-frame path with the same rng."""
        kw = dict(recurrence="ema", ema_points=("encoder1", "decoder2"))
        rng = np.random.default_rng(0)
        frames = rng.uniform(0, 1, size=(4, 1, 16, 16))
        gts = rng.uniform(0, 1, size=(4, 1, 16, 16))

        class PointMajor:
            """Hands per-frame calls the rows of the stack's draws."""

            def __init__(self, seed):
                draw = np.random.default_rng(seed).random
                # encoder1 sees (4, 8, 8) activations, decoder2 (4, 16, 16)
                masks = [draw((4, 4, 8, 8)), draw((4, 4, 16, 16))]
                self.rows = [m[t:t + 1] for t in range(4) for m in masks]

            def random(self, shape):
                row = self.rows.pop(0)
                assert row.shape == shape
                return row

        def maps(fold, rng):
            model = stack_model(True, **kw)
            return fold(model, frames, gts, model.fresh_states(), rng)[0]

        stacked = maps(one_stack, np.random.default_rng(2))
        assert np.array_equal(stacked, maps(per_frame_fold, PointMajor(2)))
        assert not np.array_equal(
            stacked, maps(per_frame_fold, np.random.default_rng(2)))

    @pytest.mark.parametrize("case,alpha_override", [
        *((case, None) for case in sorted(STACK_CASES)),
        ("ema-bottleneck", 0.3)])
    def test_predict_sequence_matches_one_stack(self, case, alpha_override):
        """Evaluation maps frame by frame equal one `no_grad` call over the
        video's [T, 1, H, W] stack; an override of the model's 0.1 gives the
        maps of the model built at that alpha, and leaves the model as it
        was."""
        model = stack_model(alpha=0.1, **STACK_CASES[case])
        built = model if alpha_override is None else stack_model(
            alpha=alpha_override, **STACK_CASES[case])
        frames = np.random.default_rng(3).uniform(0, 1, size=(6, 16, 16))
        maps = model.predict_sequence(list(frames), alpha_override)
        with no_grad():
            stacked = built.forward_frame(Tensor(frames[:, None]),
                                          built.fresh_states())
        assert np.array_equal(np.stack(maps), stacked.data[:, 0])
        if alpha_override is not None:
            assert model.ema_cfg.alpha == 0.1


# --- the output tail at low resolution ----------------------------------------

def full_size_tail(model, frames, states, rng=None):
    """Oracle: `forward_frame` in the old tail order, where every decoder
    stage upsamples and the head and sigmoid run at full size. An upsample
    that the next conv folds in (`ConvLayer.upsampled`) is left to it."""
    x = frames
    for k, conv in enumerate(model.enc_convs, start=1):
        x = model._recur(relu(maxpool2d(conv(x))), f"encoder{k}", states,
                         rng)
    x = model._recur(x, "bottleneck", states, rng)
    folded = [conv.upsampled for conv in model.dec_convs[1:]] + [False]
    for k, (conv, fold) in enumerate(zip(model.dec_convs, folded), start=1):
        x = relu(conv(x))
        x = model._recur(x if fold else upsample_nearest(x), f"decoder{k}",
                         states, rng)
    x = model.head(x)
    residual = model.ema_cfg is not None and model.ema_cfg.residual
    if residual:
        x = model._recur(x, "output", states, rng)
    x = sigmoid(x)
    if not residual:
        x = model._recur(x, "output", states, rng)
    return x


@st.composite
def tail_configs(draw):
    """A small model of any recurrence kind at any 1 or 2 insertion points,
    dropout included where the config allows it."""
    stages = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(RECURRENCE_KINDS))
    points = ("bottleneck",)
    if kind not in ("none", "convlstm"):
        every = ["bottleneck", "output",
                 *(f"encoder{k}" for k in range(1, stages)),
                 *(f"decoder{k}" for k in range(1, stages + 1))]
        points = tuple(draw(st.lists(st.sampled_from(every), min_size=1,
                                     max_size=2, unique=True)))
    dropout = (kind != "none" and draw(st.booleans())
               and ("output" not in points or kind == "ema-residual"))
    return ModelConfig(input_size=(2 << stages, 2 << stages), stages=stages,
                       base_channels=2, recurrence=kind, ema_points=points,
                       alpha=draw(st.sampled_from([0.1, 0.5, 1.0])),
                       dropout=dropout, seed=draw(st.integers(0, 99)))


class TestLowResolutionTail:
    """The head and sigmoid run before the last upsample (`forward_frame`)
    against `full_size_tail`. They act on each pixel alone, so they commute
    with the nearest-neighbour copy: maps and states are bit-equal. The
    gradients sum the four taps of each upsampled pixel before the head,
    not after, so they agree to GRAD_RTOL of the model's largest gradient.
    Not of each tensor's: a bias gradient can be a sum whose terms cancel
    to a small share of their size (a head.bias gradient of 5.5e-5 moved
    by 2.5e-13 of itself), while over 1,500 drawn cases no gradient moved
    by more than 2.7e-15 of the model's largest."""

    GRAD_RTOL = 1e-13

    @settings(max_examples=60, deadline=None)
    @given(tail_configs(), st.integers(1, 3), st.booleans(),
           st.integers(0, 2 ** 16))
    def test_matches_full_size_tail(self, cfg, n_frames, with_rng, seed):
        h, w = cfg.input_size
        data = np.random.default_rng(seed).uniform(size=(2, n_frames, 1, h, w))
        runs = []
        for forward in (Model.forward_frame, full_size_tail):
            model = build(cfg)
            states = model.fresh_states()
            drop = np.random.default_rng(seed) if with_rng else None
            # a second clip folds in the state that the first carries
            maps = [forward(model, Tensor(clip), states, drop)
                    for clip in data]
            backward(add(*(bce_loss(m, Tensor(g))
                           for m, g in zip(maps, data[::-1]))))
            runs.append(([m.data for m in maps] + state_values(states),
                         model.registry))
        (values, reg), (ref_values, ref_reg) = runs
        assert len(values) == len(ref_values)
        assert all(np.array_equal(a, b) for a, b in zip(values, ref_values))
        bound = self.GRAD_RTOL * max(np.abs(p.grad).max()
                                     for _, p in ref_reg.items())
        for name, p in reg.items():
            assert np.abs(p.grad - ref_reg[name].grad).max() <= bound, name


class TestFoldedUpsample:
    """Each decoder conv after the first folds the upsample in front of it
    (`upsample_conv3x3`) unless a recurrence sits at the `decoderK` point
    in between. `forward_frame` against the same model with every fold
    turned off, so that each decoder conv runs over an explicit
    `upsample_nearest`. The values sum the same products in another order:
    over 1,500 drawn cases, maps moved by at most 3.3e-16, states by
    1.2e-15 of each state's largest element, and gradients by 1.5e-15 of
    the model's largest."""

    MAP_ATOL = 1e-14  # maps lie in [0, 1]
    STATE_RTOL = 1e-13
    GRAD_RTOL = 1e-13

    @staticmethod
    def unfolded(cfg):
        model = build(cfg)
        for conv in model.dec_convs:
            conv.upsampled = False
        return model

    @pytest.mark.parametrize("recurrence,folds", [
        ("none", [False, True, True]), ("ema", [False, False, True])])
    def test_folds_where_no_decoder_recurrence_intervenes(self, recurrence,
                                                          folds):
        model = build(ModelConfig(input_size=(16, 16), stages=3,
                                  base_channels=2, recurrence=recurrence,
                                  ema_points=("decoder1",)))
        assert [conv.upsampled for conv in model.dec_convs] == folds

    @settings(max_examples=60, deadline=None)
    @given(tail_configs(), st.integers(1, 3), st.booleans(),
           st.integers(0, 2 ** 16))
    def test_matches_explicit_upsample(self, cfg, n_frames, with_rng, seed):
        h, w = cfg.input_size
        data = np.random.default_rng(seed).uniform(size=(2, n_frames, 1, h, w))
        runs = []
        for model in (build(cfg), self.unfolded(cfg)):
            states = model.fresh_states()
            drop = np.random.default_rng(seed) if with_rng else None
            # a second clip folds in the state that the first carries
            maps = [model.forward_frame(Tensor(clip), states, drop)
                    for clip in data]
            backward(add(*(bce_loss(m, Tensor(g))
                           for m, g in zip(maps, data[::-1]))))
            runs.append(([m.data for m in maps], state_values(states),
                         model.registry))
        (maps, state, reg), (ref_maps, ref_state, ref_reg) = runs
        for a, b in zip(maps, ref_maps):
            assert np.abs(a - b).max() <= self.MAP_ATOL
        assert len(state) == len(ref_state)
        for a, b in zip(state, ref_state):
            assert np.abs(a - b).max() <= self.STATE_RTOL * np.abs(b).max()
        bound = self.GRAD_RTOL * max(np.abs(p.grad).max()
                                     for _, p in ref_reg.items())
        for name, p in reg.items():
            assert np.abs(p.grad - ref_reg[name].grad).max() <= bound, name


class TestModelGradcheck:
    """`check_model`, the model's finite-difference gradient check."""

    def test_probe_clear_of_kinks_at_seed_105(self):
        # its first clip put a ReLU input 8.6e-6 from zero: the central
        # difference straddled the kink and read 2.3e-2
        [result] = check_model(seed=105)
        assert result.passed, result.max_rel_err

    def test_kink_distance_sees_tied_pool_windows(self):
        # on a blank clip the first conv gives its bias, 1, at every tap
        model = build(ModelConfig(input_size=(8, 8), stages=2,
                                  base_channels=2, recurrence="ema"))
        for name, p in model.registry.items():
            if name.endswith(".bias"):
                p.data[...] = 1.0
        assert kink_distance(model, Tensor(np.zeros((3, 1, 8, 8)))) == 0.0

    def test_planted_relu_error_fails(self, monkeypatch):
        def relu(a):  # ReLU whose gradient is 0.1% too large
            mask = a.data > 0
            return _node(np.where(mask, a.data, 0.0),
                         (a, lambda g: g * mask * (1 + 1e-3)))

        monkeypatch.setattr(salrec.model, "relu", relu)
        for seed in (0, 105):
            [result] = check_model(seed=seed)
            assert result.max_rel_err > TOL, (seed, result.max_rel_err)

    @pytest.mark.sweep
    def test_passes_at_every_seed(self):
        for seed in range(200):
            [result] = check_model(seed=seed)
            assert result.passed, (seed, result.max_rel_err)
