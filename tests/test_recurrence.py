import numpy as np
import pytest
from hypothesis import given, strategies as st

import salrec.recurrence
from chain_ops import concat, split
from salrec.gradcheck import check_recurrence
from salrec.layers import ParameterRegistry
from salrec.model import EMA_KINDS, ModelConfig, build
from salrec.recurrence import (ConvLstmState, ConvLstmWeights, EmaConfig,
                               EmaState, convlstm_step, ema_step)
from salrec.tensor import (ComputationTape, Tensor, _node, _sigmoid, add,
                           add_const, backward, broadcast_mul, conv2d, mul,
                           scale, sigmoid, tanh, tsum)
from salrec.training import bce_loss


def run_ema(inputs, cfg):
    state = EmaState()
    outs = []
    for x in inputs:
        out, state = ema_step(Tensor(np.asarray(x, dtype=float)), state, cfg)
        outs.append(out.data)
    return outs


class TestEmaStep:
    def test_alpha_one_is_identity_bit_exact(self):
        rng = np.random.default_rng(0)
        xs = [rng.normal(size=(2, 3)) for _ in range(5)]
        outs = run_ema(xs, EmaConfig(alpha=1.0))
        for x, o in zip(xs, outs):
            assert np.array_equal(o, x)

    def test_constant_input_fixed_point(self):
        outs = run_ema([np.full((2, 2), 3.0)] * 6, EmaConfig(alpha=0.2))
        for o in outs:
            np.testing.assert_allclose(o, 3.0)

    def test_direct_recursion_example(self):
        outs = run_ema([1.0, 0.0, 0.0], EmaConfig(alpha=0.1))
        np.testing.assert_allclose([o.item() for o in outs], [1.0, 0.9, 0.81])

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2, 0.3, 1.0])
    def test_closed_form_weighted_sum(self, alpha):
        rng = np.random.default_rng(1)
        xs = [rng.normal(size=(3,)) for _ in range(51)]
        outs = run_ema(xs, EmaConfig(alpha=alpha))
        for t in range(51):
            # weights: alpha*(1-alpha)^(t-k) on s_k for k>=1, (1-alpha)^t on s_0
            ref = (1 - alpha) ** t * xs[0]
            for k in range(1, t + 1):
                ref = ref + alpha * (1 - alpha) ** (t - k) * xs[k]
            np.testing.assert_allclose(outs[t], ref, atol=1e-10)

    @given(st.floats(0.01, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_convexity_bound(self, alpha, seed):
        rng = np.random.default_rng(seed)
        xs = [rng.uniform(-5, 5, size=(4,)) for _ in range(8)]
        outs = run_ema(xs, EmaConfig(alpha=alpha))
        lo = np.minimum.reduce(xs[:1])
        hi = np.maximum.reduce(xs[:1])
        for t, out in enumerate(outs):
            lo = np.minimum(lo, xs[t])
            hi = np.maximum(hi, xs[t])
            assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_shape_mismatch_rejected(self):
        cfg = EmaConfig(alpha=0.5)
        _, state = ema_step(Tensor(np.zeros((2, 2))), EmaState(), cfg)
        with pytest.raises(ValueError, match="shape"):
            ema_step(Tensor(np.zeros((3, 3))), state, cfg)

    def test_residual_with_alpha_one_doubles(self):
        rng = np.random.default_rng(2)
        xs = [rng.normal(size=(2, 2)) for _ in range(4)]
        outs = run_ema(xs, EmaConfig(alpha=1.0, residual=True))
        for x, o in zip(xs, outs):
            np.testing.assert_allclose(o, 2.0 * x)

    def test_residual_accumulator_stores_plain_ema(self):
        cfg = EmaConfig(alpha=0.5, residual=True)
        state = EmaState()
        out, state = ema_step(Tensor(np.full((1,), 1.0)), state, cfg)
        assert state.accumulator.data[0] == 1.0  # e_0 = s_0, output = 2
        assert out.data[0] == 2.0
        out, state = ema_step(Tensor(np.full((1,), 0.0)), state, cfg)
        assert state.accumulator.data[0] == 0.5
        assert out.data[0] == 0.5


class TestEmaAlpha:
    """The alpha that `ema_step` blends with: sigmoid(p) when the config
    holds a registered p, else the fixed `alpha`."""

    def test_trainable_starts_at_half(self):
        # the model registers p = 0 as `ema.p`, after the head
        model = build(ModelConfig(recurrence="ema-trainable"))
        assert model.registry.names()[-1] == "ema.p"
        assert model.ema_cfg.p is model.registry["ema.p"]
        assert run_ema([[2.0], [0.0]], model.ema_cfg)[1][0] == 1.0

    def test_fixed_passthrough(self):
        outs = run_ema([[2.0], [0.0]], EmaConfig(alpha=0.1))
        assert outs[1][0] == 2.0 * (1 - 0.1)

    def test_invalid_fixed_alpha_rejected(self):
        with pytest.raises(ValueError):
            EmaConfig(alpha=0.0)
        with pytest.raises(ValueError):
            EmaConfig(alpha=1.5)
        # a registered p makes alpha trainable; the fixed one goes unused
        p = ParameterRegistry().register("ema.p", Tensor(np.asarray(0.0)))
        assert run_ema([[2.0], [0.0]], EmaConfig(alpha=0.0, p=p))[1][0] == 1.0


def chain_ema(s_t, state, cfg):
    """Oracle: the EMA update as a chain of single ops, 3 tape nodes for a
    fixed alpha and 6 for a trainable one, where `ema_step` records one."""
    prev = state.accumulator
    if prev is None or (cfg.p is None and cfg.alpha == 1.0):
        e_t = s_t
    elif cfg.p is not None:
        a = sigmoid(cfg.p)
        one_minus = add_const(scale(a, -1.0), 1.0)
        e_t = add(broadcast_mul(s_t, a), broadcast_mul(prev, one_minus))
    else:
        e_t = add(scale(s_t, cfg.alpha), scale(prev, 1.0 - cfg.alpha))
    return (add(s_t, e_t) if cfg.residual else e_t), EmaState(accumulator=e_t)


def ema_unroll(step_fn, data, upstream, alpha, p0, residual):
    """Run `step_fn` over the frames, backpropagate the outputs and the
    final accumulator projected onto fixed upstream weights (the last for
    the accumulator); returns the frames, outputs, accumulators and p (None
    for a fixed alpha), whose grads backward filled."""
    p = None if p0 is None else Tensor(np.asarray(p0), requires_grad=True)
    cfg = EmaConfig(alpha=alpha, residual=residual, p=p)
    frames = [Tensor(x, requires_grad=True) for x in data]
    state, outs, accs, total = EmaState(), [], [], None
    for s_t, up in zip(frames, upstream):
        out, state = step_fn(s_t, state, cfg)
        outs.append(out)
        accs.append(state.accumulator)
        term = tsum(mul(out, Tensor(up)))
        total = term if total is None else add(total, term)
    backward(add(total, tsum(mul(state.accumulator, Tensor(upstream[-1])))))
    return frames, outs, accs, p


def ema_scan(data, upstream, alpha, p0, residual):
    """`ema_unroll`'s problem as one `ema_step` call over the stack of the
    frames; returns the blocks of the outputs and of the stack's gradient,
    the final accumulator and p."""
    p = None if p0 is None else Tensor(np.asarray(p0), requires_grad=True)
    cfg = EmaConfig(alpha=alpha, residual=residual, p=p)
    stack = Tensor(np.concatenate([Tensor(x).data for x in data]),
                   requires_grad=True)
    out, state = ema_step(stack, EmaState(), cfg, frames=len(data))
    up = np.concatenate([Tensor(u).data for u in upstream[:-1]])
    backward(add(tsum(mul(out, Tensor(up))),
                 tsum(mul(state.accumulator, Tensor(upstream[-1])))))
    return (np.split(out.data, len(data)), np.split(stack.grad, len(data)),
            state.accumulator, p)


def assert_bits_equal(got, want, name):
    """array_equal with the sign bit of every zero compared too."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


class TestEmaNode:
    """`ema_step` against the chains it replaces (`chain_ema`), one frame
    per call and as one call over the stack. Values and the frame and
    accumulator gradients are the same products and sums, so they are
    bit-equal. The p gradient adds the same per-step terms in another
    order: the chain adds each step's sigmoid node into p.grad where the
    tape reaches it, `ema_step` adds its terms as its reverse scan runs. So
    they agree to P_RTOL of the sum of the terms' magnitudes. One-frame
    calls and the stack both add them from the last update back, so their
    p gradients are bit-equal."""

    P_RTOL = 1e-14
    SHAPES = [(), (3,), (2, 2, 3, 3)]  # a Tensor holds 0-d data as (1,)

    def assert_matches_chain(self, shape, steps, alpha, p0, residual, seed):
        rng = np.random.default_rng(seed)
        data = [rng.uniform(-2, 2, size=shape) for _ in range(steps)]
        upstream = [rng.normal(size=shape) for _ in range(steps + 1)]
        (frames, outs, accs, p), (frames_ref, outs_ref, accs_ref, p_ref) = (
            ema_unroll(fn, data, upstream, alpha, p0, residual)
            for fn in (ema_step, chain_ema))
        stack_outs, stack_grads, acc, p_stack = ema_scan(
            data, upstream, alpha, p0, residual)
        for t in range(steps):
            assert_bits_equal(outs[t].data, outs_ref[t].data, ("out", t))
            assert_bits_equal(stack_outs[t], outs_ref[t].data,
                              ("stack out", t))
            assert_bits_equal(accs[t].data, accs_ref[t].data, ("e_t", t))
            assert_bits_equal(frames[t].grad, frames_ref[t].grad, ("s_t", t))
            assert_bits_equal(stack_grads[t], frames_ref[t].grad,
                              ("stack s_t", t))
            # under residual the accumulator is a slice of the node and
            # gets only what later updates send; the frames' gradients
            # above include that
            if not residual:
                assert_bits_equal(accs[t].grad, accs_ref[t].grad,
                                  ("e_t grad", t))
        assert_bits_equal(acc.data, accs_ref[-1].data, "stack e_T")
        if p is None:
            return
        if steps == 1:  # alpha is not used on the first frame
            assert p.grad is None and p_ref.grad is None
            assert p_stack.grad is None
            return
        a = _sigmoid(p0)
        magnitude = sum(
            np.sum(np.abs(e.grad) * (np.abs(s.data) + np.abs(prev.data)))
            for e, s, prev in zip(accs_ref[1:], frames_ref[1:], accs_ref))
        bound = self.P_RTOL * magnitude * a * (1 - a)
        assert abs(p.grad - p_ref.grad) <= bound, (p.grad, p_ref.grad, bound)
        assert_bits_equal(p_stack.grad, p.grad, "stack p")

    @given(shape=st.sampled_from(SHAPES), steps=st.integers(1, 6),
           alpha=st.floats(0, 1, exclude_min=True, exclude_max=True)
           | st.just(1.0),
           p0=st.none() | st.floats(-4, 4), residual=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_chain(self, shape, steps, alpha, p0, residual, seed):
        self.assert_matches_chain(shape, steps, alpha, p0, residual, seed)

    @pytest.mark.parametrize("fault", ["p edge without a(1-a)",
                                       "accumulator edge one ulp high"])
    def test_planted_fault_fails(self, monkeypatch, fault):
        """Each fault planted in the last edge of the scan's node: p's, or
        the accumulator's, which follows the frames' on a call that
        continues a state."""
        def planted(data, *edges, prepare=None):
            *edges, (last, vjp) = edges
            if fault == "p edge without a(1-a)":
                a = _sigmoid(last.data)
                edges.append((last, lambda d: vjp(d) / (a * (1 - a))))
            elif edges:
                edges.append((last, lambda d: np.nextafter(vjp(d), np.inf)))
            else:  # the frames' edge alone
                edges.append((last, vjp))
            return _node(data, *edges, prepare=prepare)

        monkeypatch.setattr(salrec.recurrence, "_node", planted)
        p0 = 0.7 if fault == "p edge without a(1-a)" else None
        with pytest.raises(AssertionError):
            self.assert_matches_chain((2, 2, 3, 3), 4, 0.3, p0, False, 0)

    @pytest.mark.parametrize("p0", [None, 0.2])
    def test_one_node_per_update(self, p0):
        p = None if p0 is None else Tensor(np.asarray(p0), requires_grad=True)
        cfg = EmaConfig(alpha=0.3, p=p)
        s_0, s_1 = (Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
                    for _ in range(2))
        _, state = ema_step(s_0, EmaState(), cfg)
        assert state.accumulator is s_0
        e_1, _ = ema_step(s_1, state, cfg)
        assert e_1._parents == (s_1, s_0) + (() if p is None else (p,))
        assert ComputationTape(e_1).ops == [e_1]

    @pytest.mark.parametrize("residual", [False, True])
    def test_one_node_per_stack(self, residual):
        """A 4-frame stack is one node; its accumulator, and under residual
        its outputs too, are slices of it."""
        p = Tensor(np.asarray(0.2), requires_grad=True)
        s = Tensor(np.ones((4, 2, 3, 3)), requires_grad=True)
        out, state = ema_step(s, EmaState(), EmaConfig(residual=residual, p=p),
                              frames=4)
        scan = out._parents[0] if residual else out
        assert scan._parents == (s, p)
        assert state.accumulator._parents == (scan,)
        assert np.array_equal(state.accumulator.data, scan.data[-1:])
        assert len(ComputationTape(tsum(out)).ops) == 2 + residual

    @pytest.mark.parametrize("s, acc, frames", [
        ((4, 2), None, 0),  # no frame
        ((4, 2), None, -1),
        ((5, 2), None, 2),  # axis 0 does not split into the frames
        ((4, 2), (1, 2), 2)],  # accumulator shape
        ids=["zero-frames", "negative-frames", "uneven", "accumulator"])
    def test_stack_shape_rejected(self, s, acc, frames):
        state = EmaState(None if acc is None else Tensor(np.zeros(acc)))
        with pytest.raises(ValueError, match="ema_step"):
            ema_step(Tensor(np.zeros(s)), state, EmaConfig(), frames=frames)

    @pytest.mark.parametrize("kind", EMA_KINDS)
    def test_two_point_clip_matches_chain(self, monkeypatch, kind):
        """A default-shape 6-frame clip with dropout and the EMA at
        `encoder1` and `decoder2`, `forward_frame` and backward, with each
        point scanned and as `chain_ema` frame by frame: maps and every
        gradient bit-equal, but p's. The chain adds the per-step terms of
        both points into p.grad one by one, each scan adds its point's sum,
        so they agree to 1e-15 (1.2e-16 here, at seed 1)."""
        def chain_scan(s, state, cfg, frames=1):
            outs = []
            for s_t in split(s, frames, axis=0):
                out, state = chain_ema(s_t, state, cfg)
                outs.append(out)
            return concat(*outs, axis=0), state

        rng = np.random.default_rng(1)
        frames, gts = (Tensor(rng.uniform(size=(6, 1, 32, 32)))
                       for _ in range(2))
        runs = []
        for step_fn in (ema_step, chain_scan):
            monkeypatch.setattr(salrec.model, "ema_step", step_fn)
            model = build(ModelConfig(recurrence=kind, dropout=True, seed=1,
                                      ema_points=("encoder1", "decoder2")))
            maps = model.forward_frame(frames, model.fresh_states(),
                                       np.random.default_rng(1))
            backward(bce_loss(maps, gts))
            runs.append((maps.data, model.registry))
        (maps, reg), (maps_ref, reg_ref) = runs
        assert_bits_equal(maps, maps_ref, "maps")
        for name in reg.names():
            if name == "ema.p":
                np.testing.assert_allclose(reg[name].grad, reg_ref[name].grad,
                                           rtol=1e-15, atol=0)
            else:
                assert_bits_equal(reg[name].grad, reg_ref[name].grad, name)

    @pytest.mark.parametrize("kind, nodes", [
        ("ema", 24), ("ema-trainable", 24), ("ema-residual", 25),
        ("convlstm", 25)])
    def test_default_clip_tape_nodes(self, kind, nodes):
        """A default-config 10-frame clip: 23 nodes without a recurrence,
        and one for the EMA's scan over the clip, plus the slice of its
        outputs under residual. Split into frames, one node per update
        after the first frame and a concat back recorded 43 (53 with the
        residual adds); the single-op chains 61 for `ema` and 88 for
        `ema-trainable`. The ConvLSTM scans the clip in one node, plus the
        slice of its C_t stack; stepped frame by frame with a conv and a
        two-node cell, it recorded 73."""
        rng = np.random.default_rng(26)
        model = build(ModelConfig(recurrence=kind))
        frames, gts = (Tensor(rng.uniform(size=(10, 1, 32, 32)))
                       for _ in range(2))
        pred = model.forward_frame(frames, model.fresh_states(), rng)
        assert len(ComputationTape(bce_loss(pred, gts)).ops) == nodes


def make_weights(seed=0, in_ch=2, ch=2, spatial=(3, 3)):
    reg = ParameterRegistry()
    w = ConvLstmWeights(reg, "clstm", in_ch, ch, spatial,
                        np.random.default_rng(seed))
    return reg, w


def zero_weights():
    reg, w = make_weights()
    for _, p in reg.items():
        p.data[...] = 0.0
    return reg, w


class TestConvLstm:
    def test_zero_weights_fixed_point(self):
        _, w = zero_weights()
        state = ConvLstmState.zeros(1, 2, 3, 3)
        x = Tensor(np.random.default_rng(4).normal(size=(1, 2, 3, 3)))
        for _ in range(3):
            out, state = convlstm_step(x, state, w)
            assert np.all(out.data == 0.0)
            assert np.all(state.cell.data == 0.0)
            assert np.all(state.hidden.data == 0.0)

    def test_zero_weights_nonzero_initial_cell(self):
        _, w = zero_weights()
        c0 = np.random.default_rng(5).normal(size=(1, 2, 3, 3))
        state = ConvLstmState(cell=Tensor(c0), hidden=Tensor(np.zeros((1, 2, 3, 3))))
        x = Tensor(np.zeros((1, 2, 3, 3)))
        out, state = convlstm_step(x, state, w)
        # gates pinned to sigmoid(0)=0.5 (zero peepholes), candidate tanh(0)=0
        np.testing.assert_allclose(state.cell.data, 0.5 * c0, atol=1e-12)
        np.testing.assert_allclose(state.hidden.data,
                                   0.5 * np.tanh(0.5 * c0), atol=1e-12)
        np.testing.assert_allclose(out.data, state.cell.data)

    def test_gate_and_state_ranges_random_steps(self):
        _, w = make_weights(seed=6)
        rng = np.random.default_rng(7)
        state = ConvLstmState.zeros(1, 2, 3, 3)
        for _ in range(200):
            x = Tensor(rng.uniform(-2, 2, size=(1, 2, 3, 3)))
            prev_cell = state.cell.data.copy()
            out, state = convlstm_step(x, state, w)
            assert np.all(np.abs(state.hidden.data) < 1.0)
            assert np.all(np.abs(state.cell.data) <= np.abs(prev_cell) + 1.0)

    def test_emits_cell_state(self):
        _, w = make_weights(seed=8)
        x = Tensor(np.random.default_rng(9).normal(size=(1, 2, 3, 3)))
        out, state = convlstm_step(x, ConvLstmState.zeros(1, 2, 3, 3), w)
        assert np.array_equal(out.data, state.cell.data)

    def test_shape_mismatch_rejected(self):
        _, w = make_weights()
        with pytest.raises(ValueError, match="spatial"):
            convlstm_step(Tensor(np.zeros((1, 2, 5, 5))),
                          ConvLstmState.zeros(1, 2, 3, 3), w)

    def test_candidate_gate_has_no_peephole(self):
        reg, _ = make_weights()
        assert "clstm.c.peephole" not in reg.names()


def per_gate_step(s_t, state, w):
    """Oracle: the cell written gate by gate, as two convolutions (input and
    hidden kernels) plus a bias per gate, with kernels sliced from the
    fused (4C, Cin + C, 3, 3) kernel in u/f/o/c block order."""
    c, cin = state.cell.shape[1], s_t.shape[1]
    peep = dict(zip("ufo", w.peepholes))

    def gate(k, g):
        rows = slice(k * c, (k + 1) * c)
        pre = add(conv2d(s_t, Tensor(w.kernel.data[rows, :cin]),
                         Tensor(w.bias.data[rows])),
                  conv2d(state.hidden, Tensor(w.kernel.data[rows, cin:])))
        if g == "c":
            return tanh(pre)
        return sigmoid(add(pre, broadcast_mul(peep[g], state.cell)))

    u_t, f_t, o_t, cand = (gate(k, g) for k, g in enumerate("ufoc"))
    c_t = add(mul(f_t, state.cell), mul(u_t, cand))
    return ConvLstmState(cell=c_t, hidden=mul(o_t, tanh(c_t)))


class TestFusedCell:
    def test_registers_one_kernel_one_bias_three_peepholes(self):
        reg, w = make_weights(in_ch=3, ch=2)
        assert [(n, reg[n].shape) for n in reg.names()] == [
            ("clstm.kernel", (8, 5, 3, 3)), ("clstm.bias", (8,)),
            ("clstm.u.peephole", (2, 3, 3)), ("clstm.f.peephole", (2, 3, 3)),
            ("clstm.o.peephole", (2, 3, 3))]

    def test_matches_per_gate_oracle(self):
        # one GEMM over Cin + C input channels against two GEMMs and an add:
        # the same terms summed in another order, so agreement to 1e-12
        _, w = make_weights(seed=13, in_ch=3, ch=2)
        w.bias.data[...] = np.random.default_rng(14).uniform(-1, 1, 8)
        rng = np.random.default_rng(15)
        state = ref = ConvLstmState.zeros(1, 2, 3, 3)
        for _ in range(6):
            x = Tensor(rng.uniform(-2, 2, size=(1, 3, 3, 3)))
            _, state = convlstm_step(x, state, w)
            ref = per_gate_step(x, ref, w)
            np.testing.assert_allclose(state.cell.data, ref.cell.data,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.hidden.data, ref.hidden.data,
                                       rtol=0, atol=1e-12)


class TestBpttGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_probes_clear_of_rounding_noise(self, seed):
        # correct gradients read an order of magnitude inside the tolerance
        results = check_recurrence(seed=seed)
        assert [r.name for r in results] == [
            "ema_step", "trainable alpha", "ema-residual", "convlstm_step"]
        for result in results:
            assert result.max_rel_err <= 1e-5, (
                f"{result.name}: {result.max_rel_err}")

    @pytest.mark.sweep
    def test_probes_pass_at_every_seed(self):
        # the bound above, over seeds 0-199: the fixed-alpha EMA probe
        # reads 1.1e-6 at worst (seed 11), the trainable one 1.0e-7 (seed
        # 197), the residual one 5.1e-8 (seed 16) and the ConvLSTM probe
        # 1.2e-8 (seed 49)
        for seed in range(200):
            for result in check_recurrence(seed=seed):
                assert result.max_rel_err <= 1e-5, (
                    seed, result.name, result.max_rel_err)

    @staticmethod
    def assert_probes_fail(names):
        for seed in range(5):
            errors = {r.name: r.max_rel_err for r in check_recurrence(seed)}
            for name in names:
                assert errors[name] > 1e-5, (seed, name, errors[name])

    @staticmethod
    def plant(monkeypatch, fault):
        """Pass the edges of every scan node the recurrences record through
        `fault`: an EMA node's are (frames, carried-in accumulator if any,
        p if trainable), a ConvLSTM node's (frames, C_0, H_0, kernel,
        bias, three peepholes)."""
        def planted(data, *edges, prepare=None):
            if prepare is not None:
                edges = fault(list(edges))
            return _node(data, *edges, prepare=prepare)
        monkeypatch.setattr(salrec.recurrence, "_node", planted)

    def test_planted_accumulator_edge_fails(self, monkeypatch):
        """No gradient into a carried-in accumulator: only a call that
        continues a state sees it, so a fresh stack alone passes."""
        def fault(edges):  # the probes' accumulator is (1, 1, 2, 2)
            if len(edges) > 1 and edges[1][0].shape == (1, 1, 2, 2):
                acc = edges[1][0]
                edges[1] = (acc, lambda d: np.zeros_like(acc.data))
            return edges

        self.plant(monkeypatch, fault)
        self.assert_probes_fail(["ema_step", "trainable alpha",
                                 "ema-residual"])

    def test_planted_hidden_edge_fails(self, monkeypatch):
        """No gradient into a carried-in H_0."""
        def fault(edges):
            if len(edges) == 8:
                h0 = edges[2][0]
                edges[2] = (h0, lambda d: np.zeros_like(h0.data))
            return edges

        self.plant(monkeypatch, fault)
        self.assert_probes_fail(["convlstm_step"])

    def test_planted_carry_swap_fails(self, monkeypatch):
        """The gradient into a carried-in accumulator scaled by alpha in
        place of 1 - alpha, which a probe at p = 0, where they are equal,
        misses."""
        def fault(edges):
            if len(edges) == 3:
                (prev, vjp), a = edges[1], _sigmoid(edges[2][0].data)
                edges[1] = (prev, lambda d: vjp(d) * a / (1 - a))
            return edges

        self.plant(monkeypatch, fault)
        self.assert_probes_fail(["trainable alpha"])

    def test_planted_residual_first_frame_fails(self, monkeypatch):
        """Under residual, the first frame of a fresh stack given its
        output's gradient once, where it reaches the output twice: through
        the skip and as e_0 = s_0. A residual node from a fresh state has
        the frames' edge alone and one row more than the frames."""
        def planted(data, *edges, prepare=None):
            if prepare is not None and len(edges) == 1 and (
                    len(data) > len(edges[0][0].data)):
                def reverse(g, prepare=prepare):
                    ds, *rest = prepare(g)
                    ds[0] -= g[0]
                    return ds, *rest
                prepare = reverse
            return _node(data, *edges, prepare=prepare)

        monkeypatch.setattr(salrec.recurrence, "_node", planted)
        self.assert_probes_fail(["ema-residual"])

    def test_planted_cell_error_fails(self, monkeypatch):
        """A cell state whose gradient from downstream is 1e-5 too large,
        planted in the scan's reverse loop, reads above the bound in the
        ConvLSTM probe: the error compounds over the steps the gradient
        flows back, to 2.2e-5 at least over seeds 0-39."""
        cell_vjp = salrec.recurrence._cell_vjp

        def planted(dc, *args):
            return cell_vjp(dc * (1 + 1e-5), *args)

        monkeypatch.setattr(salrec.recurrence, "_cell_vjp", planted)
        for seed in range(5):
            probes = [r for r in check_recurrence(seed=seed)
                      if r.name.startswith("convlstm_step")]
            assert len(probes) == 1
            for result in probes:
                assert result.max_rel_err > 1e-5, (
                    seed, result.name, result.max_rel_err)


def chain_cell(pre, cell, peepholes):
    """Oracle: the gate arithmetic of one ConvLSTM step as a chain of
    single ops, 21 tape nodes per step with the concat and the conv."""
    *gates, pre_c = split(pre, 4, axis=1)
    u_t, f_t, o_t = (sigmoid(add(g, broadcast_mul(p, cell)))
                     for g, p in zip(gates, peepholes))
    c_t = add(mul(f_t, cell), mul(u_t, tanh(pre_c)))
    return c_t, mul(o_t, tanh(c_t))


def chain_step(s, state, w):
    """Oracle: `convlstm_step` as the chain it replaces, a concat, a conv2d
    and `chain_cell` per frame of the stack s."""
    outs = []
    for s_t in split(s, s.shape[0], axis=0):
        pre = conv2d(concat(s_t, state.hidden, axis=1), w.kernel, w.bias)
        c_t, h_t = chain_cell(pre, state.cell, w.peepholes)
        state = ConvLstmState(cell=c_t, hidden=h_t)
        outs.append(c_t)
    return concat(*outs, axis=0), state


def run_calls(step_fn, w, data, state0, upstream, sizes, loss_from=0):
    """`step_fn` over the frames `data` in consecutive calls of `sizes`
    frames, in one graph from the initial state `state0` = (C_0, H_0).
    Backpropagates the C_t stack and H of each call from `loss_from` on,
    projected onto the fixed `upstream` weights (on C_t, on H). Returns
    the calls' frame stacks, C_0 and H_0, whose grads backward filled,
    the C_t stack and the final state."""
    c0, h0 = (Tensor(x, requires_grad=True) for x in state0)
    state, up_c, up_h = ConvLstmState(cell=c0, hidden=h0), *upstream
    stacks, outs, total, lo = [], [], None, 0
    for k, size in enumerate(sizes):
        s = Tensor(data[lo:lo + size], requires_grad=True)
        out, state = step_fn(s, state, w)
        if k >= loss_from:
            term = add(tsum(mul(out, Tensor(up_c[lo:lo + size]))),
                       tsum(mul(state.hidden, Tensor(up_h))))
            total = term if total is None else add(total, term)
        stacks.append(s)
        outs.append(out.data)
        lo += size
    backward(total)
    return stacks, (c0, h0), np.concatenate(outs), state


class TestLstmCell:
    """`convlstm_step`'s scan against the chain it replaces (`chain_step`:
    a concat, a conv2d and the single-op cell `chain_cell` per frame).
    Values are bit-equal. Gradients sum the same terms in another order:
    the chain adds each step's kernel, bias, peephole and forget terms
    into a gradient buffer on its own, the scan adds their sums. So they
    agree to GRAD_RTOL of the largest gradient of each tensor."""

    GRAD_RTOL = 1e-13
    # the default bottleneck, 32 channels at 4x4; a 1x1 one; a non-square one
    BOTTLENECKS = {"4x4": (32, 32), "1x1": (8, 8), "2x4": (16, 32)}
    WEIGHTS = ("kernel", "bias", "u.peephole", "f.peephole", "o.peephole")

    def assert_grads_close(self, got, want, name):
        assert want is not None and got is not None, name
        bound = self.GRAD_RTOL * np.abs(want).max()
        assert np.abs(got - want).max() <= bound, name

    def problem(self, input_size, frames, seed):
        """The ConvLSTM weights of a default-width model at `input_size`,
        with a random bias; frames in [0, 2), a random initial state and
        fixed upstream weights at its bottleneck."""
        w = build(ModelConfig(input_size=input_size, recurrence="convlstm",
                              seed=seed)).convlstm
        rng = np.random.default_rng(seed + 1)
        w.bias.data[...] = rng.uniform(-1, 1, w.bias.shape)
        shape = (1,) + w.peepholes[0].shape
        data = rng.uniform(0, 2, size=(frames,) + shape[1:])
        state0 = (rng.normal(size=shape), rng.uniform(-1, 1, size=shape))
        upstream = (rng.normal(size=data.shape), rng.normal(size=shape))
        return w, data, state0, upstream

    def assert_runs_match(self, run, run_ref, calls):
        """Values of two `run_calls` results bit-equal, gradients close."""
        (stacks, init, cs, state), grads = run
        (stacks_ref, init_ref, cs_ref, state_ref), grads_ref = run_ref
        assert np.array_equal(cs, cs_ref)
        assert np.array_equal(state.cell.data, state_ref.cell.data)
        assert np.array_equal(state.hidden.data, state_ref.hidden.data)
        for k in calls:
            self.assert_grads_close(stacks[k].grad, stacks_ref[k].grad,
                                    ("frames", k))
        for part, got, want in zip(("C_0", "H_0"), init, init_ref):
            self.assert_grads_close(got.grad, want.grad, part)
        for name, got, want in zip(self.WEIGHTS, grads, grads_ref):
            self.assert_grads_close(got, want, name)

    @staticmethod
    def run(step_fn, w, *args, **kwargs):
        """`run_calls`, and the weights' gradients, which it then zeroes."""
        result = run_calls(step_fn, w, *args, **kwargs)
        weights = (w.kernel, w.bias, *w.peepholes)
        grads = [p.grad for p in weights]
        for p in weights:
            p.zero_grad()
        return result, grads

    @pytest.mark.parametrize("bottleneck", BOTTLENECKS)
    def test_scan_matches_frame_calls_and_chain(self, bottleneck):
        """One call over a 6-frame stack gives the C_t stack, C_T and H_T
        of six one-frame calls and of the chain, and gradients at the
        frames, C_0, H_0 and every weight within the bound of the chain's."""
        problem = self.problem(self.BOTTLENECKS[bottleneck], 6, 30)
        scan = self.run(convlstm_step, *problem, sizes=[6])
        chain = self.run(chain_step, *problem, sizes=[6])
        self.assert_runs_match(scan, chain, calls=[0])
        (_, _, cs, state), _ = self.run(convlstm_step, *problem, sizes=[1] * 6)
        (_, _, cs_ref, state_ref), _ = scan
        assert np.array_equal(cs, cs_ref)
        assert np.array_equal(state.cell.data, state_ref.cell.data)
        assert np.array_equal(state.hidden.data, state_ref.hidden.data)

    @pytest.mark.parametrize("bottleneck", BOTTLENECKS)
    def test_second_call_reaches_first_input(self, bottleneck):
        """Two calls chained in one graph, with no detach between them: a
        loss on the second call's outputs alone backpropagates into the
        first call's frames and the initial state, as through the chain."""
        problem = self.problem(self.BOTTLENECKS[bottleneck], 7, 31)
        scan = self.run(convlstm_step, *problem, sizes=[3, 4], loss_from=1)
        chain = self.run(chain_step, *problem, sizes=[3, 4], loss_from=1)
        self.assert_runs_match(scan, chain, calls=[0, 1])
        ((first, _), *_), _ = scan
        assert np.abs(first.grad).max() > 0

    @pytest.mark.parametrize("n", [1, 3])
    def test_unroll_matches_chain(self, n):
        """Six frames in calls of n frames, every call's C_t and H in the
        loss, on small weights: 3 input and 2 state channels at 3x3."""
        _, w = make_weights(seed=19, in_ch=3, ch=2)
        w.bias.data[...] = np.random.default_rng(22).uniform(-1, 1, 8)
        rng = np.random.default_rng(20 + n)
        data = rng.uniform(-2, 2, size=(6, 3, 3, 3))
        state0 = (rng.normal(size=(1, 2, 3, 3)), np.zeros((1, 2, 3, 3)))
        upstream = (rng.normal(size=(6, 2, 3, 3)), rng.normal(size=(1, 2, 3, 3)))
        sizes = [n] * (6 // n)
        runs = [self.run(fn, w, data, state0, upstream, sizes)
                for fn in (convlstm_step, chain_step)]
        self.assert_runs_match(*runs, calls=range(len(sizes)))

    def test_default_clip_matches_chain(self, monkeypatch):
        """One default-shape ConvLSTM clip, `forward_frame` and backward,
        with the recurrence as the scan and as the chain."""
        rng = np.random.default_rng(23)
        frames = Tensor(rng.uniform(size=(4, 1, 32, 32)))
        gts = Tensor(rng.uniform(size=(4, 1, 32, 32)))
        runs = []
        for step_fn in (convlstm_step, chain_step):
            monkeypatch.setattr(salrec.model, "convlstm_step", step_fn)
            model = build(ModelConfig(recurrence="convlstm", seed=3))
            maps = model.forward_frame(frames, model.fresh_states())
            backward(bce_loss(maps, gts))
            runs.append((maps.data, model.registry))
        (maps, reg), (maps_ref, reg_ref) = runs
        assert np.array_equal(maps, maps_ref)
        for name in reg.names():
            self.assert_grads_close(reg[name].grad, reg_ref[name].grad, name)

    def test_records_one_node(self):
        """The stack is one node with an edge per input, and each output
        a slice of it: C_1..C_T, then C_T and H_T in the state."""
        _, w = make_weights(seed=24)
        s = Tensor(np.random.default_rng(25).normal(size=(4, 2, 3, 3)),
                   requires_grad=True)
        cell, hidden = (Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
                        for _ in range(2))
        out, state = convlstm_step(s, ConvLstmState(cell, hidden), w)
        scan, = out._parents
        assert scan._parents == (s, cell, hidden, w.kernel, w.bias,
                                 *w.peepholes)
        assert state.cell._parents == state.hidden._parents == (scan,)
        assert np.array_equal(state.cell.data, out.data[3:])
        assert ComputationTape(tsum(out)).ops[:2] == [scan, out]

    @pytest.mark.parametrize("s, cell, in_ch, ch, spatial", [
        ((2, 3, 3), (1, 2, 3, 3), 3, 2, (3, 3)),  # not a stack
        ((0, 3, 3, 3), (1, 2, 3, 3), 3, 2, (3, 3)),  # no frame
        ((2, 3, 3, 3), (2, 2, 3, 3), 3, 2, (3, 3)),  # state batch 2
        ((2, 4, 3, 3), (1, 2, 3, 3), 3, 2, (3, 3)),  # input channels
        ((2, 3, 3, 3), (1, 3, 3, 3), 3, 2, (3, 3)),  # state channels
        ((2, 3, 3, 4), (1, 2, 3, 3), 3, 2, (3, 3)),  # input spatial dims
        ((2, 3, 3, 4), (1, 2, 3, 4), 3, 2, (3, 3))],  # peephole spatial dims
        ids=["3d-input", "empty-stack", "batch", "input-channels", "state-channels",
             "input-spatial", "peephole-spatial"])
    def test_shape_mismatch_rejected(self, s, cell, in_ch, ch, spatial):
        _, w = make_weights(in_ch=in_ch, ch=ch, spatial=spatial)
        state = ConvLstmState(Tensor(np.zeros(cell)), Tensor(np.zeros(cell)))
        with pytest.raises(ValueError, match="convlstm_step"):
            convlstm_step(Tensor(np.zeros(s)), state, w)
