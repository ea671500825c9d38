import numpy as np
import pytest
from hypothesis import given, strategies as st

import salrec.recurrence
from salrec.gradcheck import check_recurrence
from salrec.layers import ParameterRegistry
from salrec.model import ModelConfig, build
from salrec.recurrence import (ConvLstmState, ConvLstmWeights, EmaConfig,
                               EmaState, convlstm_step, effective_alpha,
                               ema_step)
from salrec.tensor import (ComputationTape, Tensor, add, backward,
                           broadcast_mul, concat, conv2d, lstm_cell, mul,
                           sigmoid, split, tanh, tsum)
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


class TestEffectiveAlpha:
    def test_trainable_starts_at_half(self):
        reg = ParameterRegistry()
        cfg = EmaConfig(alpha=0.1, trainable=True)
        cfg.init_trainable(reg, "ema.p")
        assert effective_alpha(cfg).item() == 0.5

    def test_fixed_passthrough(self):
        assert effective_alpha(EmaConfig(alpha=0.1)) == 0.1

    def test_invalid_fixed_alpha_rejected(self):
        with pytest.raises(ValueError):
            EmaConfig(alpha=0.0)
        with pytest.raises(ValueError):
            EmaConfig(alpha=1.5)


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
                         Tensor(w.bias.data[rows]), padding=1),
                  conv2d(state.hidden, Tensor(w.kernel.data[rows, cin:]),
                         padding=1))
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
        for result in check_recurrence(seed=seed):
            assert result.max_rel_err <= 1e-5, (
                f"{result.name}: {result.max_rel_err}")

    @pytest.mark.sweep
    def test_probes_pass_at_every_seed(self):
        # `salrec gradcheck`'s bound: over seeds 0-199 the ConvLSTM probe
        # reads up to 3.2e-5 (seed 183), on a peephole gradient element
        # near zero, so the tighter bound above holds only at some seeds
        for seed in range(200):
            for result in check_recurrence(seed=seed):
                assert result.passed, (seed, result.name, result.max_rel_err)


def chain_cell(pre, cell, peepholes):
    """Oracle: the gate arithmetic of `lstm_cell` as a chain of single ops,
    21 tape nodes per step with the concat and the conv."""
    *gates, pre_c = split(pre, 4, axis=1)
    u_t, f_t, o_t = (sigmoid(add(g, broadcast_mul(p, cell)))
                     for g, p in zip(gates, peepholes))
    c_t = add(mul(f_t, cell), mul(u_t, tanh(pre_c)))
    return c_t, mul(o_t, tanh(c_t))


def unroll(cell_fn, w, frames, upstream):
    """A 5-frame cell unroll under `cell_fn`; returns the loss (C_t and
    H_t projected onto fixed upstream weights) and every frame's pre, C_t
    and H_t, whose grads backward fills."""
    n, _, h, wd = frames[0].shape
    state = ConvLstmState.zeros(n, w.peepholes[0].shape[0], h, wd)
    steps, total = [], None
    for s_t, (up_c, up_h) in zip(frames, upstream):
        pre = conv2d(concat(s_t, state.hidden, axis=1), w.kernel, w.bias,
                     padding=1)
        c_t, h_t = cell_fn(pre, state.cell, w.peepholes)
        state = ConvLstmState(cell=c_t, hidden=h_t)
        steps.append((pre, c_t, h_t))
        s = add(tsum(mul(c_t, up_c)), tsum(mul(h_t, up_h)))
        total = s if total is None else add(total, s)
    return total, steps


class TestLstmCell:
    """`lstm_cell` against the single-op chain it replaces (`chain_cell`).
    Values are bit-equal. Gradients sum the same terms in another order:
    the chain adds each peephole and forget term into a gradient buffer on
    its own, the op adds their sum. So they agree to GRAD_RTOL of the
    largest gradient of each tensor."""

    GRAD_RTOL = 1e-13

    def assert_grads_close(self, got, want, name):
        bound = self.GRAD_RTOL * np.abs(want).max()
        assert np.abs(got - want).max() <= bound, name

    @pytest.mark.parametrize("n", [1, 3])
    def test_unroll_matches_chain(self, n):
        rng = np.random.default_rng(20 + n)
        data = [rng.uniform(-2, 2, size=(n, 3, 3, 3)) for _ in range(5)]
        upstream = [tuple(Tensor(rng.normal(size=(n, 2, 3, 3)))
                          for _ in range(2)) for _ in range(5)]
        runs = []
        for cell_fn in (lstm_cell, chain_cell):
            reg, w = make_weights(seed=19, in_ch=3, ch=2)
            w.bias.data[...] = np.random.default_rng(22).uniform(-1, 1, 8)
            frames = [Tensor(x, requires_grad=True) for x in data]
            loss, steps = unroll(cell_fn, w, frames, upstream)
            backward(loss)
            runs.append((reg, frames, steps))
        (reg, frames, steps), (reg_ref, frames_ref, steps_ref) = runs
        for t, (step, ref) in enumerate(zip(steps, steps_ref)):
            for part, got, want in zip(("pre", "C_t", "H_t"), step, ref):
                assert np.array_equal(got.data, want.data), (t, part)
            for part, got, want in zip(("pre", "C_t"), step, ref):
                self.assert_grads_close(got.grad, want.grad, (t, part))
        for t, (got, want) in enumerate(zip(frames, frames_ref)):
            self.assert_grads_close(got.grad, want.grad, ("s_t", t))
        for name in reg.names():
            self.assert_grads_close(reg[name].grad, reg_ref[name].grad, name)

    def test_default_clip_matches_chain(self, monkeypatch):
        """One default-shape ConvLSTM clip, `forward_frame` and backward,
        with the cell's gate arithmetic as the op and as the chain."""
        rng = np.random.default_rng(23)
        frames = Tensor(rng.uniform(size=(4, 1, 32, 32)))
        gts = Tensor(rng.uniform(size=(4, 1, 32, 32)))
        runs = []
        for cell_fn in (lstm_cell, chain_cell):
            monkeypatch.setattr(salrec.recurrence, "lstm_cell", cell_fn)
            model = build(ModelConfig(recurrence="convlstm", seed=3))
            maps = model.forward_frame(frames, model.fresh_states())
            backward(bce_loss(maps, gts))
            runs.append((maps.data, model.registry))
        (maps, reg), (maps_ref, reg_ref) = runs
        assert np.array_equal(maps, maps_ref)
        for name in reg.names():
            self.assert_grads_close(reg[name].grad, reg_ref[name].grad, name)

    def test_records_two_nodes(self):
        _, w = make_weights(seed=24)
        pre = Tensor(np.random.default_rng(25).normal(size=(1, 8, 3, 3)),
                     requires_grad=True)
        cell = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
        p_u, p_f, p_o = w.peepholes
        c_t, h_t = lstm_cell(pre, cell, w.peepholes)
        assert c_t._parents == (pre, cell, p_u, p_f)
        assert h_t._parents == (pre, cell, p_o, c_t)
        assert ComputationTape(h_t).ops == [c_t, h_t]

    @pytest.mark.parametrize("pre, cell, peep", [
        ((1, 7, 3, 3), (1, 2, 3, 3), (2, 3, 3)),
        ((1, 8, 3, 3), (2, 2, 3, 3), (2, 3, 3)),
        ((1, 8, 3, 3), (1, 2, 3, 2), (2, 3, 3)),
        ((1, 8, 3, 3), (1, 2, 3, 3), (1, 3, 3)),
        ((8, 3, 3), (2, 3, 3), (2, 3, 3))])
    def test_shape_mismatch_rejected(self, pre, cell, peep):
        with pytest.raises(ValueError, match="lstm_cell"):
            lstm_cell(Tensor(np.zeros(pre)), Tensor(np.zeros(cell)),
                      tuple(Tensor(np.zeros(peep)) for _ in range(3)))
