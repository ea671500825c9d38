import numpy as np
import pytest
from hypothesis import given, strategies as st

from salrec.gradcheck import check_recurrence
from salrec.layers import ParameterRegistry
from salrec.recurrence import (ConvLstmState, ConvLstmWeights, EmaConfig,
                               EmaState, convlstm_step, effective_alpha,
                               ema_step)
from salrec.tensor import (Tensor, add, broadcast_mul, conv2d, mul, sigmoid,
                           tanh)


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
