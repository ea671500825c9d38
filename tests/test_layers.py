import numpy as np
import pytest

from salrec.layers import (ConvLayer, ParameterRegistry, dropout_forward,
                           xavier_init)
from salrec.tensor import Tensor, backward, tsum


class TestXavierInit:
    def test_bound_is_one_for_fan_3_3(self):
        rng = np.random.default_rng(0)
        t = xavier_init((100,), 3, 3, rng)
        assert np.all(t.data >= -1.0) and np.all(t.data <= 1.0)

    def test_hard_bound_every_element(self):
        rng = np.random.default_rng(1)
        bound = np.sqrt(6.0 / (18 + 36))
        t = xavier_init((4, 2, 3, 3), 18, 36, rng)
        assert np.all(np.abs(t.data) <= bound)

    def test_same_seed_identical(self):
        a = xavier_init((5, 5), 4, 4, np.random.default_rng(42))
        b = xavier_init((5, 5), 4, 4, np.random.default_rng(42))
        assert np.array_equal(a.data, b.data)

    def test_seeded_statistics(self):
        rng = np.random.default_rng(2)
        t = xavier_init((10_000,), 3, 3, rng)
        assert abs(t.data.mean()) < 0.02
        assert t.data.min() >= -1.0 and t.data.max() <= 1.0

    def test_bad_fans_rejected(self):
        with pytest.raises(ValueError):
            xavier_init((2,), 0, 3, np.random.default_rng(0))


class TestDropout:
    def test_eval_is_bit_identical(self):
        x = Tensor(np.random.default_rng(3).normal(size=(50,)))
        out = dropout_forward(x, 0.5, training=False)
        assert out is x

    def test_p_zero_identity(self):
        x = Tensor(np.ones(10))
        out = dropout_forward(x, 0.0, training=True,
                              rng=np.random.default_rng(0))
        assert np.array_equal(out.data, x.data)

    def test_seeded_statistics_and_survivor_scale(self):
        rng = np.random.default_rng(4)
        x = Tensor(np.full(100_000, 2.0))
        out = dropout_forward(x, 0.5, training=True, rng=rng).data
        assert abs(out.mean() - 2.0) / 2.0 < 0.02
        survivors = out[out != 0.0]
        assert np.all(survivors == 4.0)

    def test_p_ge_one_rejected(self):
        with pytest.raises(ValueError):
            dropout_forward(Tensor(np.ones(3)), 1.0, training=True,
                            rng=np.random.default_rng(0))

    def test_gradient_zero_at_dropped_and_scaled_at_kept(self):
        rng = np.random.default_rng(5)
        x = Tensor(np.ones(1000), requires_grad=True)
        out = dropout_forward(x, 0.25, training=True, rng=rng)
        backward(tsum(out))
        dropped = out.data == 0.0
        assert np.all(x.grad[dropped] == 0.0)
        np.testing.assert_allclose(x.grad[~dropped], 1.0 / 0.75)


class TestRegistry:
    def test_duplicate_name_rejected(self):
        reg = ParameterRegistry()
        reg.register("w", Tensor(np.zeros(2)))
        with pytest.raises(ValueError, match="twice"):
            reg.register("w", Tensor(np.zeros(2)))

    def test_conv_layer_registers_kernel_and_bias_once(self):
        reg = ParameterRegistry()
        layer = ConvLayer(reg, "c1", 2, 4, 3, np.random.default_rng(0),
                          padding=1)
        assert reg.names() == ["c1.kernel", "c1.bias"]
        assert sum(p.size for _, p in reg.items()) == 4 * 2 * 3 * 3 + 4
        assert layer.kernel.requires_grad and layer.bias.requires_grad

    @pytest.mark.parametrize("ksize,padding", [(1, 0), (1, 1), (3, 0),
                                                (3, 2), (5, 1)])
    def test_upsampled_conv_needs_3x3_at_padding_1(self, ksize, padding):
        # the folded upsample equals conv over upsample only at this geometry
        with pytest.raises(ValueError, match=f"{ksize}x{ksize} at padding {padding}"):
            ConvLayer(ParameterRegistry(), "c1", 2, 4, ksize,
                      np.random.default_rng(0), padding=padding, upsampled=True)
        ConvLayer(ParameterRegistry(), "c1", 2, 4, ksize,
                  np.random.default_rng(0), padding=padding)

    def test_iteration_order_deterministic(self):
        reg = ParameterRegistry()
        for name in ("b", "a", "c"):
            reg.register(name, Tensor(np.zeros(1)))
        assert reg.names() == ["b", "a", "c"]
