import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import salrec.layers
import salrec.model
import salrec.tensor
import salrec.training
from salrec.data import SynthConfig, generate
from salrec.model import ModelConfig, build
from salrec.tensor import (ComputationTape, Tensor, _node, add, backward,
                           conv2d, maxpool2d, mul, relu, scale, sigmoid, sub,
                           tanh, tsum, upsample_conv3x3, upsample_nearest)
from salrec.gradcheck import OP_CASES, check_op, max_rel_error
from salrec.training import Adam, TrainConfig, train


def t(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=float), requires_grad=grad)


class TestConv2d:
    def test_all_ones_3x3_padded(self):
        x = t(np.ones((1, 1, 3, 3)))
        k = t(np.ones((1, 1, 3, 3)))
        b = t(np.zeros(1))
        out = conv2d(x, k, b).data[0, 0]
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=float)
        np.testing.assert_array_equal(out, expected)

    def test_zero_kernel_gives_bias(self):
        rng = np.random.default_rng(0)
        x = t(rng.normal(size=(2, 3, 6, 6)))
        k = t(np.zeros((4, 3, 3, 3)))
        b = t(np.array([1.0, -2.0, 0.5, 3.0]))
        out = conv2d(x, k, b).data
        for c, v in enumerate(b.data):
            assert np.all(out[:, c] == v)

    def test_1x1_kernel_is_scalar_multiply(self):
        x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
        k = t(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, k).data[0, 0]
        np.testing.assert_array_equal(out, [[2, 4], [6, 8]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("ksize,padding", [(1, 0), (3, 1), (5, 2)])
    def test_output_shape_formula(self, n, padding, ksize):
        # the padding conv2d applies, k // 2, keeps the map's size
        h, w = 9, 6
        x = t(np.zeros((n, 2, h, w)))
        k = t(np.zeros((3, 2, ksize, ksize)))
        out = conv2d(x, k)
        assert out.shape == (n, 3, h + 2 * padding - ksize + 1,
                             w + 2 * padding - ksize + 1) == (n, 3, h, w)

    @pytest.mark.parametrize("shape", [(1, 2, 2, 2), (1, 2, 3, 1)])
    def test_kernel_not_odd_square_names_its_shape(self, shape):
        x = t(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            conv2d(x, t(np.zeros(shape)))

    def test_channel_mismatch_names_both_shapes(self):
        x = t(np.zeros((1, 3, 4, 4)))
        k = t(np.zeros((2, 5, 3, 3)))
        with pytest.raises(ValueError, match=r"1, 3, 4, 4.*2, 5, 3, 3"):
            conv2d(x, k)

    def test_direct_dense_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 2, 5, 5))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = conv2d(t(x), t(k), t(b)).data
        # independent scalar-loop convolution
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in range(1):
            for co in range(3):
                for i in range(out.shape[2]):
                    for j in range(out.shape[3]):
                        win = xp[n, :, i:i + 3, j:j + 3]
                        ref = (win * k[co]).sum() + b[co]
                        assert out[n, co, i, j] == pytest.approx(ref, abs=1e-12)


def reference_conv2d(input, kernel, bias=None):
    """conv2d by np.pad (by k // 2), sliding_window_view, an einsum kernel
    gradient and an NCHW scatter: the oracle for conv2d's outputs and
    gradients."""
    if input.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError(
            f"conv2d expects 4d input/kernel, got {input.shape} and {kernel.shape}")
    n, cin, h, w = input.shape
    cout, kcin, kh, kw = kernel.shape
    if cin != kcin:
        raise ValueError(
            f"conv2d channel mismatch: input {input.shape} has Cin={cin}, "
            f"kernel {kernel.shape} expects Cin={kcin}")
    padding = kh // 2
    hp, wp = h + 2 * padding, w + 2 * padding
    if bias is not None and bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} != ({cout},)")

    xp = np.pad(input.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    # (N, Cin, H', W', kH, kW)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    ho, wo = windows.shape[2], windows.shape[3]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n, ho * wo, cin * kh * kw)
    kmat = kernel.data.reshape(cout, cin * kh * kw)
    out = cols @ kmat.T  # (N, H'*W', Cout)
    if bias is not None:
        out = out + bias.data
    out = out.transpose(0, 2, 1).reshape(n, cout, ho, wo)

    def gmat(g):
        return g.reshape(n, cout, ho * wo).transpose(0, 2, 1)  # (N, H'W', Cout)

    def dkernel(g):
        dk = np.einsum("npo,npk->ok", gmat(g), cols)
        return dk.reshape(kernel.shape)

    def dinput(g):
        dcols = (gmat(g) @ kmat).reshape(n, ho, wo, cin, kh, kw)
        dcols = dcols.transpose(0, 3, 4, 5, 1, 2)  # (N, Cin, kH, kW, H', W')
        dxp = np.zeros((n, cin, hp, wp))
        for i in range(kh):
            for j in range(kw):
                dxp[:, :, i:i + ho, j:j + wo] += dcols[:, :, i, j]
        if padding:
            dxp = dxp[:, :, padding:hp - padding, padding:wp - padding]
        return dxp

    edges = [(input, dinput), (kernel, dkernel)]
    if bias is not None:
        edges.append((bias, lambda g: g.sum(axis=(0, 2, 3))))
    return _node(out, *edges)


def _window_matrix(x, k):
    """(N*H*W, Cin*k*k) matrix of input windows, as the reference builds it."""
    p = k // 2
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win.transpose(0, 2, 3, 1, 4, 5)
    return win.reshape(-1, x.shape[1] * k * k)


def one_epoch_params(recurrence):
    """Parameters after one training epoch of a small model."""
    data = generate(SynthConfig(n_videos=2, frames_per_video=6, height=16,
                                width=16, seed=4))
    model = build(ModelConfig(input_size=(16, 16), stages=2, base_channels=4,
                              recurrence=recurrence, seed=5))
    train(model, data, TrainConfig(epochs=1, clip_length=3, seed=2))
    return {name: p.data for name, p in model.registry.items()}


@st.composite
def conv_cases(draw):
    return dict(n=draw(st.sampled_from([1, 2])),
                cin=draw(st.integers(1, 4)), cout=draw(st.integers(1, 4)),
                k=draw(st.sampled_from([1, 3, 5])),
                h=draw(st.integers(1, 7)), w=draw(st.integers(1, 7)),
                seed=draw(st.integers(0, 2**32 - 1)))


# (Cin, Cout, k, H, W) of the default model's eight convolutions: enc1-3,
# the ConvLSTM cell, dec1-3 and the 1x1 head
MODEL_GEOMETRIES = [(1, 8, 3, 32, 32), (8, 16, 3, 16, 16),
                    (16, 32, 3, 8, 8), (64, 128, 3, 4, 4),
                    (32, 16, 3, 4, 4), (16, 8, 3, 8, 8),
                    (8, 8, 3, 16, 16), (8, 1, 1, 32, 32)]


class TestConv2dReference:
    @staticmethod
    def check(case):
        rng = np.random.default_rng(case["seed"])
        n, cin, cout, k = case["n"], case["cin"], case["cout"], case["k"]
        x = rng.normal(size=(n, cin, case["h"], case["w"]))
        kern = rng.normal(size=(cout, cin, k, k))
        b = rng.normal(size=cout)
        results = []
        for op in (conv2d, reference_conv2d):
            xt, kt, bt = t(x, grad=True), t(kern, grad=True), t(b, grad=True)
            y = op(xt, kt, bt)
            g = np.random.default_rng(case["seed"] + 1).normal(size=y.shape)
            backward(tsum(mul(y, t(g))))  # upstream gradient of y is g
            results.append((y.data, xt.grad, kt.grad, bt.grad, g))
        (y, dx, dk, db, g), (y_ref, dx_ref, dk_ref, db_ref, _) = results
        assert np.array_equal(dx, dx_ref)
        assert np.array_equal(db, db_ref)
        eps = np.finfo(np.float64).eps
        cols = np.abs(_window_matrix(x, k))
        # the forward output sums Cin*kH*kW products in another order, then
        # adds the bias
        products = (cols @ np.abs(kern.reshape(cout, -1)).T).reshape(
            n, y.shape[2], y.shape[3], cout).transpose(0, 3, 1, 2)
        bound = cols.shape[1] * eps * products + eps * np.abs(y_ref)
        assert np.all(np.abs(y - y_ref) <= bound)
        # the kernel gradient sums N*H'*W' products in another order
        positions = n * y.shape[2] * y.shape[3]
        g_abs = np.abs(g).transpose(1, 0, 2, 3).reshape(cout, positions)
        bound = positions * eps * (g_abs @ cols).reshape(dk.shape)
        assert np.all(np.abs(dk - dk_ref) <= bound)

    @given(conv_cases())
    def test_matches_reference(self, case):
        self.check(case)

    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize("geometry", MODEL_GEOMETRIES)
    def test_model_geometry_matches_reference(self, geometry, n):
        cin, cout, k, h, w = geometry
        self.check(dict(n=n, cin=cin, cout=cout, k=k, h=h, w=w, seed=17))

    def test_training_epoch_matches_reference(self, monkeypatch):
        lean = one_epoch_params("convlstm")
        for module in (salrec.tensor, salrec.layers):  # the ConvLSTM scan calls no conv2d
            monkeypatch.setattr(module, "conv2d", reference_conv2d)
        ref = one_epoch_params("convlstm")
        for name, value in ref.items():
            assert np.abs(lean[name] - value).max() <= 1e-12 * np.abs(value).max(), name


class TestMaxpool:
    def test_2x2(self):
        out = maxpool2d(t([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.tolist() == [[[[4.0]]]]

    def test_constant(self):
        out = maxpool2d(t(np.full((1, 2, 4, 4), 3.5)))
        assert np.all(out.data == 3.5)

    def test_window_scan_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.permutation(16).reshape(1, 1, 4, 4).astype(float)
        out = maxpool2d(t(x)).data[0, 0]
        for i in range(2):
            for j in range(2):
                assert out[i, j] == x[0, 0, 2 * i:2 * i + 2, 2 * j:2 * j + 2].max()

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2d(t(np.zeros((1, 1, 3, 4))))

    def test_tie_gradient_goes_to_first_in_row_major(self):
        x = t(np.full((1, 1, 2, 2), 2.0), grad=True)
        backward(tsum(maxpool2d(x)))
        np.testing.assert_array_equal(x.grad[0, 0], [[1, 0], [0, 0]])


class TestUpsample:
    def test_replication(self):
        out = upsample_nearest(t([[[[1.0, 2.0], [3.0, 4.0]]]])).data[0, 0]
        expected = [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        np.testing.assert_array_equal(out, expected)

    @given(hnp.arrays(float, (1, 2, 3, 3), elements=st.floats(-5, 5)))
    def test_maxpool_inverts_upsample(self, arr):
        x = t(arr)
        np.testing.assert_array_equal(maxpool2d(upsample_nearest(x)).data, arr)

    def test_gradient_is_four(self):
        x = t(np.zeros((1, 1, 2, 2)), grad=True)
        backward(tsum(upsample_nearest(x)))
        assert np.all(x.grad == 4.0)


def reference_maxpool2d(input):
    """maxpool2d by a transposed (..., 4) window copy, argmax and
    take_along_axis: the oracle for maxpool2d's outputs and gradients."""
    n, c, h, w = input.shape
    win = (input.data.reshape(n, c, h // 2, 2, w // 2, 2)
           .transpose(0, 1, 2, 4, 3, 5)
           .reshape(n, c, h // 2, w // 2, 4))
    idx = win.argmax(axis=-1)  # first max in row-major order
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def dinput(g):
        dwin = np.zeros_like(win)
        np.put_along_axis(dwin, idx[..., None], g[..., None], axis=-1)
        return (dwin.reshape(n, c, h // 2, w // 2, 2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h, w))

    return _node(out, (input, dinput))


def reference_upsample_nearest(input):
    """upsample_nearest whose gradient sums the two length-2 axes of a
    reshape: the oracle for upsample_nearest's gradient."""
    n, c, h, w = input.shape
    return _node(input.data.repeat(2, axis=2).repeat(2, axis=3),
                 (input, lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5))))


# heavy ties: a small integer grid with signed zeros and infinities
TIE_GRID = np.array([-np.inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf])


@st.composite
def pool_cases(draw):
    shape = (draw(st.integers(1, 10)), draw(st.integers(1, 4)),
             2 * draw(st.integers(1, 8)), 2 * draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "equal windows", "normal"]))
    if kind == "grid":
        x = rng.choice(TIE_GRID, size=shape)
    elif kind == "equal windows":
        n, c, h, w = shape
        x = rng.choice(TIE_GRID, size=(n, c, h // 2, w // 2))
        x = x.repeat(2, axis=2).repeat(2, axis=3)
    else:
        x = rng.normal(size=shape)
    return x, rng


class TestPoolReference:
    """maxpool2d and upsample_nearest run on the four strided 2x2 views;
    outputs and input gradients are bit for bit the window formulations."""

    @staticmethod
    def run(op, x, g):
        xt = t(x, grad=True)
        y = op(xt)
        with np.errstate(invalid="ignore"):  # an infinite y makes the sum NaN
            backward(tsum(mul(y, t(g))))  # upstream gradient of y is g
        return y.data, xt.grad

    @given(pool_cases())
    def test_maxpool_matches_reference(self, case):
        x, rng = case
        n, c, h, w = x.shape
        g = rng.normal(size=(n, c, h // 2, w // 2))
        y, dx = self.run(maxpool2d, x, g)
        y_ref, dx_ref = self.run(reference_maxpool2d, x, g)
        assert np.array_equal(y, y_ref)  # a tied zero's sign may differ
        assert np.array_equal(dx.view(np.int64), dx_ref.view(np.int64))

    @given(pool_cases())
    def test_upsample_matches_reference(self, case):
        x, rng = case
        n, c, h, w = x.shape
        g = rng.normal(size=(n, c, 2 * h, 2 * w))
        y, dx = self.run(upsample_nearest, x, g)
        y_ref, dx_ref = self.run(reference_upsample_nearest, x, g)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(dx.view(np.int64), dx_ref.view(np.int64))

    def test_tie_routes_to_first_equal_tap(self):
        # window maxima at taps 1, 2 and 3 in turn, tied with later taps
        x = t([[[[0.0, 5.0, 1.0, 1.0, 0.0, -1.0],
                 [5.0, 5.0, 3.0, 3.0, -2.0, 4.0]]]], grad=True)
        backward(tsum(mul(maxpool2d(x), t([[[[2.0, -1.0, 3.0]]]]))))
        np.testing.assert_array_equal(
            x.grad[0, 0], [[0.0, 2.0, 0.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, -1.0, 0.0, 0.0, 3.0]])

    def test_training_epoch_matches_reference(self, monkeypatch):
        strided = one_epoch_params("ema")
        for module in (salrec.tensor, salrec.model):
            monkeypatch.setattr(module, "maxpool2d", reference_maxpool2d)
            monkeypatch.setattr(module, "upsample_nearest",
                                reference_upsample_nearest)
        ref = one_epoch_params("ema")
        assert {k: v.tobytes() for k, v in ref.items()} == \
            {k: v.tobytes() for k, v in strided.items()}


@st.composite
def upsample_conv_cases(draw):
    return dict(n=draw(st.integers(1, 10)), cin=draw(st.integers(1, 4)),
                cout=draw(st.integers(1, 4)), h=draw(st.integers(1, 5)),
                w=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**32 - 1)))


class TestUpsampleConv:
    """upsample_conv3x3 against conv2d over an explicit upsample_nearest.
    Both sum the same products in another order, the fold with up to three
    more additions for the taps a phase kernel sums in advance. So each
    value and gradient is within 2 * terms * eps of the sum of its terms'
    magnitudes, where `terms` is the larger summand count of the two; the
    bias gradient is the same full-size sum, bit for bit. Over 3,000
    random cases up to 16 input channels, no error passed 7.3% of its
    bound, nor 2.1e-15 of its tensor's largest element."""

    @staticmethod
    def run(op, x, kern, b, g):
        xt, kt, bt = t(x, grad=True), t(kern, grad=True), t(b, grad=True)
        y = op(xt, kt, bt)
        backward(tsum(mul(y, t(g))))  # upstream gradient of y is g
        return y.data, xt.grad, kt.grad, bt.grad

    @staticmethod
    def oracle(x, k, b):
        return conv2d(upsample_nearest(x), k, b)

    def check(self, case):
        rng = np.random.default_rng(case["seed"])
        n, cin, cout, h, w = (case[key] for key in ("n", "cin", "cout", "h", "w"))
        x = rng.normal(size=(n, cin, h, w))
        kern = rng.normal(size=(cout, cin, 3, 3))
        b = rng.normal(size=cout)
        g = rng.normal(size=(n, cout, 2 * h, 2 * w))
        y, dx, dk, db = self.run(upsample_conv3x3, x, kern, b, g)
        y_ref, dx_ref, dk_ref, db_ref = self.run(self.oracle, x, kern, b, g)
        assert np.array_equal(db, db_ref)
        # each element's sum of term magnitudes: the oracle on |x|, |k|, |g|
        products, dx_abs, dk_abs, _ = self.run(
            self.oracle, np.abs(x), np.abs(kern), np.zeros(cout), np.abs(g))
        eps = np.finfo(np.float64).eps
        for got, ref, terms, magnitude in (
                (y, y_ref, 9 * cin + 3, products + np.abs(y_ref)),
                (dx, dx_ref, 36 * cout, dx_abs),
                (dk, dk_ref, 4 * n * h * w + 12, dk_abs)):
            assert np.all(np.abs(got - ref) <= 2 * terms * eps * magnitude)

    @given(upsample_conv_cases())
    def test_matches_conv_over_upsample(self, case):
        self.check(case)

    # the default model's dec2 and dec3 inputs, and the thinnest maps
    @pytest.mark.parametrize("n,cin,cout,h,w", [
        (10, 16, 8, 4, 4), (10, 8, 8, 8, 8), (1, 16, 8, 4, 4),
        (1, 2, 3, 1, 1), (10, 3, 2, 1, 3), (4, 1, 2, 3, 1)])
    def test_shapes(self, n, cin, cout, h, w):
        self.check(dict(n=n, cin=cin, cout=cout, h=h, w=w, seed=17))

    def test_planted_phase_swap_fails(self, monkeypatch):
        """Phases (0, 0) and (0, 1) trade fold columns, forward and back."""
        for name in ("_PHASE_FOLD", "_PHASE_UNFOLD"):
            monkeypatch.setattr(salrec.tensor, name,
                                getattr(salrec.tensor, name)[[1, 0, 2, 3]])
        with pytest.raises(AssertionError):
            self.check(dict(n=2, cin=2, cout=3, h=3, w=4, seed=5))

    @pytest.mark.parametrize("kshape,bshape", [
        ((2, 3, 1, 1), (2,)), ((2, 4, 3, 3), (2,)), ((2, 3, 3), (2,)),
        ((2, 3, 3, 3), (3,)), ((2, 3, 3, 3), (2, 1))])
    def test_bad_shapes_name_them(self, kshape, bshape):
        x, k, b = t(np.zeros((1, 3, 4, 4))), t(np.zeros(kshape)), t(np.zeros(bshape))
        with pytest.raises(ValueError, match=re.escape(str(kshape)) + ".*"
                           + re.escape(str(bshape))):
            upsample_conv3x3(x, k, b)


def relu_first(monkeypatch):
    """Patch the model's encoder stages, relu(maxpool2d(conv(x))), back to
    maxpool2d(relu(conv(x))): the patched pool hands the conv output on,
    and the relu that takes it runs both ops, relu first. Returns the list
    of conv outputs that went that way."""
    held, ran = [], []

    def pool(x):
        held.append(x)
        return x

    def act(x):
        if held and held[-1] is x:
            ran.append(held.pop())
            return maxpool2d(relu(x))
        return relu(x)

    monkeypatch.setattr(salrec.model, "maxpool2d", pool)
    monkeypatch.setattr(salrec.model, "relu", act)
    return ran


class TestPoolThenRelu:
    """The model's encoder stages pool, then apply relu. Relu is monotone,
    so for inputs that are not NaN, values, input gradients and the signs
    of zeros are those of relu first: the one zero either order gives is
    +0.0, and the input's grad buffer stores a -0.0 gradient as +0.0."""

    run = staticmethod(TestPoolReference.run)

    @given(pool_cases())
    def test_commutes_bit_for_bit(self, case):
        x, rng = case  # ties, signed zeros, infinities, all-negative windows
        n, c, h, w = x.shape
        g = rng.normal(size=(n, c, h // 2, w // 2))
        y, dx = self.run(lambda a: relu(maxpool2d(a)), x, g)
        y_ref, dx_ref = self.run(lambda a: maxpool2d(relu(a)), x, g)
        for a, b in ((y, y_ref), (dx, dx_ref)):
            assert np.array_equal(a, b)
            assert np.array_equal(np.signbit(a), np.signbit(b))

    def test_all_negative_and_signed_zero_windows(self):
        x = np.array([[[[-1.0, -2.0, -0.0, 0.0, -0.0, -3.0],
                        [-3.0, -0.5, 0.0, -0.0, -0.0, -0.0]]]])
        g = np.array([[[[-2.0, -1.0, 3.0]]]])
        y, dx = self.run(lambda a: relu(maxpool2d(a)), x, g)
        y_ref, dx_ref = self.run(lambda a: maxpool2d(relu(a)), x, g)
        for a, b in ((y, y_ref), (dx, dx_ref)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert not np.signbit(y).any() and not np.signbit(dx).any()
        assert not y.any() and not dx.any()

    def test_nan_window_differs(self):
        """A window holding a NaN pools to NaN, which relu maps to 0; relu
        first maps the NaN to 0 and the window keeps its other taps' max."""
        x = t([[[[np.nan, 2.0], [1.0, -1.0]]]])
        assert relu(maxpool2d(x)).item() == 0.0
        assert maxpool2d(relu(x)).item() == 2.0

    @pytest.mark.parametrize("recurrence", ["ema", "convlstm"])
    def test_model_matches_relu_first(self, monkeypatch, recurrence):
        """A training forward over a frame stack (maps and parameter
        gradients) and one training epoch give the bytes of the model that
        runs relu first."""
        model = build(ModelConfig(input_size=(16, 16), stages=2,
                                  base_channels=4, recurrence=recurrence,
                                  seed=5))
        rng = np.random.default_rng(1)
        frames = Tensor(rng.uniform(0, 1, size=(4, 1, 16, 16)))
        gts = Tensor(rng.uniform(0, 1, size=(4, 1, 16, 16)))

        def clip():
            model.registry.zero_grad()
            pred = model.forward_frame(frames, model.fresh_states())
            backward(salrec.training.bce_loss(pred, gts))
            return [pred.data.tobytes()] + [
                p.grad.tobytes() for _, p in model.registry.items()]

        pooled, epoch = clip(), one_epoch_params(recurrence)
        ran = relu_first(monkeypatch)
        assert clip() == pooled
        assert len(ran) == 2  # both encoder stages ran relu first
        ref = one_epoch_params(recurrence)
        assert {k: v.tobytes() for k, v in ref.items()} == \
            {k: v.tobytes() for k, v in epoch.items()}


class TestActivations:
    def test_values_at_zero(self):
        assert sigmoid(t(0.0)).item() == 0.5
        assert tanh(t(0.0)).item() == 0.0
        assert relu(t(-1.0)).item() == 0.0

    def test_sigmoid_derivative_at_zero(self):
        x = t(0.0, grad=True)
        backward(sigmoid(x))
        assert x.grad == pytest.approx(0.25)

    # float64 saturates to exactly 1.0 beyond ~36, so test the strict
    # open-interval claim where it is numerically representable
    @given(st.floats(-30, 30))
    def test_sigmoid_range(self, v):
        s = sigmoid(t(v)).item()
        assert 0.0 < s < 1.0

    def test_relu_subgradient_at_zero_is_zero(self):
        x = t(0.0, grad=True)
        backward(relu(x))
        assert x.grad == 0.0


class TestElementwise:
    def test_mul_ones_identity(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(mul(t(x), t(np.ones((3, 3)))).data, x)

    def test_add_neg_is_zero(self):
        rng = np.random.default_rng(3)
        x = t(rng.normal(size=(4,)))
        assert np.all(sub(x, x).data == 0.0)

    def test_product_rule(self):
        rng = np.random.default_rng(4)
        a = t(rng.normal(size=(3, 3)), grad=True)
        b = t(rng.normal(size=(3, 3)))
        backward(tsum(mul(a, b)))
        np.testing.assert_array_equal(a.grad, b.data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            add(t(np.zeros((2, 2))), t(np.zeros((2, 3))))


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t(np.zeros((2, 3)), grad=True)
        backward(tsum(x))
        assert np.all(x.grad == 1.0)

    def test_sum_sigmoid_at_zero(self):
        x = t(np.zeros((5,)), grad=True)
        backward(tsum(sigmoid(x)))
        np.testing.assert_allclose(x.grad, 0.25)

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(t(np.zeros((2, 2)), grad=True))

    def test_accumulation_doubles(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(3, 3))

        def grad_of(fn):
            x = t(vals, grad=True)
            backward(fn(x))
            return x.grad

        single = grad_of(lambda x: tsum(sigmoid(x)))
        double = grad_of(lambda x: add(tsum(sigmoid(x)), tsum(sigmoid(x))))
        np.testing.assert_array_equal(double, 2.0 * single)

    def test_first_grad_of_negative_zero_is_positive_zero(self):
        x = t(np.ones(3), grad=True)
        x.accumulate_grad(np.array([-0.0, 1.0, -0.0]))
        assert not np.any(np.signbit(x.grad))  # as zeros + g would store it

    def test_first_grad_is_not_aliased(self):
        x = t(np.ones(3), grad=True)
        g = np.array([1.0, 2.0, 3.0])
        x.accumulate_grad(g)
        g[:] = 7.0
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])

    def test_first_grad_of_transposed_view_is_contiguous(self):
        # conv2d's input gradient comes back as an NHWC buffer seen as NCHW
        x = t(np.ones((1, 2, 3, 4)), grad=True)
        g = np.arange(24.0).reshape(1, 3, 4, 2).transpose(0, 3, 1, 2)
        x.accumulate_grad(g)
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, g)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.uniform(-2, 2, size=(1, 2, 4, 4)))
        k = Tensor(rng.uniform(-2, 2, size=(2, 2, 3, 3)))

        def run():
            y = conv2d(x, k)
            y = relu(add(y, scale(x, 0.5)))
            y = maxpool2d(y)
            return tsum(mul(sigmoid(y), tanh(y)))

        assert max_rel_error(run, [x, k]) < 1e-4

    def test_forward_determinism(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 2, 4, 4))
        k = rng.normal(size=(2, 2, 3, 3))
        a = conv2d(t(x), t(k)).data
        b = conv2d(t(x), t(k)).data
        assert np.array_equal(a, b)


class TestTape:
    def test_each_op_visited_once(self):
        x = t(np.ones(3), grad=True)
        y = sigmoid(x)
        loss = add(tsum(y), tsum(y))  # diamond: y used twice
        tape = ComputationTape(loss)
        ids = [id(node) for node in tape.ops]
        assert len(ids) == len(set(ids))
        assert id(loss) in ids

    def test_grad_buffer_length_matches_data(self):
        x = t(np.ones((2, 4)), grad=True)
        backward(tsum(x))
        assert x.grad.shape == x.data.shape


class TestOpGradients:
    def test_cases_cover_every_differentiable_op(self):
        graph = {"Tensor", "ComputationTape", "no_grad", "backward"}
        ops = {name.split("-")[0] for name in OP_CASES}
        assert ops == set(salrec.tensor.__all__) - graph

    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_matches_finite_differences(self, name):
        # the per-op bound, a hundredth of `salrec gradcheck`'s tolerance
        errors = [check_op(name, seed) for seed in range(10)]
        assert max(errors) < 1e-6, errors

    @pytest.mark.sweep
    @pytest.mark.parametrize("name", sorted(OP_CASES))
    def test_matches_finite_differences_at_every_seed(self, name):
        errors = [check_op(name, seed) for seed in range(200)]
        assert max(errors) < 1e-6, (int(np.argmax(errors)), max(errors))

    def test_vjp_of_parent_without_grad_never_runs(self):
        def boom(g):
            raise AssertionError("vjp called for a parent without grad")

        a, b = t(np.ones(3), grad=True), t(np.ones(3))
        y = _node(a.data * 2.0, (b, boom), (a, lambda g: 2.0 * g))
        assert y.requires_grad and y._parents == (a,)
        backward(tsum(y))
        assert b.grad is None
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        leaf = _node(b.data, (b, boom))
        assert not leaf.requires_grad and leaf._backward_fn is None

    def test_prepare_runs_once_per_backward_call(self):
        calls = []

        def prepare(g):
            calls.append(g)
            return 2.0 * g

        a, b = t(np.ones(3), grad=True), t(np.ones(3), grad=True)
        y = _node(a.data + b.data, (a, lambda d: d), (b, lambda d: -d),
                  prepare=prepare)
        backward(tsum(y))
        assert len(calls) == 1
        np.testing.assert_array_equal(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(b.grad, [-2.0, -2.0, -2.0])


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """perfbench's tracer rebinds the tensor ops by name and wraps each
    result's `_backward_fn`; a traced clip must train as an untraced one."""

    def trained_clip(self, tracer=None, cfg=None, n_frames=2):
        if cfg is None:
            cfg = ModelConfig(input_size=(8, 8), stages=2, base_channels=4,
                              recurrence="convlstm", seed=3)
        net = build(cfg)
        h, w = cfg.input_size
        rng = np.random.default_rng(0)
        frames = t(rng.uniform(size=(n_frames, 1, h, w)))
        gts = t(rng.uniform(size=(n_frames, 1, h, w)))
        optimizer = Adam(net.registry)
        if tracer is not None:
            tracer.install()
        try:
            salrec.training.train_clip(net, frames, gts, net.fresh_states(),
                                       optimizer, "v", rng)
        finally:
            if tracer is not None:
                tracer.uninstall()
        return {name: p.data for name, p in net.registry.items()}

    def assert_bit_equal(self, traced, untraced):
        assert traced.keys() == untraced.keys()
        for name, value in untraced.items():
            assert np.array_equal(traced[name], value), name

    def test_traced_clip_matches_untraced(self):
        tracer_mod = _load_tracer()
        tracer = tracer_mod.Tracer()
        ops = tracer_mod.ELEMENTWISE + ("conv2d", "maxpool2d", "upsample_nearest")
        originals = {op: getattr(salrec.tensor, op) for op in ops}
        traced = self.trained_clip(tracer)
        assert tracer.calls["tensor.backward"] == 1
        assert tracer.counts["tensor.tape_nodes"] > 0
        assert tracer.calls["tensor.conv2d.bwd"] > 0
        assert tracer.calls["tensor.elementwise.bwd"] > 0
        assert all(getattr(salrec.tensor, op) is fn for op, fn in originals.items())
        self.assert_bit_equal(traced, self.trained_clip())

    def test_traced_ema_clip_names_every_layer(self):
        """At the default shape, a clip's one `forward_frame` call records
        each layer span the tracer names once, and one EMA scan over the
        clip."""
        tracer_mod = _load_tracer()
        tracer = tracer_mod.Tracer()
        cfg = ModelConfig(recurrence="ema", seed=3)
        traced = self.trained_clip(tracer, cfg, n_frames=3)
        assert tracer.calls["model.forward_frame"] == 1
        assert tracer.calls["tensor.conv2d"] == len(tracer_mod.LAYER_NAMES)
        for layer in tracer_mod.LAYER_NAMES:
            assert tracer.calls[f"layers.{layer}"] == 1, layer
            assert tracer.bwd[f"layers.{layer}"] > 0, layer
        assert tracer.calls["recurrence.ema_step"] == 1
        self.assert_bit_equal(traced, self.trained_clip(cfg=cfg, n_frames=3))

    def test_traced_convlstm_clip_steps_each_frame(self):
        """At the default shape, a ConvLSTM clip steps every frame in one
        `convlstm_step` call, whose scan runs no traced conv2d. The tracer
        times no `_node` backward, so the scan's shows only in the self time
        of `tensor.backward`, as `ema_step`'s and `bce`'s do."""
        tracer_mod = _load_tracer()
        tracer = tracer_mod.Tracer()
        cfg = ModelConfig(recurrence="convlstm", seed=3)
        traced = self.trained_clip(tracer, cfg, n_frames=3)
        assert tracer.calls["model.forward_frame"] == 1
        assert tracer.calls["recurrence.convlstm_step"] == 1
        assert tracer.calls["tensor.conv2d"] == len(tracer_mod.LAYER_NAMES)
        assert tracer.self_time["tensor.backward"] > 0
        self.assert_bit_equal(traced, self.trained_clip(cfg=cfg, n_frames=3))
