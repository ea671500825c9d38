"""Parameterized layers: convolution with Glorot-uniform init, inverted
dropout, and the ordered parameter registry used for optimization and
checkpointing."""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from .tensor import Tensor, conv2d, mul, upsample_conv3x3


class ParameterRegistry:
    """Ordered, uniquely-named collection of trainable tensors."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"parameter {name!r} registered twice")
        tensor.requires_grad = True
        self._params[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._params.items())

    def names(self) -> list[str]:
        return list(self._params)

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()


def xavier_init(shape: tuple, fan_in: int, fan_out: int,
                rng: np.random.Generator) -> Tensor:
    """Glorot-uniform draw: values in [-b, b] with b = sqrt(6/(fan_in+fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got {fan_in}, {fan_out}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape))


class ConvLayer:
    """Same-size conv2d with a registered Glorot-uniform kernel and zero bias.

    An `upsampled` layer convolves the 2x nearest-neighbour upsample of its
    input, folded into the conv (`upsample_conv3x3`): one conv over the
    input by a phase kernel of four times the output channels. Values and
    the input and kernel gradients then match those of an explicit
    `upsample_nearest` up to summation order, within 2.1e-15 of their
    largest element over 3,000 random shapes; the bias gradient is bit for
    bit. The fold holds only for a 3x3 kernel.
    """

    def __init__(self, registry: ParameterRegistry, name: str,
                 in_ch: int, out_ch: int, ksize: int,
                 rng: np.random.Generator, upsampled: bool = False):
        if upsampled and ksize != 3:
            raise ValueError(
                f"{name}: an upsampled conv needs a 3x3 kernel, "
                f"got {ksize}x{ksize}")
        fan_in = in_ch * ksize * ksize
        fan_out = out_ch * ksize * ksize
        self.kernel = registry.register(
            f"{name}.kernel", xavier_init((out_ch, in_ch, ksize, ksize),
                                          fan_in, fan_out, rng))
        self.bias = registry.register(f"{name}.bias", Tensor(np.zeros(out_ch)))
        self.upsampled = upsampled

    def __call__(self, x: Tensor) -> Tensor:
        if self.upsampled:
            return upsample_conv3x3(x, self.kernel, self.bias)
        return conv2d(x, self.kernel, self.bias)


DROPOUT_P = 0.5  # drop probability of the dropout in front of each recurrence


def dropout_forward(x: Tensor, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout: given a generator, zero with probability
    DROPOUT_P and scale survivors by 1/(1 - DROPOUT_P), with a fresh mask
    drawn from `rng` per call over the whole input (in training, a clip's
    frame stack); without one (rng None, as in prediction), x itself."""
    if rng is None:
        return x
    mask = (rng.random(x.shape) >= DROPOUT_P) / (1.0 - DROPOUT_P)
    return mul(x, Tensor(mask))
