"""Split and concat of NCHW tensors along the frame or channel axis, for the
tests' chain oracles: the single ops that the recurrences' scans replaced,
each part one tape node built on `_node`."""

import numpy as np

from salrec.tensor import Tensor, _node


def _along(axis: int, lo: int, hi: int) -> tuple:
    """Index of the slice lo:hi along `axis`."""
    return (slice(None),) * axis + (slice(lo, hi),)


def concat(*xs: Tensor, axis: int) -> Tensor:
    """Concatenate along `axis`; each input's gradient is its slice."""
    bounds = np.cumsum([0] + [x.shape[axis] for x in xs])
    return _node(np.concatenate([x.data for x in xs], axis=axis),
                 *((x, lambda g, i=_along(axis, lo, hi): g[i])
                   for x, lo, hi in zip(xs, bounds[:-1], bounds[1:])))


def split(x: Tensor, k: int, axis: int) -> list[Tensor]:
    """k equal consecutive parts along `axis`; each part's gradient fills
    its slice of a zeroed input gradient."""
    c = x.shape[axis] // k

    def part(lo):
        i = _along(axis, lo, lo + c)

        def dx(g):
            full = np.zeros_like(x.data)
            full[i] = g
            return full

        return _node(x.data[i], (x, dx))

    return [part(lo) for lo in range(0, k * c, c)]
