"""Periodic down-shuffling and up-shuffling of Tensor4 volumes.

Down-shuffling trades spatial resolution for channels: factors (n_x, n_y, n_z)
turn a (n_x*d, n_y*h, n_z*w, C) tensor into (d, h, w, C*n_x*n_y*n_z). It is
the 3-D analog of space-to-depth with this exact index map:

    out(x', y', z', c') = in(x'*n_x + floor(mod(c', n_x*C) / C),
                             y'*n_y + floor(mod(c', n_x*n_y*C) / (n_x*C)),
                             z'*n_z + floor(c' / (n_x*n_y*C)),
                             mod(c', C))

Equivalently, writing c' = c + C*(i + n_x*(j + n_y*k)) with block offsets
(i, j, k), the input channel varies fastest in the output channel axis, then
the x offset, then y, then z. Up-shuffling is defined as the exact inverse
permutation, so a down/up round trip is the identity element for element.

Both directions split each spatial axis into (coarse, block offset), move the
offsets next to the channel axis with one transpose, and copy once; nothing is
kept per shape.

Factors are plain ``(n_x, n_y, n_z)`` int tuples. ``divide_extents`` owns the
rule of the down-shuffle and pooling (each factor >= 1 and divides its extent);
``up_shuffle`` owns its own (each factor >= 1, the product divides the channels).
"""

from __future__ import annotations

import math

from .tensor import Tensor4


def divide_extents(extents, factors, what: str) -> tuple[int, ...]:
    """Per-axis ``extents // factors``; ValueError unless each factor is >= 1 and divides."""
    if min(factors) < 1 or any(e % f for e, f in zip(extents, factors)):
        raise ValueError(f"{what} factors {tuple(factors)} must be >= 1 and divide "
                         f"extents {tuple(extents)}")
    return tuple(e // f for e, f in zip(extents, factors))


def down_shuffle(t: Tensor4, factors: tuple[int, int, int]) -> Tensor4:
    """Periodic down-shuffle: (n_x*d, n_y*h, n_z*w, C) -> (d, h, w, C*n_x*n_y*n_z)."""
    d, h, w = divide_extents(t.shape.spatial, factors, "shuffle")
    nx, ny, nz = factors
    c = t.shape.c
    # (z, y, x, c) -> (w, nz, h, ny, d, nx, c) -> (w, h, d, nz, ny, nx, c);
    # the copy also keeps the output off the input's memory at factors (1, 1, 1)
    blocks = t.zyxc.reshape(w, nz, h, ny, d, nx, c).transpose(0, 2, 4, 1, 3, 5, 6)
    return Tensor4(blocks.copy().reshape(w, h, d, c * math.prod(factors)))


def up_shuffle(t: Tensor4, factors: tuple[int, int, int]) -> Tensor4:
    """Inverse of :func:`down_shuffle`; ValueError unless factors >= 1, product divides C."""
    product = math.prod(factors)
    if min(factors) < 1 or t.shape.c % product:
        raise ValueError(f"shuffle factors {tuple(factors)} must be >= 1 and their product "
                         f"must divide channel count {t.shape.c}")
    nx, ny, nz = factors
    d, h, w, _ = t.shape
    c = t.shape.c // product
    blocks = t.zyxc.reshape(w, h, d, nz, ny, nx, c).transpose(0, 3, 1, 4, 2, 5, 6)
    return Tensor4(blocks.copy().reshape(w * nz, h * ny, d * nx, c))
