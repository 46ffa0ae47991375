"""Dense 4-D tensor value type plus the seeded PRNG used everywhere.

A ``Tensor4`` is a dense block of float64 scalars, or of uint8 class indices
for label maps, indexed by ``(x, y, z, c)`` with a single fixed memory layout:
channel varies fastest, then x, then y, then z slowest, i.e.

    linear offset = c + C * (x + X * (y + Y * z))

Internally the buffer is held as a C-contiguous numpy array with axes
``(z, y, x, c)``, which realizes exactly that offset law. Every operation in
the package goes through this one layout; there are no hidden transposes.
``Tensor4(zyxc)`` wraps such an array without a copy when it is already
C-contiguous float64 or uint8 (converting it to float64 otherwise); the caller
hands the array over and must not modify it afterwards.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Largest element count we accept; keeps all offset arithmetic inside int64.
_MAX_ELEMENTS = 1 << 62
# Values per slab of the data path's temporaries (normal samples, or voxels in whole z
# planes), so generation and augmentation hold bounded scratch at any volume size.
SLAB_VOXELS = 1 << 15


class Shape4(NamedTuple):
    """Extents of a Tensor4: spatial (x, y, z) and channel count c."""

    x: int
    y: int
    z: int
    c: int

    @property
    def spatial(self) -> tuple[int, int, int]:
        return (self.x, self.y, self.z)

    @property
    def element_count(self) -> int:
        return self.x * self.y * self.z * self.c

    def validate(self) -> "Shape4":
        """Check extents: every extent, channels included, must be >= 1."""
        if min(self) < 1:
            raise ValueError(f"extents {tuple(self)} must all be >= 1")
        if self.element_count > _MAX_ELEMENTS:
            raise ValueError(f"element count {self.element_count} overflows index range")
        return self


class Tensor4:
    """Immutable-by-convention dense 4-D float64 (or uint8 label) tensor.

    The only sanctioned in-place mutations are the optimizer update, which owns
    its parameters exclusively while stepping, and ``predict``'s softmax, which
    reuses the logits' buffer that nothing else holds.
    """

    __slots__ = ("_zyxc",)

    def __init__(self, zyxc: np.ndarray):
        dtype = np.uint8 if zyxc.dtype == np.uint8 else np.float64
        if zyxc.dtype != dtype or not zyxc.flags.c_contiguous:
            zyxc = np.ascontiguousarray(zyxc, dtype=dtype)
        if zyxc.ndim != 4:
            raise ValueError(f"expected 4 axes, got {zyxc.ndim}")
        self._zyxc = zyxc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, shape: Shape4) -> "Tensor4":
        shape = Shape4(*shape).validate()
        return cls(np.zeros((shape.z, shape.y, shape.x, shape.c)))

    @classmethod
    def gaussian(cls, shape: Shape4, mu: float, sigma: float, rng: "Rng") -> "Tensor4":
        """I.i.d. normal samples; bit-identical for identical seed and shape."""
        shape = Shape4(*shape).validate()
        samples = rng.normal(shape.element_count, mu=mu, sigma=sigma)
        return cls(samples.reshape(shape.z, shape.y, shape.x, shape.c))

    # -- views and lookups -------------------------------------------------

    @property
    def shape(self) -> Shape4:
        z, y, x, c = self._zyxc.shape
        return Shape4(x, y, z, c)

    @property
    def size(self) -> int:
        return self._zyxc.size

    @property
    def zyxc(self) -> np.ndarray:
        """Backing array, axes (z, y, x, c). Treat as read-only."""
        return self._zyxc

    @property
    def flat(self) -> np.ndarray:
        """1-D view of the buffer in layout order (c fastest, z slowest)."""
        return self._zyxc.reshape(-1)

    def at(self, x: int, y: int, z: int, c: int) -> float:
        return float(self._zyxc[z, y, x, c])

    # -- structure ----------------------------------------------------------

    def crop(self, origin: tuple[int, int, int], size: tuple[int, int, int]) -> "Tensor4":
        """Copy the sub-tensor at spatial ``origin`` with spatial ``size``; all channels."""
        ox, oy, oz = origin
        sx, sy, sz = size
        X, Y, Z, _ = self.shape
        if min(sx, sy, sz) < 1:
            raise ValueError(f"crop size must be positive, got {size}")
        if ox < 0 or oy < 0 or oz < 0 or ox + sx > X or oy + sy > Y or oz + sz > Z:
            raise ValueError(
                f"crop window origin={origin} size={size} exceeds extents {self.shape.spatial}"
            )
        return Tensor4(self._zyxc[oz : oz + sz, oy : oy + sy, ox : ox + sx, :].copy())

    def __repr__(self) -> str:
        s = self.shape
        return f"Tensor4(x={s.x}, y={s.y}, z={s.z}, c={s.c})"


# ---------------------------------------------------------------------------
# PRNG
# ---------------------------------------------------------------------------

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPAWN_SALT = np.uint64(0x632BE59BD9B4E019)
_TWO53_INV = 1.0 / (1 << 53)


def _mix64(v: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (Stafford mix13) on uint64 arrays."""
    v = v.copy()
    with np.errstate(over="ignore"):
        v ^= v >> np.uint64(30)
        v *= np.uint64(0xBF58476D1CE4E5B9)
        v ^= v >> np.uint64(27)
        v *= np.uint64(0x94D049BB133111EB)
        v ^= v >> np.uint64(31)
    return v


class Rng:
    """Deterministic 64-bit PRNG: SplitMix64 run in counter mode.

    Output word i is ``mix13(seed + i * 0x9E3779B97F4A7C15)`` in uint64
    arithmetic, which makes block generation a pure vector computation and
    the stream a function of (seed, counter) alone. Uniform doubles take the
    top 53 bits; normals come from the Box-Muller transform. The algorithm is
    part of the package contract and must never change silently: identical
    seeds reproduce identical tensors bit for bit.
    """

    __slots__ = ("_seed", "_counter")

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    @property
    def seed(self) -> int:
        return int(self._seed)

    def _block(self, n: int, start: int | None = None) -> np.ndarray:
        """Words ``start + 1 .. start + n``; by default from the counter, which advances."""
        if n < 0:
            raise ValueError("block size must be >= 0")
        if start is None:
            start = self._counter
            self._counter += n
        idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = self._seed + idx * _GAMMA
        return _mix64(state)

    def uniform(self, n: int, start: int | None = None) -> np.ndarray:
        """n doubles uniform on [0, 1); ``start`` as for ``_block``."""
        return (self._block(n, start) >> np.uint64(11)).astype(np.float64) * _TWO53_INV

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n i.i.d. normal samples via Box-Muller on consecutive uniforms.

        With pairs = ceil(n / 2), pair i reads words counter + 1 + i and
        counter + 1 + pairs + i; sample i is its radius times cos(theta), sample
        pairs + i its radius times sin(theta). Pairs are drawn SLAB_VOXELS at a time.
        """
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        pairs = (n + 1) // 2
        out = np.empty(n)
        first, self._counter = self._counter, self._counter + 2 * pairs
        for s in range(0, pairs, SLAB_VOXELS):
            e = min(s + SLAB_VOXELS, pairs)
            radius = self.uniform(e - s, first + s)
            radius[radius == 0.0] = _TWO53_INV  # keep log argument positive
            np.sqrt(np.log(radius, out=radius) * -2.0, out=radius)
            theta = self.uniform(e - s, first + pairs + s) * (2.0 * np.pi)
            for part, trig in ((out[s:e], np.cos), (out[pairs + s:pairs + e], np.sin)):
                m = len(part)  # n odd: the last pair has no sin sample
                trig(theta[:m], out=part)
                part *= radius[:m]
                part *= sigma
                part += mu
        return out

    def randint(self, lo: int, hi: int, n: int | None = None):
        """Integers uniform on [lo, hi). Scalar when n is None."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        count = 1 if n is None else n
        vals = lo + np.floor(self.uniform(count) * (hi - lo)).astype(np.int64)
        return int(vals[0]) if n is None else vals

    def spawn(self, key: int) -> "Rng":
        """Independent child stream derived from (seed, key)."""
        with np.errstate(over="ignore"):
            basis = np.array([self._seed ^ _SPAWN_SALT], dtype=np.uint64)
            child = _mix64(basis + np.uint64(key & 0xFFFFFFFFFFFFFFFF) * _GAMMA)
        return Rng(int(child[0]))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed:#018x}, counter={self._counter})"
