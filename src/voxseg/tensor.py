"""Dense 4-D tensor value type plus the seeded PRNG used everywhere.

A ``Tensor4`` is a dense block of float64 scalars indexed by ``(x, y, z, c)``
with a single fixed memory layout: channel varies fastest, then x, then y,
then z slowest, i.e.

    linear offset = c + C * (x + X * (y + Y * z))

Internally the buffer is held as a C-contiguous numpy array with axes
``(z, y, x, c)``, which realizes exactly that offset law. Every operation in
the package goes through this one layout; there are no hidden transposes.
``Tensor4(zyxc)`` wraps such an array without a copy when it is already
C-contiguous float64 (converting it otherwise); the caller hands the array
over and must not modify it afterwards.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Largest element count we accept; keeps all offset arithmetic inside int64.
_MAX_ELEMENTS = 1 << 62


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
    """Immutable-by-convention dense 4-D float64 tensor.

    The only sanctioned in-place mutation is the optimizer update, which owns
    its parameters exclusively while stepping.
    """

    __slots__ = ("_zyxc",)

    def __init__(self, zyxc: np.ndarray):
        if zyxc.dtype != np.float64 or not zyxc.flags.c_contiguous:
            zyxc = np.ascontiguousarray(zyxc, dtype=np.float64)
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

    @classmethod
    def from_flat(cls, shape: Shape4, buffer: np.ndarray) -> "Tensor4":
        """Build from a flat buffer already in layout order (copies)."""
        shape = Shape4(*shape).validate()
        buf = np.ascontiguousarray(buffer, dtype=np.float64).reshape(-1)
        if buf.size != shape.element_count:
            raise ValueError(
                f"buffer length {buf.size} != element count {shape.element_count}"
            )
        return cls(buf.reshape(shape.z, shape.y, shape.x, shape.c).copy())

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

    def copy(self) -> "Tensor4":
        return Tensor4(self._zyxc.copy())

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

    # -- comparisons ----------------------------------------------------------

    def equal(self, other: "Tensor4") -> bool:
        return self.shape == other.shape and bool(
            np.array_equal(self._zyxc, other._zyxc)
        )

    def __repr__(self) -> str:
        s = self.shape
        return f"Tensor4(x={s.x}, y={s.y}, z={s.z}, c={s.c})"


def dot(a: Tensor4, b: Tensor4) -> float:
    """Exactly rounded inner product (math.fsum over elementwise products).

    Using an exactly rounded sum makes the result independent of element
    order, so permutation adjoint identities hold with zero error.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return math.fsum(np.multiply(a.flat, b.flat).tolist())


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

    def _block(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("block size must be >= 0")
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            state = self._seed + idx * _GAMMA
        return _mix64(state)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1)."""
        return (self._block(n) >> np.uint64(11)).astype(np.float64) * _TWO53_INV

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n i.i.d. normal samples via Box-Muller on consecutive uniforms."""
        if sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {sigma}")
        pairs = (n + 1) // 2
        u1 = self.uniform(pairs)
        u2 = self.uniform(pairs)
        u1 = np.where(u1 == 0.0, _TWO53_INV, u1)  # keep log argument positive
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
        return mu + sigma * z

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
