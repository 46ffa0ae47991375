import errno
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from voxseg import nn
from voxseg.nn import Node, ShuffleUNet3d, backward, ce_dice_loss
from voxseg.shuffle import divide_extents
from voxseg.tensor import Rng, Shape4, Tensor4


def full(shape: Shape4, value: float) -> Tensor4:
    """Tensor of the given shape with every element equal to ``value``."""
    return Tensor4(np.full((shape.z, shape.y, shape.x, shape.c), float(value)))


def from_flat(shape: Shape4, buffer) -> Tensor4:
    """Float64 tensor of ``shape`` built from a flat buffer in layout order (copies)."""
    shape = Shape4(*shape).validate()
    buf = np.array(buffer, dtype=np.float64, order="C").reshape(-1)
    if buf.size != shape.element_count:
        raise ValueError(f"buffer length {buf.size} != element count {shape.element_count}")
    return Tensor4(buf.reshape(shape.z, shape.y, shape.x, shape.c))


def tensors_equal(a: Tensor4, b: Tensor4) -> bool:
    """Same shape and the same values (NaN counts as unequal)."""
    return a.shape == b.shape and bool(np.array_equal(a.zyxc, b.zyxc))


def dot(a: Tensor4, b: Tensor4) -> float:
    """Exactly rounded inner product (math.fsum over elementwise products).

    Using an exactly rounded sum makes the result independent of element
    order, so permutation adjoint identities hold with zero error.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return math.fsum(np.multiply(a.flat, b.flat).tolist())


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and bytes: NaN payloads and signed zeros count."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def down_shuffle_reference(t: Tensor4, factors: tuple[int, int, int]) -> Tensor4:
    """Naive per-element transcription of the index map. Oracle only.

    Kept loop-shaped and separate from the transpose path on purpose; do not
    "optimize" this function.
    """
    nx, ny, nz = factors
    d, h, w = divide_extents(t.shape.spatial, factors, "shuffle")
    C = t.shape.c
    c_out = C * nx * ny * nz
    out = np.empty((w, h, d, c_out))
    for zp in range(w):
        for yp in range(h):
            for xp in range(d):
                for cp in range(c_out):
                    sx = xp * nx + (cp % (nx * C)) // C
                    sy = yp * ny + (cp % (nx * ny * C)) // (nx * C)
                    sz = zp * nz + cp // (nx * ny * C)
                    sc = cp % C
                    out[zp, yp, xp, cp] = t.at(sx, sy, sz, sc)
    return Tensor4(out)


def traced_peak(run):
    """``run()``'s result and the peak traced bytes it held above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def gemm_flops_per_step(cfg) -> int:
    """GEMM FLOPs of one forward, ``ce_dice_loss`` and backward of ``cfg``'s net.

    Each ``voxseg.nn.dgemm`` call costs 2*M*N*K: M x N is ``c``'s shape and K
    the inner extent of ``a`` (its rows under ``trans_a``). No machine load
    moves the count: it depends only on the net and the patch extents.
    """
    flops = 0
    gemm = nn.dgemm

    def counted(alpha, a, b, **kw):  # voxseg passes c and the transposes by keyword
        nonlocal flops
        flops += 2 * kw["c"].size * a.shape[0 if kw.get("trans_a") else 1]
        return gemm(alpha, a, b, **kw)

    net = ShuffleUNet3d(cfg.backbone_spec(), Rng(cfg.seed))
    patch = Tensor4.zeros(Shape4(*cfg.patch, 1))
    labels = Tensor4(np.zeros(patch.zyxc.shape, np.uint8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "dgemm", counted)
        backward(ce_dice_loss(net.forward(patch), labels, cfg.lambda_ce, cfg.lambda_dice))
    return flops


def fd_gradient_error(build, leaf_tensors, seed=1.0):
    """Worst relative error between backprop and central finite differences.

    ``build`` maps a list of leaf Nodes to an output Node. The analytic side
    is ``backward(out, seed)``; the numeric side differentiates the projection
    ``(out.value.zyxc * seed).sum()``, perturbing every leaf coordinate by
    coordinate. ``seed`` is 1.0 for a scalar output or an array of the
    output's (z, y, x, c) shape. The relative error for a leaf is
    max|ga - gn| / (max|ga| + max|gn|).
    """
    eps = 1e-5
    leaves = [Node(t) for t in leaf_tensors]
    backward(build(leaves), seed)
    analytic = [leaf.grad.copy() for leaf in leaves]
    worst = 0.0
    for li, tensor in enumerate(leaf_tensors):
        ga = analytic[li]
        base = tensor.flat.copy()
        gn = np.zeros(base.size)
        for i in range(base.size):
            probes = []
            for sign in (+1.0, -1.0):
                buf = base.copy()
                buf[i] += sign * eps
                mod = [
                    Node(t) if j != li
                    else Node(from_flat(t.shape, buf))
                    for j, t in enumerate(leaf_tensors)
                ]
                probes.append((build(mod).value.zyxc * seed).sum())
            gn[i] = (probes[0] - probes[1]) / (2.0 * eps)
        denom = np.abs(ga).max() + np.abs(gn).max() + 1e-300
        worst = max(worst, float(np.abs(ga - gn.reshape(ga.shape)).max() / denom))
    return worst


@st.composite
def mutated(draw, files):
    """One of ``files`` with some bytes overwritten, then possibly cut or zero-extended."""
    raw = bytearray(draw(st.sampled_from(files)))
    for _ in range(draw(st.integers(1, 4))):
        raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
    cut = draw(st.integers(0, len(raw) + 8))
    return bytes(raw[:cut]) + bytes(max(0, cut - len(raw)))


class FailsHalfway:
    """File stand-in whose first write over ``limit`` bytes stores half, then fails."""

    def __init__(self, fh, limit: int = 64):
        self._fh = fh
        self._limit = limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, chunk):
        data = memoryview(chunk).cast("B")
        if len(data) > self._limit:
            self._fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "no space left on device")
        return self._fh.write(data)


# reader fuzzing: each example rewrites one file under the test's tmp_path
FUZZ = settings(max_examples=300, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

