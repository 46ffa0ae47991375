"""Reverse-mode autodiff over Tensor4 and the layer set for a shuffle-wrapped 3D U-net.

Every operation returns a Node holding its float64 Tensor4 value, its parents
and a closure that scatters the node's gradient back to them.
``backward(root, seed)`` seeds the root's gradient (1.0 for a scalar root, or
an array of its shape) and runs each closure once in reverse topological
order, then releases that node's closure, parents and gradient; leaves
(parameters) keep theirs, and a ``backward`` that reaches a released node
raises ``RuntimeError``. A node whose parents need no gradient, and the network
input, keep no parents; ``ShuffleUNet3d.predict`` records nothing.

Each closure keeps only what its backward reads, and so does the graph: no
backward reads an identity conv's output that feeds an up-shuffle, nor the
head's up-shuffle output (the logits), so ``ConvUpShuffle`` and
``ShuffleUNet3d.forward`` set such a node's ``value`` to None once its one
consumer's forward has run (its ``shape`` stays). ``conv3d`` reads a tuple of
input nodes as their channel concatenation without building it, so the
decoder has no concatenation node. Its forward holds one z-slab of padded
input and accumulator at a time beside its output; its backward re-pads the
inputs' values for the weight gradient, allocates the input gradient, if one
is needed, only after it, and holds one full-size copy of the output gradient
at a time. A ReLU folded into ``conv3d`` masks by its output, > 0 exactly
where the pre-activation is (NaN and ±0 included). Every op hands each parent
one array it gives up to ``Node._accumulate``; no op writes a gradient itself.
The first array becomes the gradient in place and in its own layout as
0.0 + g, the bits a zero fill plus g gives; later ones are added to it.

Convolution is cross-correlation (no kernel flip) at stride 1 with "same" zero
padding: every kernel extent k is odd, each axis is padded by k // 2 zeros on
both sides, so the output keeps the input's extents; the net downsamples only
by shuffling and pooling. Kernel weights live in a Tensor4 of shape
(kx, ky, kz, c_in*c_out) with channel index ci * c_out + co, and ``conv3d``
reads the kernel extents from that shape. It lays the input on a shared-gap
grid, rows of stride X = x + px and planes of stride P = (y + py) * X, where
the px zeros after a row are also the left pad of the next row and the py zero
rows after a plane the top pad of the next plane. Output voxel (z, y, x) is
grid row z*P + y*X + x, and tap (dz, dy, dx) reads the rows from offset
dz*P + dy*X + dx on, so each tap is one GEMM added in place into the output
rows. All GEMMs are scipy's f2py ``dgemm`` on scipy's OpenBLAS: numpy's
separate OpenBLAS thread pool contends with scipy's when both are used. It is
loaded from the ``scipy/linalg/_fblas`` extension file alone, which takes a
process from 27 MiB of RSS (numpy alone) to 29.5 MiB; importing
``scipy.linalg.blas`` would take it to 55 MiB.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import struct
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .atomic import write_atomic
from .shuffle import divide_extents, down_shuffle, up_shuffle
from .tensor import Rng, Shape4, Tensor4
from .volume import check_label_values, read_payload


_recording = True  # cleared only while ShuffleUNet3d.predict runs


def _load_fblas():
    """scipy's ``_fblas`` extension module, loaded from its file without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name="scipy")
    paths = [os.path.join(spec.submodule_search_locations[0], "linalg", "_fblas" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's BLAS extension not found: {paths[0]}", path=paths[0])
    # single-phase init registers the module in sys.modules under this name
    loader = importlib.machinery.ExtensionFileLoader("voxseg._fblas", path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


dgemm = _load_fblas().dgemm


class Node:
    """One value in the computation record."""

    __slots__ = ("value", "shape", "_grad", "_parents", "_backprop", "_needs_grad", "_released")

    def __init__(self, value: Tensor4, parents: tuple = (),
                 backprop: Callable[["Node"], None] | None = None):
        self.value = value
        self.shape = value.shape
        self._grad = None
        self._needs_grad = _recording and (not parents or any(p._needs_grad for p in parents))
        self._parents = parents if self._needs_grad else ()
        self._backprop = backprop if self._needs_grad else None
        self._released = False

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros((*self.shape.spatial[::-1], self.shape.c))
        return self._grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._grad = value

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g``, an array the caller gives up; the first becomes the gradient as is."""
        if self._grad is None:
            self._grad = np.add(g, 0.0, out=g)
        else:
            self._grad += g


def backward(root: Node, seed=None) -> None:
    """Accumulate the gradients of <root, seed> into every reachable node.

    ``seed`` is a float for a scalar root (default 1.0) or an array of the
    root's (z, y, x, c) shape.
    """
    seed = 1.0 if seed is None else seed
    if np.shape(seed) != root.grad.shape and (np.ndim(seed) or root.value.size != 1):
        raise ValueError(f"seed of shape {np.shape(seed)} does not fit a root of "
                         f"shape {root.grad.shape}")

    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._released:
            raise RuntimeError("backward reached a released node; rebuild the graph")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    root.grad[...] = seed
    while order:  # popping drops the last reference a finished node has here
        node = order.pop()
        if node._backprop is not None:
            node._backprop(node)
            node._backprop, node._parents, node._grad = None, (), None
            node._released = True


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

_ACTIVATIONS = ("relu", "identity")


def _check_activation(kind: str) -> None:
    if kind not in _ACTIVATIONS:
        raise ValueError(f"unknown activation kind {kind!r}")


def activation(x: Node, kind: str = "relu") -> Node:
    """Elementwise nonlinearity. Kinds: relu (max(0, v)), identity."""
    _check_activation(kind)
    if kind == "identity":
        return Node(x.value, (x,), lambda out: x._accumulate(out.grad))
    value = Tensor4(np.maximum(x.value.zyxc, 0.0))

    def backprop(out: Node) -> None:
        x._accumulate(out.grad * (x.value.zyxc > 0.0))

    return Node(value, (x,), backprop)


def concat_channels(a: Node, b: Node) -> Node:
    """``a``'s channels, then ``b``'s: what ``conv3d`` reads a tuple ``(a, b)`` as."""
    if a.value.shape.spatial != b.value.shape.spatial:
        raise ValueError(f"spatial mismatch: {a.value.shape.spatial} vs {b.value.shape.spatial}")
    value = Tensor4(np.concatenate([a.value.zyxc, b.value.zyxc], axis=3))
    ca = a.value.shape.c

    def backprop(out: Node) -> None:
        a._accumulate(out.grad[:, :, :, :ca])
        b._accumulate(out.grad[:, :, :, ca:])

    return Node(value, (a, b), backprop)


# ---------------------------------------------------------------------------
# shuffles as graph ops
# ---------------------------------------------------------------------------

def _shuffle_op(x: Node, factors: tuple[int, int, int], forward, inverse) -> Node:
    """``forward(x)``; its backward is ``inverse``, the adjoint of a permutation."""
    return Node(forward(x.value, factors), (x,),
                lambda out: x._accumulate(inverse(Tensor4(out.grad), factors).zyxc))


def down_shuffle_op(x: Node, factors: tuple[int, int, int]) -> Node:
    return _shuffle_op(x, factors, down_shuffle, up_shuffle)


def up_shuffle_op(x: Node, factors: tuple[int, int, int]) -> Node:
    return _shuffle_op(x, factors, up_shuffle, down_shuffle)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

_SLAB_ROWS = 4096  # grid rows a conv3d forward slab may hold, halo planes included


def _channel_slices(nodes: tuple[Node, ...], a: np.ndarray):
    """Each node with its slice of ``a``'s channels, in order."""
    start = 0
    for node in nodes:
        yield node, a[..., start : start + node.shape.c]
        start += node.shape.c


def conv3d(x: Node | tuple[Node, ...], weight: Node, bias: Node, act: str = "identity") -> Node:
    """Cross-correlate ``x`` with a filter bank at stride 1, same padding, then apply ``act``.

    ``x`` is one node or a tuple of nodes with equal extents, read as their
    channel concatenation in order without building it. ``weight`` has Tensor4
    shape (kx, ky, kz, c_in*c_out), odd extents, with channel index
    ci * c_out + co; ``bias`` has shape (1, 1, 1, c_out).

    The input is laid on a grid of rows of stride X = x + px and planes of
    stride P = (y + py) * X: the zeros after a row or plane are also the pad
    before the next. The forward runs in z-slabs of whole output planes, at
    most half of them (one slab would hold the whole grid beside the output)
    and, when more than one plane fits, at most ``_SLAB_ROWS`` grid rows, halo
    planes included. Each slab fills its own grid, runs the tap GEMMs into its
    own accumulator and writes its valid rows through the activation into the
    output. The backward fills the whole grid once. Its weight-gradient GEMMs
    run in row blocks of at most 10**6 // (c_in * c_out) rows: OpenBLAS
    (0.3.30, SkylakeX) computes a GEMM of at most 10**6 multiply-adds on one
    thread with its small-matrix kernel, so their bits do not depend on the
    BLAS thread count. The input-gradient GEMMs run in 2048-row blocks, whose
    bits were the same under 1 and 2 threads at every shape tried.
    """
    _check_activation(act)
    xs = x if isinstance(x, tuple) else (x,)
    kx, ky, kz = kernel = weight.value.shape.spatial
    if any(k % 2 == 0 for k in kernel):
        raise ValueError(f"same padding needs odd kernel extents, got {kernel}")
    if any(node.shape.spatial != xs[0].shape.spatial for node in xs):
        raise ValueError(f"spatial mismatch: {[node.shape.spatial for node in xs]}")
    c_out = bias.value.shape.c
    c_in = weight.value.shape.c // c_out
    if sum(node.shape.c for node in xs) != c_in:
        raise ValueError(f"channel mismatch: inputs have {[node.shape.c for node in xs]}, "
                         f"filter expects {c_in} in all")
    px, py, pz = kx // 2, ky // 2, kz // 2
    oz, oy, ox = xs[0].value.zyxc.shape[:3]  # same padding: also the output's extents
    X, P = ox + px, (oy + py) * (ox + px)
    lead = py * X + px  # the zeros before a grid's first plane starts
    offsets = [dz * P + dy * X + dx for dz, dy, dx in np.ndindex(kz, ky, kx)]
    taps = weight.value.zyxc.reshape(kz * ky * kx, c_in, c_out)

    def voxels(a: np.ndarray, start: int, planes: int) -> np.ndarray:
        """The voxels of ``planes`` grid planes of ``a`` from row ``start`` on."""
        return a[start : start + planes * P].reshape(planes, oy + py, X, -1)[:, :oy, :ox]

    def grid(z0: int, z1: int) -> np.ndarray:
        """Input planes z0 - pz .. z1 + pz - 1 on the grid, zero outside the input."""
        flat = np.zeros(((z1 - z0 + 2 * pz) * P + lead, c_in))
        lo, hi = max(0, z0 - pz), min(oz, z1 + pz)
        for node, part in _channel_slices(xs, voxels(flat, (lo - z0 + pz) * P + lead, hi - lo)):
            part[...] = node.value.zyxc[lo:hi]
        return flat

    value = np.empty((oz, oy, ox, c_out))
    depth = max(1, min((oz + 1) // 2, (_SLAB_ROWS - lead) // P - 2 * pz))
    for z0 in range(0, oz, depth):
        z1 = min(oz, z0 + depth)
        flat, n = grid(z0, z1), (z1 - z0 - 1) * P + (oy - 1) * X + ox
        acc = np.empty(((z1 - z0) * P, c_out))  # the rows past n are gaps
        acc[...] = bias.value.zyxc[0, 0, 0]
        for t, o in enumerate(offsets):  # acc[:n] += flat[o:o+n] @ taps[t], in place
            dgemm(1.0, taps[t].T, flat[o : o + n].T, beta=1.0, c=acc[:n].T, overwrite_c=True)
        del flat
        if act == "relu":
            np.maximum(voxels(acc, 0, z1 - z0), 0.0, out=value[z0:z1])
        else:
            value[z0:z1] = voxels(acc, 0, z1 - z0)
        del acc  # before the next slab's grid

    def backprop(out_node: Node) -> None:
        g = out_node.grad  # (oz, oy, ox, c_out); the node's own, so masked in place
        if act == "relu":  # value > 0 exactly where the pre-activation is
            g *= out_node.value.zyxc > 0.0
        bias._accumulate(g.sum(axis=(0, 1, 2)).reshape(bias.value.zyxc.shape))
        gmat = np.zeros((oz * P, c_out))
        voxels(gmat, 0, oz)[...] = g
        del g
        out_node.grad = None  # gmat holds the one full-size copy from here on
        n = (oz - 1) * P + (oy - 1) * X + ox  # the first output voxel's row to the last's

        def blocks(size: int):  # row blocks of g outermost: a block stays in cache over all taps
            return [(s, min(n, s + size), t, o) for s in range(0, n, size)
                    for t, o in enumerate(offsets)]

        flat = grid(0, oz)
        gw = np.zeros_like(taps)
        for s, e, t, o in blocks(max(1, 10 ** 6 // (c_in * c_out))):
            dgemm(1.0, gmat[s:e].T, flat[o + s : o + e].T, trans_b=1, beta=1.0,
                  c=gw[t].T, overwrite_c=True)  # dW[t] += flat[o+s:o+e]^T @ g[s:e]
        del flat
        weight._accumulate(gw.reshape(weight.value.zyxc.shape))
        if any(node._needs_grad for node in xs):
            gflat = np.zeros(((oz + 2 * pz) * P + lead, c_in))
            for s, e, t, o in blocks(2048):  # dX[o+s:o+e] += g[s:e] @ W[t]^T
                dgemm(1.0, taps[t].T, gmat[s:e].T, trans_a=1, beta=1.0,
                      c=gflat[o + s : o + e].T, overwrite_c=True)
            for node, part in _channel_slices(xs, voxels(gflat, pz * P + lead, oz)):
                if node._needs_grad:
                    node._accumulate(part)

    return Node(Tensor4(value), (*xs, weight, bias), backprop)


# ---------------------------------------------------------------------------
# pooling / softmax / loss
# ---------------------------------------------------------------------------

def maxpool3(x: Node, factors: tuple[int, int, int]) -> Node:
    """Per-window maximum with window = stride = factors.

    Gradient goes to the first maximum (or first NaN) in buffer layout order.
    """
    ox, oy, oz = divide_extents(x.value.shape.spatial, factors, "pool")
    fx, fy, fz = factors
    C = x.value.shape.c

    def slot_views(a: np.ndarray) -> list[np.ndarray]:  # (oz, oy, ox, C) each, in layout order
        blocks = a.reshape(oz, fz, oy, fy, ox, fx, C)
        return [blocks[:, dz, :, dy, :, dx] for dz, dy, dx in np.ndindex(fz, fy, fx)]

    slots = slot_views(x.value.zyxc)
    best = slots[0].copy()
    for s in slots[1:]:
        np.maximum(s, best, out=best)  # a tie keeps the second argument, the earlier slot

    def backprop(out: Node) -> None:
        slots, best = slot_views(x.value.zyxc), out.value.zyxc
        first = np.zeros(best.shape, dtype=np.min_scalar_type(len(slots) - 1))
        for w in range(len(slots) - 1, -1, -1):
            np.copyto(first, w, where=(slots[w] == best) | np.isnan(slots[w]))
        gx = np.zeros_like(x.value.zyxc)
        for w, slot in enumerate(slot_views(gx)):
            np.copyto(slot, out.grad, where=first == w)
        x._accumulate(gx)

    return Node(Tensor4(best), (x,), backprop)


def _channel_fold(op, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=3)`` bit for bit, as one elementwise ``op`` per channel: numpy
    reduces fewer than eight channels in this order (from eight on, pairwise)."""
    if a.shape[3] >= 8:
        return op.reduce(a, axis=3)
    out = a[..., 0].copy()
    for c in range(1, a.shape[3]):
        op(out, a[..., c], out=out)
    return out


def softmax_channels(x: Node) -> Node:
    """Per-voxel channel distribution, stabilized by max subtraction. Without a graph
    (``predict``) it is computed in the logits' own buffer."""
    a = x.value.zyxc
    p = np.subtract(a, _channel_fold(np.maximum, a)[..., None], out=None if _recording else a)
    np.exp(p, out=p)
    p /= _channel_fold(np.add, p)[..., None]
    value = Tensor4(p)

    def backprop(out: Node) -> None:
        g = out.grad  # released once this returns, so it becomes x's gradient in place
        if g.shape[3] >= 8:
            inner = np.add.reduce(g * p, axis=3)
        else:  # _channel_fold of g * p, one channel product at a time
            inner = g[..., 0] * p[..., 0]
            for c in range(1, g.shape[3]):
                inner += g[..., c] * p[..., c]
        g -= inner[..., None]
        g *= p
        x._accumulate(g)

    return Node(value, (x,), backprop)


_DICE_SMOOTH = 1e-5
_PROB_FLOOR = 1e-12


def ce_dice_loss(probs: Node, labels: Tensor4, lam_ce: float = 1.0,
                 lam_dice: float = 1.0) -> Node:
    """Weighted sum of mean voxelwise cross-entropy and soft-Dice losses.

    ``labels`` is the integer-coded (x, y, z, 1) patch of class indices in
    [0, K), K being the channel count of ``probs``; the loss reads it as one
    boolean mask g per class. Soft Dice per foreground class is
    (2*sum(p*g) + smooth) / (sum(p) + sum(g) + smooth) with smooth = 1e-5; the
    Dice loss is one minus the mean over foreground classes (channel 0 is
    background). Probabilities are floored at 1e-12 inside the log only.
    """
    if labels.shape != probs.value.shape._replace(c=1):
        raise ValueError(f"shape mismatch: {probs.value.shape} vs {labels.shape}")
    K = probs.value.shape.c
    if K < 2:
        raise ValueError("need at least 2 classes (background + foreground)")
    check_label_values(labels.zyxc, K)

    p = probs.value.zyxc
    masks = [labels.zyxc[..., 0] == c for c in range(K)]  # contiguous; mask * x is x or a signed 0
    n_vox = masks[0].size
    log_p = np.log(np.maximum(p, _PROB_FLOOR))
    for c, mask in enumerate(masks):
        log_p[..., c] *= mask
    ce = -log_p.sum() / n_vox

    pairs = [(2.0 * (p[..., c] * masks[c]).sum() + _DICE_SMOOTH,
              p[..., c].sum() + masks[c].sum() + _DICE_SMOOTH) for c in range(1, K)]
    dice_mean = sum(num / denom for num, denom in pairs) / len(pairs)
    total = lam_ce * ce + lam_dice * (1.0 - dice_mean)
    value = Tensor4(np.array([[[[total]]]]))

    def backprop(out: Node) -> None:
        grad = np.empty_like(p)
        for c, mask in enumerate(masks):
            # cross-entropy: -(g & (p > floor)) / p, the bits of -(g / p) * (p > floor)
            grad_c = np.maximum(p[..., c], _PROB_FLOOR)
            np.divide(mask & (grad_c > _PROB_FLOOR), grad_c, out=grad_c)
            np.negative(grad_c, out=grad_c)
            grad_c *= lam_ce
            grad_c /= n_vox
            if c:  # soft Dice, foreground channels only
                num, denom = pairs[c - 1]
                grad_c -= lam_dice * ((2.0 * mask * denom - num) / (denom * denom)) / len(pairs)
            np.multiply(out.grad[0, 0, 0, 0], grad_c, out=grad[..., c])
        probs._accumulate(grad)

    return Node(value, (probs,), backprop)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------

class Conv3d:
    """Stride-1 filter bank + bias and a fixed activation; owns its parameter nodes.

    Padding is always "same": spatial extents are kept (odd kernels only).
    Weights are sampled N(0, sigma) and biases start at zero.
    """

    def __init__(self, c_in: int, c_out: int, rng: Rng,
                 kernel: tuple[int, int, int] = (3, 3, 3), sigma: float = 0.01,
                 act: str = "identity"):
        if c_in < 1 or c_out < 1:
            raise ValueError("channel counts must be >= 1")
        self.kernel = tuple(kernel)
        self.c_in = c_in
        self.c_out = c_out
        self.act = act
        self.weight = Node(Tensor4.gaussian(Shape4(*self.kernel, c_in * c_out), 0.0, sigma, rng))
        self.bias = Node(Tensor4.zeros(Shape4(1, 1, 1, c_out)))

    def __call__(self, x: Node | tuple[Node, ...]) -> Node:
        return conv3d(x, self.weight, self.bias, self.act)


class DownShuffleConv:
    """Periodic down-shuffle followed by a low-resolution convolution.

    Turns an (nx*d, ny*h, nz*w, C) input into (d, h, w, k) features while
    keeping every input element visible to the convolution.
    """

    def __init__(self, c_in: int, k: int, factors: tuple[int, int, int], rng: Rng,
                 kernel: tuple[int, int, int] = (3, 3, 3), act: str = "relu",
                 sigma: float = 0.01):
        self.factors = factors
        self.conv = Conv3d(c_in * math.prod(factors), k, kernel=kernel,
                           rng=rng, sigma=sigma, act=act)

    def __call__(self, x: Node) -> Node:
        return self.conv(down_shuffle_op(x, self.factors))


class ConvUpShuffle:
    """Low-resolution convolution producing factor-product channel groups,
    then periodic up-shuffle back to full resolution."""

    def __init__(self, c_in: int, c_out: int, factors: tuple[int, int, int], rng: Rng,
                 kernel: tuple[int, int, int] = (3, 3, 3), sigma: float = 0.01):
        self.factors = factors
        self.conv = Conv3d(c_in, c_out * math.prod(factors), kernel=kernel,
                           rng=rng, sigma=sigma)

    def __call__(self, x: Node) -> Node:
        low = self.conv(x)
        out = up_shuffle_op(low, self.factors)
        low.value = None  # read by neither backward: the conv's act is the identity
        return out


# ---------------------------------------------------------------------------
# backbone
# ---------------------------------------------------------------------------

@dataclass
class BackboneSpec:
    """Topology of the shuffle-wrapped U-net.

    ``widths`` gives the encoder feature width per level (depth = len);
    ``pool`` is the per-axis pooling factor between levels; ``factors`` wraps
    the whole net in a down-shuffle stem and an up-shuffle head.
    """

    class_count: int
    factors: tuple[int, int, int] = (1, 1, 1)
    stem_channels: int = 64
    widths: tuple[int, ...] = (32, 64, 128)
    pool: tuple[int, int, int] = (2, 2, 2)
    init_sigma: float = 0.01

    def validate(self) -> "BackboneSpec":
        if self.class_count < 2:
            raise ValueError("class_count must be >= 2")
        if self.stem_channels < 1:
            raise ValueError("stem_channels must be >= 1")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError(f"bad encoder widths {self.widths}")
        if min(*self.factors, *self.pool) < 1:
            raise ValueError(f"factors {self.factors} and pool {self.pool} must be >= 1")
        return self

    @property
    def depth(self) -> int:
        return len(self.widths)

    def check_input_extents(self, extents: tuple[int, int, int]) -> None:
        """Raise unless extents survive the stem shuffle and all poolings."""
        extents = divide_extents(extents, self.factors, "shuffle")
        for _ in range(self.depth - 1):
            extents = divide_extents(extents, self.pool, "pool")


class ShuffleUNet3d:
    """Down-shuffle stem, U-net style encoder/decoder with skip concatenation,
    conv+up-shuffle head, softmax output. Input patches have one channel.

    With factors (1, 1, 1) at both ends this is a plain U-net baseline.
    Each forward pass records the element count of every backbone activation
    (stem output through the last decoder feature map) in
    ``last_activation_counts`` for cost instrumentation; ``cat{j}`` counts the
    skip and up branches that decoder conv j reads as one concatenation.
    """

    def __init__(self, spec: BackboneSpec, rng: Rng):
        spec = spec.validate()
        self.spec = spec
        widths = spec.widths
        self.stem = DownShuffleConv(1, spec.stem_channels, spec.factors,
                                    rng.spawn(0), sigma=spec.init_sigma)
        self.enc: list[Conv3d] = []
        prev = spec.stem_channels
        for i, w in enumerate(widths):
            self.enc.append(Conv3d(prev, w, rng=rng.spawn(1 + i), sigma=spec.init_sigma,
                                   act="relu"))
            prev = w
        self.ups: list[ConvUpShuffle] = []
        self.dec: list[Conv3d] = []
        for i in range(spec.depth - 2, -1, -1):
            self.ups.append(ConvUpShuffle(widths[i + 1], widths[i], spec.pool,
                                          rng.spawn(100 + i), kernel=(1, 1, 1),
                                          sigma=spec.init_sigma))
            self.dec.append(Conv3d(2 * widths[i], widths[i], rng=rng.spawn(200 + i),
                                   sigma=spec.init_sigma, act="relu"))
        self.head = ConvUpShuffle(widths[0], spec.class_count, spec.factors,
                                  rng.spawn(999), sigma=spec.init_sigma)
        self.last_activation_counts: list[tuple[str, int]] = []

    # -- parameters ---------------------------------------------------------

    def parameters(self) -> "OrderedDict[str, Node]":
        """``<layer>.weight`` and ``<layer>.bias`` per conv; the order fixes the checkpoint."""
        convs = [("stem", self.stem.conv), *((f"enc{i}", c) for i, c in enumerate(self.enc)),
                 *((f"up{i}", u.conv) for i, u in enumerate(self.ups)),
                 *((f"dec{i}", c) for i, c in enumerate(self.dec)), ("head", self.head.conv)]
        return OrderedDict((f"{prefix}.{name}", node) for prefix, conv in convs
                           for name, node in (("weight", conv.weight), ("bias", conv.bias)))

    def zero_grad(self) -> None:
        for node in self.parameters().values():
            node.grad = None

    # -- forward ------------------------------------------------------------

    def forward(self, patch: Tensor4) -> Node:
        """Class probability map for one patch (softmax over channels)."""
        self.spec.check_input_extents(patch.shape.spatial)
        x = Node(patch)
        x._needs_grad = False  # input data: nothing reads its gradient
        acts: list[tuple[str, int]] = []

        def track(label: str, node: Node) -> Node:
            acts.append((label, node.value.size))
            return node

        x = track("stem", self.stem(x))
        skips: list[Node] = []
        for i, layer in enumerate(self.enc):
            x = track(f"enc{i}", layer(x))
            if i < self.spec.depth - 1:
                skips.append(x)
                x = track(f"pool{i}", maxpool3(x, self.spec.pool))
        for j, (up, dec) in enumerate(zip(self.ups, self.dec)):
            # the decoder conv reads the skip and up branches as one concatenation
            x = (skips.pop(), track(f"up{j}", up(x)))
            acts.append((f"cat{j}", sum(node.value.size for node in x)))
            x = track(f"dec{j}", dec(x))
        logits = self.head(x)
        probs = softmax_channels(logits)
        logits.value = None
        self.last_activation_counts = acts
        return probs

    def predict(self, patch: Tensor4) -> Tensor4:
        """``forward(patch).value``, computed without recording a graph."""
        global _recording
        _recording = False
        try:
            return self.forward(patch).value
        finally:
            _recording = True


# Only perfbench calls this alias; it goes with the next benchmark edit.
build_backbone = ShuffleUNet3d


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"VCKP"
_CKPT_VERSION = 1


class CheckpointError(Exception):
    """Malformed checkpoint file, or one that does not fit the network."""


class NonFiniteWeightsError(CheckpointError):
    """A checkpoint parameter holds NaN or infinite values."""


def save_checkpoint(path, params: Mapping[str, Node]) -> None:
    """Write parameters as little-endian records: magic, u32 version, then
    (u32 name length, utf-8 name, 4 x u32 extents, raw float64 data) each."""
    parts = [_CKPT_MAGIC, struct.pack("<I", _CKPT_VERSION)]
    for name, node in params.items():
        encoded = name.encode("utf-8")
        parts += [struct.pack("<I", len(encoded)), encoded,
                  struct.pack("<4I", *node.value.shape),
                  node.value.flat.astype("<f8", copy=False)]
    write_atomic(path, parts)


def load_checkpoint(path) -> "OrderedDict[str, Tensor4]":
    """Read the records in file order, each payload straight into its tensor."""
    try:
        with open(path, "rb") as f:
            head, size = f.read(8), os.fstat(f.fileno()).st_size
            if head[:4] != _CKPT_MAGIC:
                raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
            if head[4:8] != struct.pack("<I", _CKPT_VERSION):
                raise CheckpointError(f"{path}: unsupported checkpoint version")
            params: OrderedDict[str, Tensor4] = OrderedDict()
            while (offset := f.tell()) < size:
                try:
                    (name_len,) = struct.unpack("<I", f.read(4))
                    name = read_payload(f, (name_len,), "u1").tobytes().decode("utf-8")
                    shape = Shape4(*struct.unpack("<4I", f.read(16))).validate()
                    values = read_payload(f, (shape.z, shape.y, shape.x, shape.c), "<f8")
                except UnicodeDecodeError as exc:
                    raise CheckpointError(f"{path}: parameter name is not UTF-8") from exc
                except (struct.error, ValueError) as exc:
                    raise CheckpointError(f"{path}: bad record at byte {offset}: {exc}") from exc
                if name in params:
                    raise CheckpointError(f"{path}: duplicate parameter name {name!r}")
                if not (math.isfinite(values.min()) and math.isfinite(values.max())):
                    raise NonFiniteWeightsError(f"{path}: parameter {name!r} holds NaN or "
                                                "infinite weights")
                params[name] = Tensor4(values)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    return params


def load_into_network(net: ShuffleUNet3d, params: Mapping[str, Tensor4]) -> None:
    """All or nothing: check every name and shape, then the network takes ownership of
    the checkpoint tensors (no copy), so the caller must not use them afterwards."""
    own = net.parameters()
    if set(own) != set(params):
        missing = sorted(set(own) - set(params))
        extra = sorted(set(params) - set(own))
        raise CheckpointError(
            f"parameter names do not match network (missing {missing}, unexpected {extra})"
        )
    for name, node in own.items():
        if params[name].shape != node.value.shape:
            raise CheckpointError(
                f"shape mismatch for {name}: checkpoint {params[name].shape} "
                f"vs network {node.value.shape}"
            )
    for name, node in own.items():
        node.value = params[name]
        node.grad = None
