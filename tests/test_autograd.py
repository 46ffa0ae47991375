import math
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import dgemm

from conftest import (fd_gradient_error, from_flat, full, same_bits, tensors_equal,
                      traced_peak)
from voxseg.nn import (BackboneSpec, Conv3d, Node, activation, backward,
                       ShuffleUNet3d, ce_dice_loss, concat_channels, conv3d,
                       down_shuffle_op, maxpool3, softmax_channels, up_shuffle_op)
from voxseg.tensor import Rng, Shape4, Tensor4

GRAD_TOL = 1e-6


def scalar(v):
    return Node(from_flat(Shape4(1, 1, 1, 1), [v]))


def zero_fill_then_add(shape, *parts):
    """A gradient as a zero fill followed by one ``+=`` per contribution. Oracle only."""
    grad = np.zeros(shape)
    for part in parts:
        grad += part
    return grad


def signed_zeros_and_nan(shape, seed):
    """Normal samples with about a fifth of them -0.0 and the first one NaN."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.2] = -0.0
    a.flat[0] = np.nan
    return a


class TestEngine:
    def test_product_rule_on_scalars(self):
        # a 1x1x1 convolution of one voxel and one channel is the product x * y
        x, y = scalar(3.0), scalar(4.0)
        backward(conv3d(x, y, scalar(0.0)))
        assert x.grad[0, 0, 0, 0] == 4.0
        assert y.grad[0, 0, 0, 0] == 3.0

    def test_grads_start_at_zero(self):
        node = Node(Tensor4.gaussian(Shape4(2, 2, 2, 1), 0, 1, Rng(1)))
        assert not node.grad.any()

    def test_first_gradient_has_zero_fill_bits(self):
        # an adopted first gradient is 0.0 + g, as a zero fill plus g was:
        # the masked-out -0.0 becomes +0.0, NaN and inf pass through
        x = Node(from_flat(Shape4(4, 1, 1, 1), [-1.0, 2.0, 3.0, -4.0]))
        seed = np.array([-1.0, -2.0, np.nan, np.inf]).reshape(1, 1, 4, 1)
        with np.errstate(invalid="ignore"):
            backward(activation(x, "relu"), seed)
            want = np.zeros(seed.shape)
            want += seed * (x.value.zyxc > 0.0)
        assert not np.signbit(x.grad[0, 0, 0, 0]) and same_bits(x.grad, want)

    def test_identity_hands_over_zero_fill_bits(self):
        x = Node(Tensor4.zeros(Shape4(4, 3, 2, 2)))
        seed = signed_zeros_and_nan((2, 3, 4, 2), 41)
        backward(activation(x, "identity"), seed)
        assert same_bits(x.grad, zero_fill_then_add(seed.shape, seed))

    def test_non_scalar_root_rejected(self):
        node = Node(Tensor4.zeros(Shape4(2, 1, 1, 1)))
        with pytest.raises(ValueError):
            backward(node)

    def test_double_backward_rejected(self):
        root = activation(scalar(2.0), "identity")
        backward(root)
        with pytest.raises(RuntimeError):
            backward(root)

    def test_shared_node_accumulates(self):
        x = Node(Tensor4.gaussian(Shape4(2, 3, 2, 2), 0, 1, Rng(2)))
        g = Tensor4.gaussian(Shape4(2, 3, 2, 4), 0, 1, Rng(3)).zyxc
        backward(concat_channels(x, x), g)
        assert np.array_equal(x.grad, g[..., :2] + g[..., 2:])

    def test_scale_and_sum(self):
        # seeding with 3 everywhere backpropagates 3 * sum(x)
        t = Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, Rng(2))
        x = Node(t)
        backward(x, full(t.shape, 3.0).zyxc)
        assert (x.grad == 3.0).all()

    def test_half_seed_halves_every_gradient_exactly(self):
        spec = BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=2,
                            widths=(2, 3), pool=(2, 2, 2), init_sigma=0.2)
        x = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(40))
        labels = label_patch(Rng(41).randint(0, 2, 8 ** 3).reshape(8, 8, 8))
        grads = []
        for seed in (None, 0.5):
            net = ShuffleUNet3d(spec, Rng(42))
            backward(ce_dice_loss(net.forward(x), labels), seed)
            grads.append({name: node.grad for name, node in net.parameters().items()})
        full_grads, half_grads = grads
        for name, g in full_grads.items():
            assert g.any(), name
            assert np.array_equal(half_grads[name], 0.5 * g), name

    def test_backward_releases_interior_nodes(self):
        spec = BackboneSpec(class_count=2, factors=(1, 1, 1), stem_channels=2,
                            widths=(2, 3), pool=(2, 2, 2), init_sigma=0.2)
        x = Tensor4.gaussian(Shape4(4, 4, 4, 1), 0, 1, Rng(43))
        labels = label_patch(Rng(44).randint(0, 2, 4 ** 3).reshape(4, 4, 4))
        grads = []
        for _ in range(2):
            net = ShuffleUNet3d(spec, Rng(45))
            root = ce_dice_loss(net.forward(x), labels)
            interior, stack = [], [root]
            while stack:
                node = stack.pop()
                if node._parents:
                    interior.append(node)
                    stack.extend(node._parents)
            backward(root)
            assert all(n._backprop is None and not n._parents and n._grad is None
                       for n in interior)
            grads.append({name: node._grad for name, node in net.parameters().items()})
        for name, g in grads[0].items():
            assert g.any(), name
            assert np.array_equal(grads[1][name], g), name

    def test_released_shared_subgraph_rejected(self):
        # two roots over one conv: the first backward releases the conv node,
        # so the second cannot reach the parameters through it
        rng = Rng(46)
        x = Node(Tensor4.gaussian(Shape4(3, 3, 3, 1), 0, 1, rng))
        w = Node(Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, rng))
        b = Node(Tensor4.zeros(Shape4(1, 1, 1, 2)))
        shared = conv3d(x, w, b)
        first, second = activation(shared, "relu"), activation(shared, "identity")
        ones = np.ones(shared.value.zyxc.shape)
        backward(first, ones)
        before = w.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            backward(second, ones)
        assert np.array_equal(w.grad, before)

    @pytest.mark.parametrize("seed_shape", [(1, 1, 1, 2), (2, 1, 1, 1, 1), (2,)])
    def test_seed_shape_must_fit_root(self, seed_shape):
        root = Node(Tensor4.zeros(Shape4(2, 1, 1, 1)))
        with pytest.raises(ValueError):
            backward(root, np.ones(seed_shape))
        with pytest.raises(ValueError):
            backward(scalar(1.0), np.ones(seed_shape))


class TestActivation:
    def test_relu_values(self):
        t = from_flat(Shape4(2, 1, 1, 1), [-1.0, 2.0])
        assert activation(Node(t), "relu").value.flat.tolist() == [0.0, 2.0]

    def test_relu_gradient_signs(self):
        t = from_flat(Shape4(2, 1, 1, 1), [-1.0, 2.0])
        x = Node(t)
        backward(activation(x, "relu"), np.ones(x.grad.shape))
        assert x.grad.reshape(-1).tolist() == [0.0, 1.0]

    def test_identity_kind(self):
        t = Tensor4.gaussian(Shape4(2, 2, 2, 1), 0, 1, Rng(3))
        assert tensors_equal(activation(Node(t), "identity").value, t)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            activation(scalar(1.0), "swish")

    def test_fd_away_from_kink(self):
        vals = Rng(4).normal(16)
        vals += np.sign(vals) * 0.25  # keep clear of the origin
        t = from_flat(Shape4(2, 2, 2, 2), vals)
        proj = Tensor4.gaussian(t.shape, 0, 1, Rng(5)).zyxc
        assert fd_gradient_error(lambda l: activation(l[0], "relu"), [t], proj) < GRAD_TOL


class TestConv3d:
    def test_one_by_one_identity(self):
        t = Tensor4.gaussian(Shape4(3, 4, 2, 1), 0, 1, Rng(6))
        out = conv3d(Node(t), scalar(1.0), scalar(0.0))
        assert tensors_equal(out.value, t)

    def test_all_ones_counts_in_bounds_taps(self):
        # same padding: each output sums the taps that land inside the input,
        # 3 per axis in the middle and 2 at a face
        ones = Node(full(Shape4(3, 3, 3, 1), 1.0))
        out = conv3d(Node(full(Shape4(3, 3, 3, 1), 1.0)), ones, scalar(0.0))
        assert out.value.shape == Shape4(3, 3, 3, 1)
        for x, y, z in np.ndindex(3, 3, 3):
            want = math.prod(3 if i == 1 else 2 for i in (x, y, z))
            assert out.value.at(x, y, z, 0) == want

    def test_same_padding_keeps_extents(self):
        layer = Conv3d(2, 3, rng=Rng(7))
        out = layer(Node(Tensor4.gaussian(Shape4(4, 5, 6, 2), 0, 1, Rng(8))))
        assert out.value.shape == Shape4(4, 5, 6, 3)

    @pytest.mark.parametrize("kernel", [(2, 3, 3), (3, 4, 3), (1, 1, 2)])
    def test_even_kernel_weight_rejected(self, kernel):
        x = Node(Tensor4.zeros(Shape4(4, 4, 4, 1)))
        with pytest.raises(ValueError, match="odd kernel extents"):
            conv3d(x, Node(Tensor4.zeros(Shape4(*kernel, 1))), scalar(0.0))
        with pytest.raises(ValueError, match="odd kernel extents"):
            Conv3d(1, 1, rng=Rng(0), kernel=kernel)(x)

    def test_channel_mismatch(self):
        layer = Conv3d(2, 1, rng=Rng(9))
        with pytest.raises(ValueError):
            layer(Node(Tensor4.zeros(Shape4(4, 4, 4, 3))))

    def test_fd_same_padding(self):
        rng = Rng(10)
        x = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, rng)
        w = Tensor4.gaussian(Shape4(3, 3, 3, 4), 0, 0.5, rng)
        b = Tensor4.gaussian(Shape4(1, 1, 1, 2), 0, 0.5, rng)
        proj = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, Rng(11)).zyxc

        def build(leaves):
            return conv3d(leaves[0], leaves[1], leaves[2])

        assert fd_gradient_error(build, [x, w, b], proj) < GRAD_TOL


def conv_oracle(x, w, b):
    """Direct nested-sum cross-correlation on zyxc arrays, zero-padded by k // 2
    per axis; also returns the weight gradient for an output gradient ``g`` via
    the same index map."""
    kz, ky, kx = w.shape[:3]
    padding = (kx // 2, ky // 2, kz // 2)
    c_in, c_out = x.shape[3], b.shape[3]
    w5 = w.reshape(kz, ky, kx, c_in, c_out)
    Z, Y, X = x.shape[:3]
    oz, oy, ox = (e + 2 * p - k + 1 for e, k, p in
                  zip((Z, Y, X), (kz, ky, kx), padding[::-1]))
    pairs = []  # (output index, input index, tap index) of every in-bounds product
    for z, y, xx in np.ndindex(oz, oy, ox):
        for dz, dy, dx in np.ndindex(kz, ky, kx):
            iz = z + dz - padding[2]
            iy = y + dy - padding[1]
            ix = xx + dx - padding[0]
            if 0 <= iz < Z and 0 <= iy < Y and 0 <= ix < X:
                pairs.append(((z, y, xx), (iz, iy, ix), (dz, dy, dx)))
    out = np.zeros((oz, oy, ox, c_out)) + b[0, 0, 0]
    for o, i, t in pairs:
        out[o] += x[i] @ w5[t]

    def weight_grad(g):
        gw = np.zeros_like(w5)
        for o, i, t in pairs:
            gw[t] += np.outer(x[i], g[o])
        return gw.reshape(w.shape)

    return out, weight_grad


def assert_rel_close(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


CONV_CASES = [
    # (input extents x,y,z), c_in, c_out, kernel
    ((5, 4, 6), 1, 3, (3, 3, 3)),
    ((4, 5, 3), 2, 1, (3, 3, 3)),
    ((3, 4, 5), 3, 2, (1, 1, 1)),
    ((3, 2, 4), 2, 2, (1, 1, 1)),
    ((5, 4, 5), 2, 3, (3, 3, 3)),
    ((6, 5, 4), 1, 1, (5, 3, 3)),
    ((4, 6, 5), 2, 2, (3, 1, 5)),
    ((2, 4, 3), 1, 2, (5, 3, 1)),  # a kernel longer than the input along x
]


class TestConv3dOracle:
    @pytest.mark.parametrize("extents,c_in,c_out,kernel", CONV_CASES)
    def test_forward_and_backward_match_direct_sums(self, extents, c_in, c_out, kernel):
        rng = Rng(30 + sum(extents) + 7 * c_in + c_out)
        x = Node(Tensor4.gaussian(Shape4(*extents, c_in), 0, 1, rng))
        w = Node(Tensor4.gaussian(Shape4(*kernel, c_in * c_out), 0, 1, rng))
        b = Node(Tensor4.gaussian(Shape4(1, 1, 1, c_out), 0, 1, rng))
        out = conv3d(x, w, b)
        want, weight_grad = conv_oracle(x.value.zyxc, w.value.zyxc, b.value.zyxc)
        assert_rel_close(out.value.zyxc, want)

        g = Tensor4.gaussian(out.value.shape, 0, 1, rng)
        backward(out, g.zyxc)
        # adjoint identity for the linear part: <conv(x) - b, g> = <x, dX(g)>
        lhs = ((out.value.zyxc - b.value.zyxc[0, 0, 0]) * g.zyxc).sum()
        rhs = (x.value.zyxc * x.grad).sum()
        assert abs(lhs - rhs) <= 1e-12 * (np.abs(out.value.zyxc * g.zyxc).sum()
                                          + np.abs(x.value.zyxc * x.grad).sum())
        assert_rel_close(w.grad, weight_grad(g.zyxc))
        assert_rel_close(b.grad[0, 0, 0], g.zyxc.sum(axis=(0, 1, 2)))

    def test_backward_accumulates_into_existing_gradients(self):
        rng = Rng(31)
        x = Node(Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, rng))
        w = Node(Tensor4.gaussian(Shape4(3, 3, 3, 6), 0, 1, rng))
        b = Node(Tensor4.zeros(Shape4(1, 1, 1, 3)))
        ones = np.ones((4, 4, 4, 3))
        backward(conv3d(x, w, b), ones)
        once_x, once_w = x.grad.copy(), w.grad.copy()
        backward(conv3d(x, w, b), ones)
        assert_rel_close(x.grad, 2 * once_x)
        assert_rel_close(w.grad, 2 * once_w)

    def test_bias_gradient_bits_match_zero_fill_oracle(self):
        # numpy's sum starts from +0.0, so an all -0.0 output channel gives +0.0 as
        # a zero fill would; a NaN passes through, and a second pass adds to the first
        x = Node(Tensor4.zeros(Shape4(3, 2, 2, 1)))
        w, b = (Node(Tensor4.zeros(Shape4(1, 1, 1, 3))) for _ in range(2))
        grads = [signed_zeros_and_nan((2, 2, 3, 3), s) for s in (44, 45)]
        for g in grads:
            g[..., 0] = -0.0
            g[0, 0, 0, 1] = np.nan
        for g in grads:
            backward(conv3d(x, w, b), g)
        want = zero_fill_then_add(b.grad.shape, *(g.sum(axis=(0, 1, 2)) for g in grads))
        assert same_bits(b.grad, want)
        assert not np.signbit(b.grad[0, 0, 0, 0]) and np.isnan(b.grad[0, 0, 0, 1])

    def test_input_without_gradient_skips_dx(self):
        rng = Rng(32)
        xt = Tensor4.gaussian(Shape4(5, 4, 3, 2), 0, 1, rng)
        wt = Tensor4.gaussian(Shape4(3, 3, 3, 6), 0, 1, rng)
        bt = Tensor4.gaussian(Shape4(1, 1, 1, 3), 0, 1, rng)
        g = Tensor4.gaussian(Shape4(5, 4, 3, 3), 0, 1, rng).zyxc
        grads = []
        for needs_grad in (True, False):
            x, w, b = Node(xt), Node(wt), Node(bt)
            x._needs_grad = needs_grad
            backward(conv3d(x, w, b), g)
            assert (x._grad is None) == (not needs_grad)
            grads.append((w.grad, b.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])



def unfused_conv_relu(x, weight, bias, act):
    """conv3d as it ran before the activation moved into it: the closure keeps
    the padded input, dW and dX interleave per row block, and a ReLU is a node
    of its own masked by the pre-activation. Oracle only."""
    kx, ky, kz = weight.value.shape.spatial
    c_out = bias.value.shape.c
    c_in = weight.value.shape.c // c_out
    px, py, pz = kx // 2, ky // 2, kz // 2
    xp = np.pad(x.value.zyxc, ((pz, pz), (py, py), (px, px), (0, 0)))
    Z, Y, X, _ = xp.shape
    valid = np.s_[:, : Y - ky + 1, : X - kx + 1]
    flat = xp.reshape(-1, c_in)
    taps = weight.value.zyxc.reshape(kz * ky * kx, c_in, c_out)
    offsets = [(dz * Y + dy) * X + dx for dz, dy, dx in np.ndindex(kz, ky, kx)]
    grid = (Z - kz + 1, Y, X)
    n = (Z - kz) * Y * X + (Y - ky) * X + (X - kx) + 1
    acc = np.tile(bias.value.zyxc[0, 0, 0], (grid[0] * Y * X, 1))
    for t, o in enumerate(offsets):
        dgemm(1.0, taps[t].T, flat[o : o + n].T, beta=1.0, c=acc[:n].T, overwrite_c=True)

    def backprop(out_node):
        g = out_node.grad
        bias.grad[0, 0, 0, :] += g.sum(axis=(0, 1, 2))
        gacc = np.zeros((*grid, c_out))
        gacc[valid] = g
        gmat = gacc.reshape(-1, c_out)
        gw = np.zeros_like(taps)
        gflat = np.zeros_like(flat)
        for s in range(0, n, 2048):
            e = min(n, s + 2048)
            for t, o in enumerate(offsets):
                dgemm(1.0, gmat[s:e].T, flat[o + s : o + e].T, trans_b=1, beta=1.0,
                      c=gw[t].T, overwrite_c=True)
                dgemm(1.0, taps[t].T, gmat[s:e].T, trans_a=1, beta=1.0,
                      c=gflat[o + s : o + e].T, overwrite_c=True)
        weight.grad += gw.reshape(weight.grad.shape)
        x.grad += gflat.reshape(Z, Y, X, c_in)[pz : Z - pz, py : Y - py, px : X - px]

    pre = Node(Tensor4(acc.reshape(*grid, c_out)[valid]), (x, weight, bias), backprop)
    if act == "identity":
        return pre

    def backprop_relu(out):
        pre.grad += out.grad * (pre.value.zyxc > 0.0)

    return Node(Tensor4(np.maximum(pre.value.zyxc, 0.0)), (pre,), backprop_relu)


class TestConv3dActivation:
    @pytest.mark.parametrize("act", ["relu", "identity"])
    @pytest.mark.parametrize("extents,c_in,c_out,kernel",
                             CONV_CASES + [((16, 16, 18), 2, 3, (3, 3, 3))])
    @pytest.mark.parametrize("with_nan", [False, True])
    def test_bit_identical_to_unfused_oracle(self, extents, c_in, c_out, kernel, act,
                                             with_nan):
        # few-valued inputs give exact-zero pre-activations; the 16x16x18 case
        # spans three 2048-row blocks of the backward GEMMs
        rng = np.random.default_rng(71 + sum(extents) + c_in)
        x = rng.integers(-2, 3, size=(*extents[::-1], c_in)).astype(np.float64)
        x[rng.random(x.shape) < 0.2] = -0.0
        w = rng.integers(-1, 2, size=(*kernel[::-1], c_in * c_out)).astype(np.float64)
        b = rng.integers(-1, 2, size=(1, 1, 1, c_out)).astype(np.float64)
        if with_nan:
            x[0, 0, 0, 0] = np.nan
        # a non-integer gradient makes the sums depend on their order
        g = rng.standard_normal((*extents[::-1], c_out))  # same padding keeps the extents
        g[rng.random(g.shape) < 0.2] = -0.0
        results = []
        for fused in (True, False):
            leaves = [Node(Tensor4(a)) for a in (x, w, b)]
            if fused:
                out = conv3d(*leaves, act)
            else:
                out = unfused_conv_relu(*leaves, act)
            backward(out, g)
            results.append([out.value.zyxc] + [leaf.grad for leaf in leaves])
        pre = unfused_conv_relu(*[Node(Tensor4(a)) for a in (x, w, b)], "identity").value.zyxc
        assert (pre == 0.0).any() and (pre > 0.0).any() and (pre < 0.0).any()
        assert np.isnan(pre).any() == with_nan
        for name, got, want in zip(("value", "x", "weight", "bias"), *results):
            assert same_bits(got, want), name

    def test_output_mask_is_input_mask(self):
        # the fused backward masks by value > 0, the unfused one by pre > 0
        pre = np.array([-0.0, 0.0, -1.0, 1.0, np.nan, -np.inf, np.inf, 5e-324, -5e-324])
        assert np.array_equal(np.maximum(pre, 0.0) > 0.0, pre > 0.0)

    def test_fd_through_relu(self):
        rng = Rng(12)
        x = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, rng)
        w = Tensor4.gaussian(Shape4(3, 3, 3, 4), 0, 0.5, rng)
        b = from_flat(Shape4(1, 1, 1, 2), [0.3, -0.3])
        proj = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, Rng(13)).zyxc

        def build(leaves):
            return conv3d(leaves[0], leaves[1], leaves[2], "relu")

        pre = conv3d(Node(x), Node(w), Node(b)).value.zyxc
        assert np.abs(pre).min() > 1e-3  # no probe crosses the kink
        assert (pre < 0).sum() > 5 and (pre > 0).sum() > 5
        assert fd_gradient_error(build, [x, w, b], proj) < GRAD_TOL

    def test_unknown_kind(self):
        x = Node(Tensor4.zeros(Shape4(2, 2, 2, 1)))
        with pytest.raises(ValueError, match="unknown activation kind"):
            conv3d(x, scalar(1.0), scalar(0.0), act="tanh")


def few_valued(rng, shape):
    """Integers in [-2, 2] with about a fifth of them -0.0: exact-zero sums and ties."""
    a = rng.integers(-2, 3, size=shape).astype(np.float64)
    a[rng.random(shape) < 0.2] = -0.0
    return a


class TestConv3dInputs:
    """A tuple of inputs is read as their channel concatenation, in order."""

    @pytest.mark.parametrize("act", ["relu", "identity"])
    @pytest.mark.parametrize("extents,c_a,c_b,c_out,kernel", [
        ((5, 4, 6), 1, 2, 3, (3, 3, 3)),
        ((4, 5, 3), 2, 2, 1, (3, 3, 3)),
        ((3, 4, 5), 3, 1, 2, (1, 1, 1)),
        ((4, 6, 5), 2, 3, 2, (3, 1, 5)),
        ((4, 5, 6), 1, 1, 2, (1, 3, 1)),
        ((16, 16, 18), 2, 1, 3, (3, 3, 3)),  # three 2048-row blocks in the backward
    ])
    def test_bit_identical_to_concat_oracle(self, extents, c_a, c_b, c_out, kernel, act):
        rng = np.random.default_rng(81 + sum(extents) + c_a)
        zyx = extents[::-1]
        a, b = few_valued(rng, (*zyx, c_a)), few_valued(rng, (*zyx, c_b))
        a[0, 0, 0, 0] = np.nan
        w = rng.integers(-1, 2, size=(*kernel[::-1], (c_a + c_b) * c_out)).astype(np.float64)
        bias = rng.integers(-1, 2, size=(1, 1, 1, c_out)).astype(np.float64)
        g = rng.standard_normal((*zyx, c_out))
        g[rng.random(g.shape) < 0.2] = -0.0
        g[-1, -1, -1, -1] = np.nan
        results = []
        for fused in (True, False):
            leaves = [Node(Tensor4(v.copy())) for v in (a, b, w, bias)]
            x = tuple(leaves[:2]) if fused else concat_channels(*leaves[:2])
            out = conv3d(x, *leaves[2:], act)
            backward(out, g)
            results.append([out.value.zyxc] + [leaf.grad for leaf in leaves])
        assert all(np.isnan(grad).any() for grad in results[0][1:])
        for name, got, want in zip(("value", "a", "b", "weight", "bias"), *results):
            assert same_bits(got, want), name

    def test_one_node_on_both_sides_accumulates_both_slices(self):
        # the second slice adds to the first, as it would after a zero fill
        rng = np.random.default_rng(91)
        x = few_valued(rng, (3, 4, 2, 2))
        x[0, 0, 0, 1] = np.nan
        w = Tensor4(few_valued(rng, (3, 3, 3, 12)))
        g = signed_zeros_and_nan((3, 4, 2, 3), 92)
        shared = Node(Tensor4(x))
        backward(conv3d((shared, shared), Node(w), Node(Tensor4.zeros(Shape4(1, 1, 1, 3)))), g)
        a, b = Node(Tensor4(x)), Node(Tensor4(x))
        backward(conv3d((a, b), Node(w), Node(Tensor4.zeros(Shape4(1, 1, 1, 3)))), g)
        assert np.isnan(a.grad).any() and np.isnan(b.grad).any()
        assert same_bits(shared.grad, zero_fill_then_add(x.shape, a.grad, b.grad))

    def test_input_without_gradient_gets_none(self):
        rng = Rng(93)
        a, b = (Node(Tensor4.gaussian(Shape4(3, 3, 3, c), 0, 1, rng)) for c in (2, 1))
        b._needs_grad = False
        w = Node(Tensor4.gaussian(Shape4(3, 3, 3, 6), 0, 1, rng))
        backward(conv3d((a, b), w, Node(Tensor4.zeros(Shape4(1, 1, 1, 2)))),
                 np.ones((3, 3, 3, 2)))
        assert b._grad is None and a.grad.any()

    def test_mismatched_extents_rejected(self):
        a = Node(Tensor4.zeros(Shape4(4, 4, 4, 1)))
        b = Node(Tensor4.zeros(Shape4(4, 4, 2, 1)))
        w = Node(Tensor4.zeros(Shape4(3, 3, 3, 2)))
        with pytest.raises(ValueError, match="spatial mismatch"):
            conv3d((a, b), w, scalar(0.0))

    @pytest.mark.parametrize("channels", [(1, 1), (2, 2), (1, 1, 1, 1)])
    def test_channel_sum_must_match_filter(self, channels):
        xs = tuple(Node(Tensor4.zeros(Shape4(4, 4, 4, c))) for c in channels)
        w = Node(Tensor4.zeros(Shape4(3, 3, 3, 6)))  # 3 input channels, 2 output
        with pytest.raises(ValueError, match="channel mismatch"):
            conv3d(xs, w, Node(Tensor4.zeros(Shape4(1, 1, 1, 2))))

    def test_fd_two_inputs(self):
        rng = Rng(94)
        a = Tensor4.gaussian(Shape4(3, 3, 2, 1), 0, 1, rng)
        b = Tensor4.gaussian(Shape4(3, 3, 2, 2), 0, 1, rng)
        w = Tensor4.gaussian(Shape4(3, 3, 3, 6), 0, 0.5, rng)
        bias = Tensor4.gaussian(Shape4(1, 1, 1, 2), 0, 0.5, rng)
        proj = Tensor4.gaussian(Shape4(3, 3, 2, 2), 0, 1, Rng(95)).zyxc

        def build(leaves):
            return conv3d((leaves[0], leaves[1]), leaves[2], leaves[3])

        assert fd_gradient_error(build, [a, b, w, bias], proj) < GRAD_TOL


class TestMaxpool:
    def test_constant_input(self):
        out = maxpool3(Node(full(Shape4(4, 4, 4, 1), 2.5)), (2, 2, 2))
        assert (out.value.zyxc == 2.5).all()

    def test_window_max(self):
        sh = Shape4(2, 2, 2, 1)
        t = from_flat(sh, np.arange(8.0))
        out = maxpool3(Node(t), (2, 2, 2))
        assert out.value.at(0, 0, 0, 0) == 7.0

    def test_identity_factors(self):
        t = Tensor4.gaussian(Shape4(3, 3, 3, 2), 0, 1, Rng(14))
        assert tensors_equal(maxpool3(Node(t), (1, 1, 1)).value, t)

    def test_tie_routes_to_first_in_layout_order(self):
        x = Node(full(Shape4(2, 2, 2, 1), 1.0))
        backward(maxpool3(x, (2, 2, 2)))
        grads = x.grad.reshape(-1)
        assert grads[0] == 1.0 and not grads[1:].any()

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            maxpool3(Node(Tensor4.zeros(Shape4(3, 4, 4, 1))), (2, 2, 2))

    def test_fd(self):
        t = Tensor4.gaussian(Shape4(4, 4, 2, 2), 0, 1, Rng(15))
        proj = Tensor4.gaussian(Shape4(2, 2, 1, 2), 0, 1, Rng(16)).zyxc
        assert fd_gradient_error(lambda l: maxpool3(l[0], (2, 2, 2)), [t], proj) < GRAD_TOL

    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 1, 2), (1, 1, 1), (8, 4, 16)])
    @pytest.mark.parametrize("recording", [True, False])
    def test_bit_identical_to_argmax_oracle(self, factors, recording):
        # few distinct values force ties, signed zeros tie with each other;
        # (8, 4, 16) has 512 window slots, more than a uint8 slot index holds
        fx, fy, fz = factors
        rng = np.random.default_rng(61)
        a = rng.integers(-1, 3, size=(2 * fz, 3 * fy, 2 * fx, 3)).astype(np.float64)
        a[rng.random(a.shape) < 0.2] = -0.0
        a[0, 0, 0, 0] = np.nan
        a[-1, -1, -1, -1] = np.nan
        gout = signed_zeros_and_nan((2, 3, 2, 3), 62)
        want_value, want_grad = maxpool_oracle(a, factors, gout)
        x = Node(Tensor4(a.copy()))
        x._needs_grad = recording
        out = maxpool3(x, factors)
        got = out.value.zyxc
        assert np.array_equal(got, want_value, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want_value))
        assert np.isnan(got[0, 0, 0, 0])
        if recording:
            backward(out, gout)
            assert same_bits(x.grad, zero_fill_then_add(a.shape, want_grad))
        else:
            assert not out._parents and out._backprop is None


def maxpool_oracle(a, factors, gout):
    """Pooled value and input gradient by argmax over a transposed window axis."""
    fx, fy, fz = factors
    Z, Y, X, C = a.shape
    oz, oy, ox = Z // fz, Y // fy, X // fx
    win = fz * fy * fx
    blocks = a.reshape(oz, fz, oy, fy, ox, fx, C).transpose(0, 2, 4, 6, 1, 3, 5)
    blocks = blocks.reshape(oz, oy, ox, C, win)
    idx = blocks.argmax(axis=4)
    value = np.take_along_axis(blocks, idx[..., None], axis=4)[..., 0]
    gwin = np.zeros((oz, oy, ox, C, win))
    np.put_along_axis(gwin, idx[..., None], gout[..., None], axis=4)
    gwin = gwin.reshape(oz, oy, ox, C, fz, fy, fx).transpose(0, 4, 1, 5, 2, 6, 3)
    return value, gwin.reshape(Z, Y, X, C)


class TestConcat:
    def test_values_and_gradient_split(self):
        a = Node(Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, Rng(17)))
        b = Node(Tensor4.gaussian(Shape4(2, 2, 2, 1), 0, 1, Rng(18)))
        cat = concat_channels(a, b)
        assert cat.value.shape.c == 3
        proj = Tensor4.gaussian(cat.value.shape, 0, 1, Rng(19)).zyxc
        backward(cat, proj)
        assert np.array_equal(a.grad, proj[..., :2])
        assert np.array_equal(b.grad, proj[..., 2:])

    def test_gradient_bits_match_zero_fill_oracle(self):
        a = Node(Tensor4.zeros(Shape4(2, 3, 2, 2)))
        b = Node(Tensor4.zeros(Shape4(2, 3, 2, 3)))
        g = signed_zeros_and_nan((2, 3, 2, 5), 42)
        backward(concat_channels(a, b), g)
        assert same_bits(a.grad, zero_fill_then_add(a.grad.shape, g[..., :2]))
        assert same_bits(b.grad, zero_fill_then_add(b.grad.shape, g[..., 2:]))
        # one node on both sides: the second slice adds to the first
        x = Node(Tensor4.zeros(Shape4(2, 3, 2, 2)))
        g = signed_zeros_and_nan((2, 3, 2, 4), 43)
        backward(concat_channels(x, x), g)
        assert same_bits(x.grad, zero_fill_then_add(x.grad.shape, g[..., :2], g[..., 2:]))


class TestShuffleOps:
    def test_fd_down_up(self):
        t = Tensor4.gaussian(Shape4(4, 4, 2, 1), 0, 1, Rng(20))
        proj = Tensor4.gaussian(t.shape, 0, 1, Rng(21)).zyxc

        def build(leaves):
            return up_shuffle_op(down_shuffle_op(leaves[0], (2, 2, 2)), (2, 2, 2))

        assert fd_gradient_error(build, [t], proj) < GRAD_TOL


class TestSoftmax:
    def test_uniform_two_classes(self):
        out = softmax_channels(Node(Tensor4.zeros(Shape4(2, 2, 2, 2))))
        assert np.allclose(out.value.zyxc, 0.5, atol=0, rtol=0)

    def test_closed_form(self):
        t = from_flat(Shape4(1, 1, 1, 2), [0.0, math.log(3.0)])
        out = softmax_channels(Node(t)).value
        assert abs(out.at(0, 0, 0, 0) - 0.25) < 1e-15
        assert abs(out.at(0, 0, 0, 1) - 0.75) < 1e-15

    def test_channel_sums_one(self):
        t = Tensor4.gaussian(Shape4(4, 3, 2, 5), 0, 10, Rng(22))
        sums = softmax_channels(Node(t)).value.zyxc.sum(axis=3)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_fd(self):
        t = Tensor4.gaussian(Shape4(2, 2, 2, 3), 0, 1, Rng(23))
        proj = Tensor4.gaussian(t.shape, 0, 1, Rng(24)).zyxc
        assert fd_gradient_error(lambda l: softmax_channels(l[0]), [t], proj) < GRAD_TOL

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 8])
    def test_bit_identical_to_reduction_oracle(self, K):
        rng = np.random.default_rng(62 + K)
        a = rng.standard_normal((5, 4, 3, K)) * 10.0 ** rng.integers(-3, 4, size=(5, 4, 3, K))
        a[0] = 700.0  # every channel tied at the max
        a[1, :, :, 1:] = a[1, :, :, :1]
        a[2, 0, 0, 0] = -1e300
        gout = rng.standard_normal(a.shape) * 1e3
        gout[3] = 0.0
        shifted = a - a.max(axis=3, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=3, keepdims=True)
        want_grad = want * (gout - (gout * want).sum(axis=3, keepdims=True))
        x = Node(Tensor4(a))
        out = softmax_channels(x)
        assert np.array_equal(out.value.zyxc, want)
        backward(out, gout)
        assert np.array_equal(x.grad, want_grad)


    def test_bits_match_exp_oracle_through_int64_views(self):
        rng = np.random.default_rng(63)
        a = rng.standard_normal((40, 24, 32, 3)) * 30.0
        a[0, 0, 0] = [0.0, -800.0, -1e300]  # exp underflows to +0.0
        a[0, 0, 1] = [-0.0, 0.0, -0.0]
        m = a.max(axis=3, keepdims=True)
        want = np.exp(a - m) / np.exp(a - m).sum(axis=3, keepdims=True)
        got = softmax_channels(Node(Tensor4(a))).value.zyxc
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_traced_peak_near_its_output(self):
        # a - max, its exp and the quotient as three arrays made 2.4x the output
        x = Node(Tensor4(np.random.default_rng(64).standard_normal((40, 24, 32, 3))))
        out, peak = traced_peak(lambda: softmax_channels(x))
        assert peak <= 1.5 * out.value.zyxc.nbytes, peak / out.value.zyxc.nbytes


def label_patch(idx):
    """The integer-coded (x, y, z, 1) labels of a (z, y, x) index array."""
    return Tensor4(np.asarray(idx)[..., None])


def one_hot_from(idx, class_count):
    hot = np.zeros(idx.shape + (class_count,))
    np.put_along_axis(hot, idx[..., None], 1.0, axis=3)
    return Tensor4(hot)


class TestCeDiceLoss:
    def test_perfect_prediction_is_zero(self):
        idx = np.asarray(Rng(25).randint(0, 2, 8)).reshape(2, 2, 2)
        loss = ce_dice_loss(Node(one_hot_from(idx, 2)), label_patch(idx))
        assert loss.value.at(0, 0, 0, 0) == 0.0

    def test_uniform_ce_is_ln2(self):
        probs = full(Shape4(2, 2, 2, 2), 0.5)
        labels = label_patch(Rng(26).randint(0, 2, 8).reshape(2, 2, 2))
        loss = ce_dice_loss(Node(probs), labels, lam_ce=1.0, lam_dice=0.0)
        assert abs(loss.value.at(0, 0, 0, 0) - math.log(2.0)) < 1e-12

    @pytest.mark.parametrize("bad", ["0.5", "-1", "K", "nan", "two-channel"])
    def test_bad_labels_rejected(self, bad):
        K = 3
        probs = full(Shape4(2, 2, 2, K), 1.0 / K)
        idx = np.zeros((2, 2, 2))
        if bad == "two-channel":
            labels = Tensor4(np.stack([idx, idx], axis=3))
        else:
            idx[1, 0, 1] = {"0.5": 0.5, "-1": -1.0, "K": K, "nan": math.nan}[bad]
            labels = label_patch(idx)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                ce_dice_loss(Node(probs), labels)

    def test_shape_mismatch(self):
        probs = full(Shape4(2, 2, 2, 2), 0.5)
        labels = label_patch(np.zeros((2, 2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            ce_dice_loss(Node(probs), labels)

    def test_fd_through_softmax(self):
        logits = Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, Rng(27))
        labels = label_patch(Rng(28).randint(0, 2, 64).reshape(4, 4, 4))

        def build(leaves):
            return ce_dice_loss(softmax_channels(leaves[0]), labels)

        assert fd_gradient_error(build, [logits]) < GRAD_TOL

    def test_loss_finite_with_floored_probabilities(self):
        # a hard zero probability on the labeled class stays finite via the floor
        probs = np.full((2, 2, 2, 2), 0.5)
        probs[0, 0, 0] = [0.0, 1.0]
        labels = label_patch(np.zeros((2, 2, 2), dtype=np.int64))
        loss = ce_dice_loss(Node(Tensor4(probs)), labels)
        assert math.isfinite(loss.value.at(0, 0, 0, 0))

    @pytest.mark.parametrize("K", [2, 3, 9])
    @pytest.mark.parametrize("lam_dice", [1.0, 0.0])
    def test_gradient_bits_match_zero_fill_oracle(self, K, lam_dice):
        # a voxel's non-label channels give -0.0 cross-entropy terms; floored
        # probabilities and lam_dice = 0 give exact zeros in the Dice terms too.
        # The oracle reads the one-hot tensor built here, not the loss's mask.
        rng = np.random.default_rng(46)
        p = rng.random((3, 2, 4, K))
        p[rng.random(p.shape) < 0.2] = 0.0
        idx = rng.integers(0, K, size=(3, 2, 4))
        hot = one_hot_from(idx, K).zyxc
        probs = Node(Tensor4(p))
        for seed in (1.0, 0.5):  # the second pass adds to the first, as a batch does
            loss = ce_dice_loss(probs, label_patch(idx), 1.0, lam_dice)
            assert same_bits(loss.value.zyxc, ce_dice_value_oracle(p, hot, lam_dice))
            backward(loss, seed)
        want = zero_fill_then_add(p.shape, *(ce_dice_grad_oracle(p, hot, lam_dice, s)
                                             for s in (1.0, 0.5)))
        assert same_bits(probs.grad, want)

    def test_traced_peak_near_its_input(self):
        # a one-hot stack, a floored copy of p and full-size backward temporaries
        # made 3.5x the probabilities; per-class masks and one gradient buffer 2.1x
        rng = np.random.default_rng(65)
        p = rng.random((32, 32, 32, 3))
        p /= p.sum(axis=3, keepdims=True)
        probs = Node(Tensor4(p))
        labels = label_patch(rng.integers(0, 3, size=(32, 32, 32)))
        _, peak = traced_peak(lambda: backward(ce_dice_loss(probs, labels)))
        assert peak <= 2.8 * p.nbytes, peak / p.nbytes

    def test_fd_direct_probs(self):
        rng = Rng(29)
        raw = 0.1 + 0.8 * rng.uniform(4 * 4 * 4 * 2)
        probs = from_flat(Shape4(4, 4, 4, 2), raw)
        labels = label_patch(rng.randint(0, 2, 64).reshape(4, 4, 4))

        def build(leaves):
            return ce_dice_loss(leaves[0], labels)

        assert fd_gradient_error(build, [probs]) < GRAD_TOL


def ce_dice_value_oracle(p, g, lam_dice):
    """ce_dice_loss's value (lam_ce 1) from the one-hot tensor ``g``, as first written."""
    ce = -(g * np.log(np.maximum(p, 1e-12))).sum() / p[..., 0].size
    dices = [(2.0 * (p[..., c] * g[..., c]).sum() + 1e-5)
             / (p[..., c].sum() + g[..., c].sum() + 1e-5) for c in range(1, p.shape[3])]
    return np.array([[[[ce + lam_dice * (1.0 - sum(dices) / len(dices))]]]])


def ce_dice_grad_oracle(p, g, lam_dice, seed):
    """ce_dice_loss's input gradient as first written: a zero fill, += the
    cross-entropy term (lam_ce 1), -= each foreground Dice term, times the seed."""
    p_safe = np.maximum(p, 1e-12)
    grad = np.zeros_like(p)
    grad += (-(g / p_safe) * (p > 1e-12)) / p[..., 0].size
    fg = range(1, p.shape[3])
    for c in fg:
        spg, sp, sg = (p[..., c] * g[..., c]).sum(), p[..., c].sum(), g[..., c].sum()
        denom = sp + sg + 1e-5
        ddice = (2.0 * g[..., c] * denom - (2.0 * spg + 1e-5)) / (denom * denom)
        grad[..., c] -= lam_dice * ddice / len(fg)
    return seed * grad
