import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import (FUZZ, fd_gradient_error, full, gemm_flops_per_step, mutated,
                      tensors_equal, traced_peak)
from voxseg.cli.config import TrainConfig
from voxseg.cli.main import EXIT_DATA, EXIT_NUMERIC, main
from voxseg.nn import (BackboneSpec, CheckpointError, ConvUpShuffle,
                       DownShuffleConv, NonFiniteWeightsError, ShuffleUNet3d,
                       activation, Node, backward, ce_dice_loss,
                       concat_channels, conv3d, down_shuffle_op, load_checkpoint,
                       load_into_network, maxpool3, save_checkpoint, softmax_channels,
                       up_shuffle_op)
from voxseg.tensor import Rng, Shape4, Tensor4


def small_spec(factors=(1, 1, 1), widths=(4, 8), classes=2, k=4):
    return BackboneSpec(class_count=classes, factors=factors, stem_channels=k,
                        widths=widths, pool=(2, 2, 2))


def interior_nodes(root: Node) -> list[Node]:
    """Every node reachable from ``root`` that records its parents."""
    seen, stack, found = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._parents:
            seen.add(id(node))
            found.append(node)
            stack.extend(node._parents)
    return found


def desk_step_inputs(n: int, seed: int) -> tuple[Tensor4, Tensor4]:
    """A one-channel n^3 patch and its two-class integer-coded labels."""
    t = Tensor4.gaussian(Shape4(n, n, n, 1), 0, 1, Rng(seed))
    return t, Tensor4(Tensor4.gaussian(t.shape, 0, 1, Rng(seed + 1)).zyxc > 0.0)


def keep_all_forward(net: ShuffleUNet3d, patch: Tensor4) -> Node:
    """``net.forward`` composed from the public ops, releasing no value."""
    x = Node(patch)
    x._needs_grad = False
    x = conv3d(down_shuffle_op(x, net.stem.factors), net.stem.conv.weight,
               net.stem.conv.bias, "relu")
    skips = []
    for i, layer in enumerate(net.enc):
        x = layer(x)
        if i < net.spec.depth - 1:
            skips.append(x)
            x = maxpool3(x, net.spec.pool)
    for up, dec in zip(net.ups, net.dec):
        x = dec(concat_channels(skips.pop(), up_shuffle_op(up.conv(x), up.factors)))
    return softmax_channels(up_shuffle_op(net.head.conv(x), net.head.factors))


def zero_fill_then_add(node: Node, g: np.ndarray) -> None:
    """``Node._accumulate`` with every gradient in a new compact array."""
    if node._grad is None:
        node._grad = np.zeros(g.shape)
    node._grad += g


class TestStemLayer:
    def test_degenerate_is_input(self):
        # factors (1,1,1), identity 1x1x1 conv, identity activation
        layer = DownShuffleConv(1, 1, (1, 1, 1), Rng(0),
                                kernel=(1, 1, 1), act="identity")
        layer.conv.weight.value = full(Shape4(1, 1, 1, 1), 1.0)
        t = Tensor4.gaussian(Shape4(4, 4, 4, 1), 0, 1, Rng(1))
        assert tensors_equal(layer(Node(t)).value, t)

    def test_matches_composition_exactly(self):
        layer = DownShuffleConv(1, 6, (2, 2, 2), Rng(2))
        t = Tensor4.gaussian(Shape4(8, 4, 4, 1), 0, 1, Rng(3))
        fused = layer(Node(t))
        shuffled = down_shuffle_op(Node(t), (2, 2, 2))
        conv = layer.conv
        composed = activation(conv3d(shuffled, conv.weight, conv.bias), "relu")
        assert tensors_equal(fused.value, composed.value)

    def test_output_geometry(self):
        # high-res (8,8,4) with factors (4,4,2) lands on (2,2,2) with k maps
        layer = DownShuffleConv(1, 5, (4, 4, 2), Rng(4))
        t = Tensor4.gaussian(Shape4(8, 8, 4, 1), 0, 1, Rng(5))
        out = layer(Node(t))
        assert out.value.shape == Shape4(2, 2, 2, 5)

    def test_divisibility_error(self):
        layer = DownShuffleConv(1, 2, (2, 2, 2), Rng(6))
        with pytest.raises(ValueError):
            layer(Node(Tensor4.zeros(Shape4(3, 4, 4, 1))))

    def test_fd_gradients(self):
        layer = DownShuffleConv(1, 3, (2, 2, 2), Rng(7))
        t = Tensor4.gaussian(Shape4(4, 4, 4, 1), 0, 1, Rng(8))
        proj = Tensor4.gaussian(Shape4(2, 2, 2, 3), 0, 1, Rng(9)).zyxc
        w0 = Tensor4(layer.conv.weight.value.zyxc.copy())
        b0 = Tensor4(layer.conv.bias.value.zyxc.copy())

        def build(leaves):
            layer.conv.weight = leaves[1]
            layer.conv.bias = leaves[2]
            return layer(leaves[0])

        assert fd_gradient_error(build, [t, w0, b0], proj) < 1e-6


class TestHeadLayer:
    def test_identity_factors_is_plain_conv(self):
        layer = ConvUpShuffle(2, 3, (1, 1, 1), Rng(10))
        t = Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, Rng(11))
        assert tensors_equal(layer(Node(t)).value, layer.conv(Node(t)).value)

    def test_matches_composition_exactly(self):
        layer = ConvUpShuffle(3, 2, (2, 2, 2), Rng(12))
        t = Tensor4.gaussian(Shape4(4, 4, 4, 3), 0, 1, Rng(13))
        fused = layer(Node(t))
        composed = up_shuffle_op(layer.conv(Node(t)), (2, 2, 2))
        assert tensors_equal(fused.value, composed.value)

    def test_restores_extents(self):
        factors = (4, 4, 2)
        stem = DownShuffleConv(1, 4, factors, Rng(14))
        head = ConvUpShuffle(4, 2, factors, Rng(15))
        t = Tensor4.gaussian(Shape4(8, 8, 4, 1), 0, 1, Rng(16))
        out = head(stem(Node(t)))
        assert out.value.shape == Shape4(8, 8, 4, 2)

    def test_fd_gradients(self):
        layer = ConvUpShuffle(2, 1, (2, 2, 1), Rng(17))
        t = Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, Rng(18))
        proj = Tensor4.gaussian(Shape4(4, 4, 2, 1), 0, 1, Rng(19)).zyxc

        def build(leaves):
            layer.conv.weight = leaves[1]
            layer.conv.bias = leaves[2]
            return layer(leaves[0])

        assert fd_gradient_error(
            build, [t, Tensor4(layer.conv.weight.value.zyxc.copy()),
                    Tensor4(layer.conv.bias.value.zyxc.copy())], proj
        ) < 1e-6


class TestBackbone:
    def test_depth1_baseline_shape(self):
        net = ShuffleUNet3d(small_spec(widths=(4,)), Rng(20))
        out = net.forward(Tensor4.gaussian(Shape4(6, 6, 6, 1), 0, 1, Rng(21)))
        assert out.value.shape == Shape4(6, 6, 6, 2)

    def test_factors_2_shapes(self):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(22))
        out = net.forward(Tensor4.gaussian(Shape4(32, 32, 32, 1), 0, 1, Rng(23)))
        assert out.value.shape == Shape4(32, 32, 32, 2)
        # backbone ran at 16^3: stem activation holds 16^3 * k elements
        counts = dict(net.last_activation_counts)
        assert counts["stem"] == 16 ** 3 * 4

    def test_output_is_distribution(self):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2), classes=3), Rng(24))
        out = net.forward(Tensor4.gaussian(Shape4(16, 16, 16, 1), 0, 1, Rng(25)))
        sums = out.value.zyxc.sum(axis=3)
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_parameter_count_depth2(self):
        # hand-computed: stem 27*1*4+4, enc0 27*4*4+4, enc1 27*4*8+8,
        # up (1x1x1) 8*(4*8)+32, dec0 27*8*4+4, head 27*4*2+2
        net = ShuffleUNet3d(small_spec(), Rng(26))
        expected = (27 * 4 + 4) + (27 * 16 + 4) + (27 * 32 + 8) \
            + (8 * 32 + 32) + (27 * 32 + 4) + (27 * 8 + 2)
        assert sum(node.value.size for node in net.parameters().values()) == expected

    def test_parameter_names_are_the_checkpoint_layout(self):
        # the order fixes the bytes of model.vckp; up0 and dec0 are the deepest level's
        net = ShuffleUNet3d(small_spec(widths=(4, 8, 16)), Rng(27))
        params = net.parameters()
        assert list(params) == [
            "stem.weight", "stem.bias", "enc0.weight", "enc0.bias", "enc1.weight", "enc1.bias",
            "enc2.weight", "enc2.bias", "up0.weight", "up0.bias", "up1.weight", "up1.bias",
            "dec0.weight", "dec0.bias", "dec1.weight", "dec1.bias", "head.weight", "head.bias"]
        convs = [net.stem.conv, *net.enc, *(up.conv for up in net.ups), *net.dec,
                 net.head.conv]
        assert list(params.values()) == [n for c in convs for n in (c.weight, c.bias)]
        assert [params[f"{layer}.bias"].value.shape.c for layer in
                ("up0", "up1", "dec0", "dec1")] == [8 * 8, 4 * 8, 8, 4]

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BackboneSpec(class_count=1).validate()
        with pytest.raises(ValueError):
            BackboneSpec(class_count=2, widths=()).validate()

    def test_input_divisibility_checked(self):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(27))
        with pytest.raises(ValueError):
            net.forward(Tensor4.zeros(Shape4(10, 8, 8, 1)))

    def test_determinism_same_seed(self):
        a = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(28))
        b = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(28))
        t = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(29))
        assert tensors_equal(a.forward(t).value, b.forward(t).value)

    def test_predict_records_nothing(self):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(30))
        t = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(31))
        outputs = []
        forward = net.forward
        net.forward = lambda patch: outputs.append(forward(patch)) or outputs[-1]
        assert tensors_equal(net.predict(t), forward(t).value)
        assert not outputs[0]._parents and outputs[0]._backprop is None

    # predict's traced peaks at 16^3 while each ReLU was a node of its own;
    # folding the activation into conv3d must not raise them
    @pytest.mark.parametrize("factors,unfused_peak", [((1, 1, 1), 4_259_830),
                                                      ((2, 2, 2), 625_502)])
    def test_predict_retains_only_its_output(self, factors, unfused_peak):
        net = ShuffleUNet3d(BackboneSpec(class_count=2, factors=factors, stem_channels=16,
                                         widths=(16, 32)), Rng(32))
        t = Tensor4.gaussian(Shape4(16, 16, 16, 1), 0, 1, Rng(33))
        runs = []
        tracemalloc.start()
        try:
            for run in (net.forward, net.predict):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = run(t)
                current, peak = tracemalloc.get_traced_memory()
                runs.append((current - base, peak - base))
                if run == net.forward:
                    graph_bytes = sum(n.value.zyxc.nbytes for n in interior_nodes(out)
                                      if n.value is not None)
                del out
        finally:
            tracemalloc.stop()
        (forward_kept, _), (predict_kept, predict_peak) = runs
        out_bytes = 16 ** 3 * 2 * 8
        # forward keeps the values of the graph it records, predict only its output
        assert forward_kept >= graph_bytes > 5 * out_bytes, (runs, graph_bytes)
        assert predict_kept < 2 * out_bytes, runs
        assert predict_peak <= unfused_peak, runs

    # desk net, 32^3 (1,1,1): 82.1 MiB while every conv kept its padded input and
    # every ReLU its pre-activation for the backward, 56.2 MiB while the graph
    # kept the values no backward reads and compacted strided input gradients,
    # 41.5 MiB while the decoder built a concatenation node and a conv backward
    # held three full-size copies of its output gradient; 64^3 (4,4,4): 31.7 MiB
    # then
    @pytest.mark.parametrize("n,factors,bound_mib", [(32, (1, 1, 1), 34),
                                                     (64, (4, 4, 4), 26)])
    def test_train_step_traced_peak(self, n, factors, bound_mib):
        net = ShuffleUNet3d(BackboneSpec(class_count=2, factors=factors, stem_channels=16,
                                         widths=(16, 32)), Rng(34))
        t, labels = desk_step_inputs(n, 35)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            backward(ce_dice_loss(net.forward(t), labels))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2 ** 20, peak / 2 ** 20

    def test_predict_traced_peak(self):
        # desk net, 32^3 (1,1,1): 26.1 MiB while predict held enc0's output
        # through the last concatenation and the last decoder output through
        # the head conv and the softmax
        net = ShuffleUNet3d(BackboneSpec(class_count=2, stem_channels=16, widths=(16, 32)),
                            Rng(34))
        t, _ = desk_step_inputs(32, 35)
        _, peak = traced_peak(lambda: net.predict(t))
        assert peak < 24 * 2 ** 20, peak / 2 ** 20

    def test_forward_releases_values_no_backward_reads(self):
        # the identity-conv outputs that feed the up-shuffles and the head's
        # up-shuffle output; each keeps its shape for the lazy gradient fill.
        # The decoder conv's backward re-pads the up-shuffle output it reads,
        # and no concatenated (8, 8, 8, 8) node is built.
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(37))
        probs = net.forward(Tensor4.gaussian(Shape4(16, 16, 16, 1), 0, 1, Rng(38)))
        nodes = interior_nodes(probs)
        released = [n for n in nodes if n.value is None]
        assert sorted(n.shape for n in released) == [(4, 4, 4, 32), (8, 8, 8, 16),
                                                     (16, 16, 16, 2)]
        assert (8, 8, 8, 8) not in [n.shape for n in nodes]
        dec = next(n for n in nodes if net.dec[0].weight in n._parents)
        skip, up_out = dec._parents[:2]
        assert skip.shape == up_out.shape == (8, 8, 8, 4)
        assert up_out.value is not None and up_out._parents[0] in released
        logits = probs._parents[0]
        assert logits in released and logits._parents[0] in released
        for node in released:
            x, y, z, c = node.shape
            assert node.grad.shape == (z, y, x, c) and not node.grad.any()

    @pytest.mark.parametrize("factors", [(1, 1, 1), (2, 2, 2), (2, 1, 2)])
    def test_gradients_bit_identical_to_keep_all_oracle(self, factors, monkeypatch):
        net = ShuffleUNet3d(small_spec(factors=factors, widths=(4, 8, 8)), Rng(39))
        t, labels = desk_step_inputs(16, 40)

        def step_gradients(probs: Node) -> dict:
            backward(ce_dice_loss(probs, labels))
            grads = {k: p.grad.view(np.int64).copy() for k, p in net.parameters().items()}
            net.zero_grad()
            return grads

        got = step_gradients(net.forward(t))
        # the oracle's first gradient is a zero fill plus g, in a new compact array
        monkeypatch.setattr(Node, "_accumulate", zero_fill_then_add)
        want = step_gradients(keep_all_forward(net, t))
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name


class TestFullScaleGeometry:
    def test_large_volume_stem_shapes(self):
        # (400, 400, 80) input with factors (4, 4, 2) lands the backbone on
        # (100, 100, 40) with k=64 feature maps
        t = Tensor4.zeros(Shape4(400, 400, 80, 1))
        shuffled = down_shuffle_op(Node(t), (4, 4, 2)).value
        del t
        assert shuffled.shape == Shape4(100, 100, 40, 32)
        layer = DownShuffleConv(1, 64, (4, 4, 2), Rng(50))
        assert layer.conv.c_in == 32 and layer.conv.c_out == 64
        # the stem's 3x3x3 kernel keeps the extents; one output map keeps this cheap
        weight = Node(Tensor4.zeros(Shape4(*layer.conv.kernel, 32)))
        out = conv3d(Node(shuffled), weight, Node(Tensor4.zeros(Shape4(1, 1, 1, 1))))
        assert out.value.shape == Shape4(100, 100, 40, 1)


class TestCostReduction:
    def run_counts(self, factors, widths=(4, 8), k=4):
        net = ShuffleUNet3d(small_spec(factors=factors, widths=widths, k=k), Rng(30))
        net.forward(Tensor4.gaussian(Shape4(16, 16, 16, 1), 0, 1, Rng(31)))
        return dict(net.last_activation_counts)

    @pytest.mark.parametrize("factors", [(2, 2, 2), (2, 2, 1), (4, 4, 2)])
    def test_every_activation_shrinks_by_factor_product(self, factors):
        base = self.run_counts((1, 1, 1))
        reduced = self.run_counts(factors)
        product = factors[0] * factors[1] * factors[2]
        assert set(base) == set(reduced)
        for name in base:
            assert base[name] == reduced[name] * product, name


class TestGemmCount:
    @pytest.mark.parametrize("factors, total", [((1, 1, 1), 5_376_385_536),
                                                ((2, 2, 2), 1_001_911_296)])
    def test_desk_step_matches_closed_form(self, factors, total):
        cfg = TrainConfig(class_count=2, patch=(32, 32, 32), factors=factors, k=16,
                          widths=(16, 32))
        net = ShuffleUNet3d(cfg.backbone_spec(), Rng(0))
        depth = len(cfg.widths)
        low = [p // f for p, f in zip(cfg.patch, factors)]
        # (conv, pooling level, GEMM families): forward, dW and dX, but the stem's
        # input needs no gradient, so the stem pays no dX
        convs = [(net.stem.conv, 0, 2), *((c, i, 3) for i, c in enumerate(net.enc)),
                 *((u.conv, depth - 1 - j, 3) for j, u in enumerate(net.ups)),
                 *((c, depth - 2 - j, 3) for j, c in enumerate(net.dec)),
                 (net.head.conv, 0, 3)]
        expected = 0
        for conv, level, families in convs:
            (kx, ky, kz), (x, y, z) = conv.kernel, (e // q ** level for e, q in zip(low, cfg.pool))
            X, Y, Z = x + kx - 1, y + ky - 1, z + kz - 1  # the padded extents
            n = (Z - kz) * Y * X + (Y - ky) * X + (X - kx) + 1
            expected += families * 2 * kx * ky * kz * conv.c_in * conv.c_out * n
        assert gemm_flops_per_step(cfg) == expected == total


class TestFullBackboneGradient:
    def test_depth2_fd_check(self):
        spec = BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=2,
                            widths=(2, 3), pool=(2, 2, 2), init_sigma=0.2)
        net = ShuffleUNet3d(spec, Rng(32))
        x = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(33))
        labels = Tensor4(Rng(34).randint(0, 2, 8 ** 3).reshape(8, 8, 8, 1))

        params = net.parameters()
        names = list(params)
        tensors = [Tensor4(params[n].value.zyxc.copy()) for n in names]

        def build(leaves):
            for name, leaf in zip(names, leaves):
                holder = params[name]
                holder.value = leaf.value
            net.zero_grad()
            probs = net.forward(x)
            loss = ce_dice_loss(probs, labels)
            # reroute gradients: leaves alias the live parameter nodes
            for name, leaf in zip(names, leaves):
                leaf.grad = params[name].grad
            return loss

        assert fd_gradient_error(build, tensors) < 1e-5


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(35))
        path = tmp_path / "model.vckp"
        save_checkpoint(path, net.parameters())
        loaded = load_checkpoint(path)
        assert list(loaded) == list(net.parameters())
        for name, node in net.parameters().items():
            assert tensors_equal(loaded[name], node.value)

    def test_load_into_compatible_network(self, tmp_path):
        net = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(36))
        path = tmp_path / "model.vckp"
        save_checkpoint(path, net.parameters())
        other = ShuffleUNet3d(small_spec(factors=(2, 2, 2)), Rng(999))
        load_into_network(other, load_checkpoint(path))
        t = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(37))
        assert tensors_equal(other.forward(t).value, net.forward(t).value)

    def test_name_mismatch_rejected(self, tmp_path):
        net = ShuffleUNet3d(small_spec(), Rng(39))
        path = tmp_path / "model.vckp"
        save_checkpoint(path, net.parameters())
        other = ShuffleUNet3d(small_spec(widths=(4, 8, 8)), Rng(40))
        with pytest.raises(CheckpointError):
            load_into_network(other, load_checkpoint(path))

    def test_shape_mismatch_rejected(self, tmp_path):
        net = ShuffleUNet3d(small_spec(), Rng(41))
        path = tmp_path / "model.vckp"
        save_checkpoint(path, net.parameters())
        other = ShuffleUNet3d(small_spec(k=6), Rng(42))
        with pytest.raises(CheckpointError):
            load_into_network(other, load_checkpoint(path))

    def test_rejected_load_leaves_every_parameter(self, tmp_path):
        # names match, and only the last layer's shapes differ: the load used to
        # overwrite stem, enc*, up* and dec* before it reached head.weight
        path = tmp_path / "model.vckp"
        save_checkpoint(path, ShuffleUNet3d(small_spec(classes=2), Rng(43)).parameters())
        net = ShuffleUNet3d(small_spec(classes=3), Rng(44))
        before = {name: node.value for name, node in net.parameters().items()}
        snapshot = {name: t.zyxc.tobytes() for name, t in before.items()}
        with pytest.raises(CheckpointError, match="head.weight"):
            load_into_network(net, load_checkpoint(path))
        for name, node in net.parameters().items():
            assert node.value is before[name] and node.value.zyxc.tobytes() == snapshot[name]

    def test_load_adopts_the_tensors(self, tmp_path):
        net = ShuffleUNet3d(small_spec(), Rng(45))
        path = tmp_path / "model.vckp"
        save_checkpoint(path, net.parameters())
        params = load_checkpoint(path)
        other = ShuffleUNet3d(small_spec(), Rng(46))
        load_into_network(other, params)
        assert all(other.parameters()[name].value is t for name, t in params.items())


class TestCheckpointMemory:
    """The default net (k=64, widths 32,64,128, 3 classes): each payload is read once."""

    @pytest.fixture(scope="class")
    def default_checkpoint(self, tmp_path_factory):
        spec = BackboneSpec(class_count=3, factors=(2, 2, 2), stem_channels=64,
                            widths=(32, 64, 128), pool=(2, 2, 2))
        path = tmp_path_factory.mktemp("ckpt") / "model.vckp"
        save_checkpoint(path, ShuffleUNet3d(spec, Rng(47)).parameters())
        return spec, path

    def test_load_checkpoint_holds_one_copy(self, default_checkpoint):
        _, path = default_checkpoint
        params, peak = traced_peak(lambda: load_checkpoint(path))
        size = path.stat().st_size
        assert sum(t.zyxc.nbytes for t in params.values()) > 0.99 * size
        assert peak <= 1.05 * size, (peak, size)  # 2.0x: the whole file, then a copy

    def test_load_into_network_allocates_nothing_new(self, default_checkpoint):
        spec, path = default_checkpoint
        net, params = ShuffleUNet3d(spec, Rng(48)), load_checkpoint(path)
        _, peak = traced_peak(lambda: load_into_network(net, params))
        assert peak <= 0.1 * 2 ** 20, peak  # was one more copy of every weight

    def test_huge_record_refused_before_allocating(self, tmp_path):
        path = tmp_path / "huge.vckp"
        path.write_bytes(MALFORMED_VCKP["payload_claims_2_to_the_40"][0])

        def load():  # 8 TiB of float64 claimed by a 93-byte file
            with pytest.raises(CheckpointError, match="record"):
                load_checkpoint(path)

        _, peak = traced_peak(load)
        assert peak < 2 ** 20, peak


def _checkpoint_bytes(records):
    raw = b"VCKP" + struct.pack("<I", 1)
    for name, extents, values in records:
        raw += (struct.pack("<I", len(name)) + name + struct.pack("<4I", *extents)
                + np.asarray(values, dtype="<f8").tobytes())
    return raw


VALID_CHECKPOINT = _checkpoint_bytes([(b"w", (1, 1, 1, 2), [0.25, -1.0]),
                                      (b"b", (2, 1, 1, 1), [3.0, 0.0])])

_HEADER = _checkpoint_bytes([])
_BIAS = (b"stem.bias", (1, 1, 1, 1), [0.5])

# case: (file bytes, typed error, message pattern)
MALFORMED_VCKP = {
    "bad_magic": (b"JUNKxxxx", CheckpointError, "magic"),
    "short_header": (b"VCKP\x01", CheckpointError, "version"),
    "bad_version": (b"VCKP" + struct.pack("<I", 2), CheckpointError, "version"),
    "cut_name_length": (_HEADER + b"\x01\x00", CheckpointError, "record"),
    "name_past_end": (_HEADER + struct.pack("<I", 9) + b"w", CheckpointError, "record"),
    "cut_extents": (_HEADER + struct.pack("<I", 1) + b"w" + struct.pack("<2I", 1, 1),
                    CheckpointError, "record"),
    "zero_extent": (_checkpoint_bytes([(b"w", (1, 0, 1, 1), [])]), CheckpointError,
                    "extents"),
    "payload_past_end": (VALID_CHECKPOINT[:-5], CheckpointError, "record"),
    "payload_claims_2_to_the_40": (_HEADER + struct.pack("<I", 1) + b"w"
                                   + struct.pack("<4I", 1024, 1024, 1024, 1) + bytes(64),
                                   CheckpointError, "record"),
    "non_utf8_name": (_checkpoint_bytes([(b"stem.\xff", (1, 1, 1, 1), [0.5])]),
                      CheckpointError, "UTF-8"),
    "duplicate_name": (_checkpoint_bytes([_BIAS, _BIAS]), CheckpointError, "duplicate"),
    **{f"{label}_weight": (_checkpoint_bytes([_BIAS, (b"head.bias", (1, 1, 1, 1), [value])]),
                           NonFiniteWeightsError, "'head.bias'")
       for label, value in (("nan", math.nan), ("inf", math.inf), ("neg_inf", -math.inf))},
}


class TestCheckpointMalformed:
    def test_valid_bytes_load(self, tmp_path):
        path = tmp_path / "ok.vckp"
        path.write_bytes(VALID_CHECKPOINT)  # payload_past_end cuts its last record
        loaded = load_checkpoint(path)
        assert list(loaded) == ["w", "b"] and loaded["b"].flat.tolist() == [3.0, 0.0]

    @pytest.mark.parametrize("case", sorted(MALFORMED_VCKP))
    def test_typed_error(self, tmp_path, case):
        raw, error, pattern = MALFORMED_VCKP[case]
        path = tmp_path / "bad.vckp"
        path.write_bytes(raw)
        with pytest.raises(error, match=pattern):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(MALFORMED_VCKP))
    def test_infer_exit_code(self, tmp_path, capsys, case):
        raw, error, _ = MALFORMED_VCKP[case]
        path = tmp_path / "bad.vckp"
        path.write_bytes(raw)
        out = tmp_path / "prob.vvol"
        rc = main(["infer", "--checkpoint", str(path), "--input", str(tmp_path / "img.vvol"),
                   "--out-prob", str(out), "--out-labels", str(tmp_path / "lab.vvol")])
        assert rc == (EXIT_NUMERIC if error is NonFiniteWeightsError else EXIT_DATA)
        assert str(path) in capsys.readouterr().err  # the reader failed, not a later step
        assert not out.exists()


class TestCheckpointFuzz:
    """Whatever the bytes, load_checkpoint returns tensors or raises CheckpointError."""

    @given(raw=st.one_of(st.binary(max_size=128),
                         st.binary(max_size=128).map(lambda b: b"VCKP\x01\0\0\0" + b)))
    @FUZZ
    def test_arbitrary_bytes(self, tmp_path, raw):
        self._load(tmp_path, raw)

    @given(raw=mutated([VALID_CHECKPOINT]))
    @FUZZ
    def test_mutated_valid_file(self, tmp_path, raw):
        self._load(tmp_path, raw)

    @staticmethod
    def _load(tmp_path, raw):
        path = tmp_path / "fuzz.vckp"
        path.write_bytes(raw)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
