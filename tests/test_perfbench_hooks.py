"""perfbench's span tracer still finds and sees every voxseg function it wraps.

perfbench wraps voxseg's public functions from outside the package, in each
module that looks them up. A refactor that renames such a function, or binds
it where the wrapper cannot reach, drops its span without an error: the run
only prints a "not traced" line, or the layer silently reads 0. Its FLOP
oracle reads the net's layer attributes the same way.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import voxseg.nn as nn
from voxseg.tensor import Rng, Shape4, Tensor4


def load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_hook_found_and_traced_through_a_train_step():
    spans, oracle = load_perfbench("spans"), load_perfbench("oracle")
    originals = (nn.down_shuffle, nn.up_shuffle, nn.conv3d)
    spec = nn.BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=4, widths=(4, 8))
    net = nn.build_backbone(spec, Rng(1))
    patch = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(2))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        nn.backward(nn.ce_dice_loss(net.forward(patch), Tensor4.zeros(Shape4(8, 8, 8, 1))))
    finally:
        tracer.uninstall()
    assert (nn.down_shuffle, nn.up_shuffle, nn.conv3d) == originals
    _, _, calls = tracer.times()
    # forward: the stem's down-shuffle, the decoder's and the head's up-shuffles;
    # backward: each up-shuffle's inverse (the stem's input needs no gradient)
    assert calls["shuffle.down_shuffle"] == 3 and calls["shuffle.up_shuffle"] == 2
    # stem, two encoder levels, the decoder's up-conv and conv, the head
    assert calls["nn.conv3d"] == 6 and calls["nn.conv3d.bwd"] == 6
    assert calls["nn.forward"] == 1 and calls["nn.maxpool3"] == 1
    assert calls["nn.softmax_channels"] == 1
    # the decoder conv reads the skip and up branches in place; perfbench still
    # hooks concat_channels by name until the benchmark edit (ROADMAP item 4)
    assert calls["nn.concat_channels"] == 0
    # the oracle reads the net's conv layers (stem.conv, enc, ups[j].conv, dec,
    # head.conv) and each Conv3d's c_in, c_out and kernel: a forward plus a
    # backward at twice its work
    per_forward = oracle.conv_flops_per_forward(net, (8, 8, 8))
    assert tracer.counters["nn.conv3d.flops"] == 3 * per_forward


def test_checkpoint_round_trip_traced(tmp_path):
    # perfbench's nn.load_checkpoint.s reads 0 if the loader stops going through the
    # module attribute it wraps
    spans = load_perfbench("spans")
    spec = nn.BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=4, widths=(4, 8))
    net, other = nn.ShuffleUNet3d(spec, Rng(1)), nn.ShuffleUNet3d(spec, Rng(3))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        nn.save_checkpoint(tmp_path / "model.vckp", net.parameters())
        nn.load_into_network(other, nn.load_checkpoint(tmp_path / "model.vckp"))
    finally:
        tracer.uninstall()
    _, _, calls = tracer.times()
    assert calls["nn.save_checkpoint"] == 1 and calls["nn.load_checkpoint"] == 1
    patch = Tensor4.gaussian(Shape4(8, 8, 8, 1), 0, 1, Rng(2))
    assert np.array_equal(other.forward(patch).value.zyxc, net.forward(patch).value.zyxc)
