import tracemalloc

import numpy as np
import pytest

from voxseg.inference import decode_labels, plan_tiling, predict_volume
from voxseg.nn import BackboneSpec, build_backbone
from voxseg.tensor import Rng, Shape4, Tensor4
from voxseg.volume import Volume, normalize_patch


class FakeNet:
    """Constant- or callable-output stand-in with the predict interface."""

    def __init__(self, class_count, fn):
        self.spec = BackboneSpec(class_count=class_count, widths=(1,))
        self.fn = fn

    def predict(self, patch):
        return self.fn(patch)


def constant_net(probs_vector):
    probs_vector = np.asarray(probs_vector, dtype=float)

    def fn(patch):
        x, y, z = patch.shape.spatial
        out = np.broadcast_to(probs_vector, (z, y, x, len(probs_vector)))
        return Tensor4(np.ascontiguousarray(out))

    return FakeNet(len(probs_vector), fn)


class TestPlanTiling:
    def test_single_patch(self):
        plan = plan_tiling((32, 32, 32), (32, 32, 32), (16, 16, 16))
        assert plan.origins == [(0, 0, 0)]

    def test_boundary_clamp(self):
        plan = plan_tiling((10, 4, 4), (4, 4, 4), (4, 4, 4))
        assert sorted({o[0] for o in plan.origins}) == [0, 4, 6]

    def test_stride_one_gives_every_origin(self):
        plan = plan_tiling((6, 4, 4), (4, 4, 4), (1, 1, 1))
        assert sorted({o[0] for o in plan.origins}) == [0, 1, 2]

    def test_default_stride_is_half_patch(self):
        plan = plan_tiling((8, 8, 8), (4, 4, 4))
        assert plan.stride == (2, 2, 2)

    def test_patch_larger_than_volume_rejected(self):
        with pytest.raises(ValueError):
            plan_tiling((4, 4, 4), (8, 4, 4))

    def test_stride_longer_than_patch_rejected(self):
        # origins 12 apart with 8-voxel patches would skip voxels 8..11
        with pytest.raises(ValueError, match="at most patch"):
            plan_tiling((16, 16, 16), (8, 8, 8), (8, 12, 8))
        assert plan_tiling((16, 16, 16), (8, 8, 8), (8, 8, 8)).origins[-1] == (8, 8, 8)

    def test_full_coverage_random_cases(self):
        rng = Rng(1)
        for _ in range(30):
            extents = tuple(int(rng.randint(3, 12)) for _ in range(3))
            patch = tuple(int(rng.randint(1, e + 1)) for e in extents)
            stride = tuple(int(rng.randint(1, p + 1)) for p in patch)
            plan = plan_tiling(extents, patch, stride)
            covered = np.zeros(extents[::-1], dtype=bool)
            for ox, oy, oz in plan.origins:
                covered[oz : oz + patch[2], oy : oy + patch[1], ox : ox + patch[0]] = True
            assert covered.all()


def image_volume(seed, extents):
    x, y, z = extents
    return Volume(Tensor4.gaussian(Shape4(x, y, z, 1), 0, 1, Rng(seed)),
                  (1.0, 1.0, 1.0), "image")


class TestPredictVolume:
    def test_single_patch_equals_forward(self):
        spec = BackboneSpec(class_count=2, factors=(2, 2, 2), stem_channels=4,
                            widths=(4, 8))
        net = build_backbone(spec, Rng(2))
        vol = image_volume(3, (16, 16, 16))
        out = predict_volume(net, vol, (16, 16, 16), (16, 16, 16))
        direct = net.predict(normalize_patch(vol.tensor))
        assert out.tensor.equal(direct)

    def test_constant_network_constant_output(self):
        # dyadic probabilities so the overlap mean is exact for any cover count
        net = constant_net([0.25, 0.75])
        vol = image_volume(4, (10, 10, 10))
        out = predict_volume(net, vol, (4, 4, 4), (3, 3, 3))
        assert (out.tensor.zyxc[..., 0] == 0.25).all()
        assert (out.tensor.zyxc[..., 1] == 0.75).all()

    def test_probabilities_sum_to_one(self):
        spec = BackboneSpec(class_count=3, factors=(2, 2, 2), stem_channels=4,
                            widths=(4, 8))
        net = build_backbone(spec, Rng(5))
        vol = image_volume(6, (20, 20, 12))
        out = predict_volume(net, vol, (8, 8, 8))
        sums = out.tensor.zyxc.sum(axis=3)
        assert np.abs(sums - 1.0).max() < 1e-9

    def test_two_patch_overlap_matches_mean_oracle(self):
        # network output depends on patch content, so overlapping tiles differ
        class PositionalNet(FakeNet):
            def __init__(self):
                def fn(patch):
                    v = patch.zyxc[0, 0, 0, 0]
                    p0 = 1.0 / (1.0 + np.exp(-v))
                    z, y, x = patch.zyxc.shape[:3]
                    arr = np.empty((z, y, x, 2))
                    arr[..., 0] = p0
                    arr[..., 1] = 1.0 - p0
                    return Tensor4(arr)

                super().__init__(2, fn)

        net = PositionalNet()
        vol = image_volume(7, (6, 4, 4))
        out = predict_volume(net, vol, (4, 4, 4), (2, 2, 2))
        # axis origins along x: 0 and 2; voxels x in [2,4) are covered twice
        tile0 = net.predict(normalize_patch(vol.tensor.crop((0, 0, 0), (4, 4, 4)))).zyxc
        tile1 = net.predict(normalize_patch(vol.tensor.crop((2, 0, 0), (4, 4, 4)))).zyxc
        got = out.tensor.zyxc
        assert np.array_equal(got[:, :, :2, :], tile0[:, :, :2, :])
        assert np.array_equal(got[:, :, 4:, :], tile1[:, :, 2:, :])
        expected_mid = (tile0[:, :, 2:, :] + tile1[:, :, :2, :]) / 2.0
        assert np.array_equal(got[:, :, 2:4, :], expected_mid)

    def test_small_volume_padded_and_cropped(self):
        net = constant_net([0.25, 0.75])
        vol = image_volume(8, (3, 3, 3))
        out = predict_volume(net, vol, (4, 4, 4))
        assert out.extents == (3, 3, 3)
        assert (out.tensor.zyxc[..., 1] == 0.75).all()

    def test_visit_order_does_not_change_decode(self):
        spec = BackboneSpec(class_count=2, factors=(1, 1, 1), stem_channels=4,
                            widths=(4,))
        net = build_backbone(spec, Rng(9))
        vol = image_volume(10, (9, 6, 6))
        out = predict_volume(net, vol, (6, 6, 6), (3, 3, 3))
        labels_fwd = decode_labels(out)

        class ReversedPlanNet:
            def __init__(self, inner):
                self.inner = inner
                self.spec = inner.spec

            def predict(self, patch):
                return self.inner.predict(patch)

        # re-run with reversed origin visiting by monkeypatching the plan
        import voxseg.inference as inf

        orig = inf.plan_tiling

        def reversed_plan(extents, patch, stride=None):
            plan = orig(extents, patch, stride)
            plan.origins = list(reversed(plan.origins))
            return plan

        inf.plan_tiling = reversed_plan
        try:
            out_rev = predict_volume(ReversedPlanNet(net), vol, (6, 6, 6), (3, 3, 3))
        finally:
            inf.plan_tiling = orig
        labels_rev = decode_labels(out_rev)
        assert labels_fwd.tensor.equal(labels_rev.tensor)


def traced_peak(run):
    """``run()``'s result and the peak traced bytes it held above its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPredictVolumeMemory:
    def test_mean_bit_identical_to_counted_cover_oracle(self):
        spec = BackboneSpec(class_count=3, factors=(2, 2, 2), stem_channels=4, widths=(4, 8))
        net = build_backbone(spec, Rng(12))
        vol = image_volume(13, (20, 12, 16))
        out = predict_volume(net, vol, (8, 8, 8), (4, 3, 8))
        total = np.zeros((16, 12, 20, 3))
        cover = np.zeros((16, 12, 20, 1))
        for ox, oy, oz in plan_tiling((20, 12, 16), (8, 8, 8), (4, 3, 8)).origins:
            tile = normalize_patch(vol.tensor.crop((ox, oy, oz), (8, 8, 8)))
            total[oz : oz + 8, oy : oy + 8, ox : ox + 8] += net.predict(tile).zyxc
            cover[oz : oz + 8, oy : oy + 8, ox : ox + 8] += 1.0
        assert np.array_equal(out.tensor.zyxc.view(np.int64), (total / cover).view(np.int64))

    def test_predict_volume_traced_peak_near_its_output(self):
        # a full-volume cover array and a separate mean made 2.4x the output
        net = constant_net([0.25, 0.5, 0.25])
        vol = image_volume(14, (64, 48, 40))
        out, peak = traced_peak(lambda: predict_volume(net, vol, (16, 16, 16), (8, 6, 16)))
        assert peak < 1.25 * out.tensor.zyxc.nbytes, peak / out.tensor.zyxc.nbytes

    def test_decode_labels_traced_peak_near_its_output(self):
        # an integer argmax and a float copy of it, then a floored copy for the
        # label check, made 2.1x the output
        probs = Volume(Tensor4(Rng(15).uniform(32 * 24 * 40 * 3).reshape(32, 24, 40, 3)),
                       (1.0, 1.0, 1.0), "image")
        out, peak = traced_peak(lambda: decode_labels(probs))
        assert peak < 1.25 * out.tensor.zyxc.nbytes, peak / out.tensor.zyxc.nbytes


class TestDecodeLabels:
    def test_one_hot_exact(self):
        arr = np.zeros((2, 2, 2, 3))
        arr[..., 2] = 1.0
        vol = Volume(Tensor4(arr), (1, 1, 1), "image")
        out = decode_labels(vol)
        assert (out.tensor.zyxc == 2.0).all()
        assert out.class_count == 3

    def test_tie_breaks_to_lowest_class(self):
        arr = np.full((1, 1, 1, 2), 0.5)
        vol = Volume(Tensor4(arr), (1, 1, 1), "image")
        assert decode_labels(vol).tensor.at(0, 0, 0, 0) == 0.0

    def test_matches_bruteforce_argmax(self):
        rng = Rng(11)
        raw = rng.uniform(4 * 4 * 4 * 3).reshape(4, 4, 4, 3)
        vol = Volume(Tensor4(raw), (1, 1, 1), "image")
        out = decode_labels(vol).tensor.zyxc[..., 0]
        for z in range(4):
            for y in range(4):
                for x in range(4):
                    best = max(range(3), key=lambda c: (raw[z, y, x, c], -c))
                    assert out[z, y, x] == best
