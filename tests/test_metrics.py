import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voxseg.metrics import (BinaryMask, EmptyMaskError, _directed_distances, asd, dice,
                            extract_surface, hausdorff, per_class_metrics)
from voxseg.tensor import Rng, Tensor4
from voxseg.volume import (Volume, elastic_augment, gen_synthetic,
                           random_deformation)

SIX_NEIGHBORS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]


def mask_from_voxels(extents, voxels, spacing=(1.0, 1.0, 1.0)):
    """Build a mask from (x, y, z) foreground coordinates."""
    X, Y, Z = extents
    arr = np.zeros((Z, Y, X), dtype=bool)
    for x, y, z in voxels:
        arr[z, y, x] = True
    return BinaryMask(arr, spacing)


# -- independent brute-force oracle (deliberately loop-based) ----------------

def brute_surface(mask):
    Z, Y, X = mask.voxels.shape
    pts = []
    for z in range(Z):
        for y in range(Y):
            for x in range(X):
                if not mask.voxels[z, y, x]:
                    continue
                for dx, dy, dz in SIX_NEIGHBORS:
                    nx, ny, nz = x + dx, y + dy, z + dz
                    outside = not (0 <= nx < X and 0 <= ny < Y and 0 <= nz < Z)
                    if outside or not mask.voxels[nz, ny, nx]:
                        pts.append((x, y, z))
                        break
    return pts


def brute_asd_hd(a, b):
    sa, sb = brute_surface(a), brute_surface(b)
    if not sa or not sb:
        raise EmptyMaskError("empty")
    sp = a.spacing

    def nearest(p, surface):
        best = math.inf
        for q in surface:
            d2 = ((p[0] - q[0]) * sp[0]) ** 2 + ((p[1] - q[1]) * sp[1]) ** 2 \
                + ((p[2] - q[2]) * sp[2]) ** 2
            if d2 < best:
                best = d2
        return math.sqrt(best)

    d_ab = [nearest(p, sb) for p in sa]
    d_ba = [nearest(q, sa) for q in sb]
    mean = math.fsum(d_ab + d_ba) / (len(sa) + len(sb))
    peak = max(max(d_ab), max(d_ba))
    return mean, peak


# -- vectorised all-pairs reference (the metric before the kd-tree bound) -----

def all_pairs_directed(src, dst, spacing, chunk=512):
    """Nearest-surface distance per source voxel, minimized over every pair."""
    sp = np.asarray(spacing)
    out = np.empty(len(src))
    for start in range(0, len(src), chunk):
        block = src[start : start + chunk]
        delta = (block[:, None, :] - dst[None, :, :]).astype(np.float64) * sp
        d2 = (delta * delta).sum(axis=2)
        out[start : start + chunk] = np.sqrt(d2.min(axis=1))
    return out


def all_pairs_asd_hd(a, b):
    sa, sb = extract_surface(a), extract_surface(b)
    d_ab = all_pairs_directed(sa, sb, a.spacing)
    d_ba = all_pairs_directed(sb, sa, a.spacing)
    mean = math.fsum(d_ab.tolist() + d_ba.tolist()) / (len(sa) + len(sb))
    return mean, float(max(d_ab.max(), d_ba.max()))


class TestDice:
    def test_identical_masks(self):
        m = mask_from_voxels((3, 3, 3), [(0, 0, 0), (1, 1, 1)])
        assert dice(m, m) == 1.0

    def test_disjoint_masks(self):
        a = mask_from_voxels((3, 3, 3), [(0, 0, 0)])
        b = mask_from_voxels((3, 3, 3), [(2, 2, 2)])
        assert dice(a, b) == 0.0

    def test_half_overlap(self):
        a = mask_from_voxels((4, 1, 1), [(0, 0, 0), (1, 0, 0)])
        b = mask_from_voxels((4, 1, 1), [(1, 0, 0), (2, 0, 0)])
        assert dice(a, b) == 0.5

    def test_both_empty_is_one(self):
        a = mask_from_voxels((2, 2, 2), [])
        assert dice(a, a) == 1.0

    def test_symmetry_and_growth(self):
        rng = Rng(1)
        a_arr = rng.uniform(64).reshape(4, 4, 4) < 0.4
        b_arr = rng.uniform(64).reshape(4, 4, 4) < 0.4
        a, b = BinaryMask(a_arr), BinaryMask(b_arr)
        assert dice(a, b) == dice(b, a)

    def test_extent_mismatch(self):
        a = mask_from_voxels((2, 2, 2), [(0, 0, 0)])
        b = mask_from_voxels((3, 2, 2), [(0, 0, 0)])
        with pytest.raises(ValueError):
            dice(a, b)


class TestSurface:
    def test_single_voxel(self):
        m = mask_from_voxels((3, 3, 3), [(1, 1, 1)])
        assert extract_surface(m).tolist() == [[1, 1, 1]]

    def test_solid_cube_surface(self):
        voxels = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        m = mask_from_voxels((3, 3, 3), voxels)
        surface = extract_surface(m)
        assert len(surface) == 26  # everything but the center

    def test_empty_mask(self):
        m = mask_from_voxels((3, 3, 3), [])
        assert extract_surface(m).shape == (0, 3)

    def test_volume_boundary_counts_as_background(self):
        # a full 2^3 block: every voxel touches the boundary
        voxels = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        m = mask_from_voxels((2, 2, 2), voxels)
        assert len(extract_surface(m)) == 8

    def test_matches_brute_force(self):
        rng = Rng(2)
        for _ in range(20):
            arr = rng.uniform(5 * 4 * 3).reshape(3, 4, 5) < 0.5
            m = BinaryMask(arr)
            fast = {tuple(p) for p in extract_surface(m)}
            assert fast == set(brute_surface(m))


class TestAsd:
    def test_identical_masks_zero(self):
        m = mask_from_voxels((4, 4, 4), [(1, 1, 1), (2, 1, 1)])
        assert asd(m, m) == 0.0

    def test_axis_separation(self):
        a = mask_from_voxels((5, 1, 1), [(0, 0, 0)])
        b = mask_from_voxels((5, 1, 1), [(3, 0, 0)])
        assert asd(a, b) == 3.0

    def test_spacing_scales(self):
        a = mask_from_voxels((5, 1, 1), [(0, 0, 0)], spacing=(0.5, 1.0, 1.0))
        b = mask_from_voxels((5, 1, 1), [(3, 0, 0)], spacing=(0.5, 1.0, 1.0))
        assert asd(a, b) == 1.5

    def test_empty_mask_raises(self):
        a = mask_from_voxels((2, 2, 2), [])
        b = mask_from_voxels((2, 2, 2), [(0, 0, 0)])
        with pytest.raises(EmptyMaskError):
            asd(a, b)

    def test_symmetry(self):
        rng = Rng(3)
        a = BinaryMask(rng.uniform(27).reshape(3, 3, 3) < 0.5)
        b = BinaryMask(rng.uniform(27).reshape(3, 3, 3) < 0.5)
        if a.voxels.any() and b.voxels.any():
            assert asd(a, b) == asd(b, a)


class TestHausdorff:
    def test_identical_masks_zero(self):
        m = mask_from_voxels((4, 4, 4), [(1, 1, 1), (2, 2, 2)])
        assert hausdorff(m, m) == 0.0

    def test_worst_point_wins(self):
        a = mask_from_voxels((8, 1, 1), [(0, 0, 0)])
        b = mask_from_voxels((8, 1, 1), [(1, 0, 0), (5, 0, 0)])
        # a->b nearest is 1; b->a distances are 1 and 5
        assert hausdorff(a, b) == 5.0

    def test_symmetric(self):
        rng = Rng(4)
        a = BinaryMask(rng.uniform(64).reshape(4, 4, 4) < 0.4)
        b = BinaryMask(rng.uniform(64).reshape(4, 4, 4) < 0.4)
        assert hausdorff(a, b) == hausdorff(b, a)

    def test_empty_mask_raises(self):
        a = mask_from_voxels((2, 2, 2), [(0, 0, 0)])
        b = mask_from_voxels((2, 2, 2), [])
        with pytest.raises(EmptyMaskError):
            hausdorff(a, b)


class TestOracleEquivalence:
    def test_random_masks_match_brute_force_exactly(self):
        rng = Rng(5)
        spacings = [(1.0, 1.0, 1.0), (0.374, 0.363, 1.078)]
        for trial in range(25):
            spacing = spacings[trial % 2]
            a_arr = rng.uniform(4 ** 3).reshape(4, 4, 4) < 0.35
            b_arr = rng.uniform(4 ** 3).reshape(4, 4, 4) < 0.35
            if not a_arr.any() or not b_arr.any():
                continue
            a, b = BinaryMask(a_arr, spacing), BinaryMask(b_arr, spacing)
            ref_mean, ref_peak = brute_asd_hd(a, b)
            assert asd(a, b) == ref_mean
            assert hausdorff(a, b) == ref_peak


SPACINGS = [(1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (0.374, 0.363, 1.078), (1.0, 1.0, 3.0)]


@st.composite
def mask_pair(draw):
    shape = draw(st.tuples(*[st.integers(1, 7)] * 3))
    spacing = draw(st.sampled_from(SPACINGS))
    a = draw(arrays(bool, shape).filter(np.any))
    b = draw(arrays(bool, shape).filter(np.any))
    return BinaryMask(a, spacing), BinaryMask(b, spacing)


class TestBoundedSearch:
    """The kd-tree bounded minimum equals the all-pairs minimum bit for bit."""

    @given(mask_pair())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_equals_all_pairs_and_brute_force(self, pair):
        a, b = pair
        sa, sb = extract_surface(a), extract_surface(b)
        for src, dst in ((sa, sb), (sb, sa)):
            assert np.array_equal(_directed_distances(src, dst, a.spacing),
                                  all_pairs_directed(src, dst, a.spacing))
        expected = all_pairs_asd_hd(a, b)
        assert (asd(a, b), hausdorff(a, b)) == expected
        assert brute_asd_hd(a, b) == expected

    @pytest.mark.parametrize("spacing", SPACINGS)
    def test_equidistant_destinations(self, spacing):
        # the center voxel sees the two voxels at offset -3 and +3 along each
        # axis at one distance; with isotropic spacing all six tie
        center = (3, 3, 3)
        ring = [(0, 3, 3), (6, 3, 3), (3, 0, 3), (3, 6, 3), (3, 3, 0), (3, 3, 6)]
        a = mask_from_voxels((7, 7, 7), [center], spacing)
        b = mask_from_voxels((7, 7, 7), ring, spacing)
        src = np.array([center])
        dst = extract_surface(b)
        assert np.array_equal(_directed_distances(src, dst, spacing),
                              all_pairs_directed(src, dst, spacing))
        assert (asd(a, b), hausdorff(a, b)) == brute_asd_hd(a, b)
        assert hausdorff(a, b) == 3 * max(spacing)


class TestPerClassMetrics:
    def vol_from(self, arr, classes):
        t = Tensor4(np.asarray(arr, dtype=float)[..., None])
        return Volume(t, (1.0, 1.0, 1.0), classes)

    def test_self_evaluation(self):
        rng = Rng(6)
        arr = rng.randint(0, 3, 27).reshape(3, 3, 3)
        vol = self.vol_from(arr, 3)
        rows = per_class_metrics(vol, vol)
        for row in rows:
            assert row["dice"] == 1.0
            if not math.isnan(row["asd"]):
                assert row["asd"] == 0.0 and row["hausdorff"] == 0.0

    def test_missing_class_reports_nan(self):
        pred = self.vol_from(np.zeros((2, 2, 2)), 2)
        ref = self.vol_from(np.ones((2, 2, 2)), 2)
        rows = per_class_metrics(pred, ref)
        assert rows[0]["dice"] == 0.0
        assert math.isnan(rows[0]["asd"])

    def test_extent_mismatch(self):
        a = self.vol_from(np.zeros((2, 2, 2)), 2)
        b = self.vol_from(np.zeros((2, 2, 3)), 2)
        with pytest.raises(ValueError):
            per_class_metrics(a, b)

    def test_rows_equal_standalone_asd_and_hausdorff(self):
        rng = Rng(7)
        spacing = (0.374, 0.363, 1.078)
        pred_arr = rng.randint(0, 3, 6 * 5 * 4).reshape(6, 5, 4)
        ref_arr = rng.randint(0, 3, 6 * 5 * 4).reshape(6, 5, 4)
        pred = Volume(self.vol_from(pred_arr, 3).tensor, spacing, 3)
        ref = Volume(self.vol_from(ref_arr, 3).tensor, spacing, 3)
        rows = per_class_metrics(pred, ref)
        assert [row["class"] for row in rows] == [1, 2]
        for row in rows:
            pm = BinaryMask.from_labels(pred, row["class"])
            rm = BinaryMask.from_labels(ref, row["class"])
            assert row["asd"] == asd(pm, rm)
            assert row["hausdorff"] == hausdorff(pm, rm)

    def test_rows_equal_all_pairs_on_warped_phantom(self):
        image, labels = gen_synthetic(8, 1, (48, 48, 48), 3,
                                      spacing=(0.374, 0.363, 1.078))[0]
        _, warped = elastic_augment(image, labels, random_deformation(Rng(9), sigma=2.0))
        rows = per_class_metrics(warped, labels)
        assert [row["class"] for row in rows] == [1, 2]
        for row in rows:
            pm = BinaryMask.from_labels(warped, row["class"])
            rm = BinaryMask.from_labels(labels, row["class"])
            assert (row["asd"], row["hausdorff"]) == all_pairs_asd_hd(pm, rm)
