"""The data path works one slab at a time and gives the whole-volume bits.

``Rng.normal``, ``gen_synthetic`` and ``elastic_augment`` fill their outputs
one ``SLAB_VOXELS`` slab at a time. The oracles below are the whole-volume
forms they replaced; each test asserts the same bytes and the same PRNG
counter, and the traced tests bound the scratch held above the output. The
oracles build float-coded labels, so label bytes are compared against the
oracle's labels cast to uint8.
"""

import math

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from conftest import same_bits, traced_peak
from voxseg.tensor import _TWO53_INV, SLAB_VOXELS, Rng, Tensor4
from voxseg.volume import (Volume, _sample_clamped, elastic_augment, gen_synthetic,
                           random_deformation, z_slabs)

MIB = 2 ** 20


def normal_oracle(rng: Rng, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Oracle only: Box-Muller over the whole count in one pass."""
    pairs = (n + 1) // 2
    u1 = rng.uniform(pairs)
    u2 = rng.uniform(pairs)
    u1 = np.where(u1 == 0.0, _TWO53_INV, u1)
    radius = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([radius * np.cos(theta), radius * np.sin(theta)])[:n]
    return mu + sigma * z


def gen_synthetic_oracle(seed, n_volumes, extents, class_count, noise_sigma=0.08,
                         fg_bounds=(0.01, 0.35)):
    """Oracle only: whole-volume phantoms as (image, labels) zyxc array pairs."""
    X, Y, Z = extents
    master = Rng(seed)
    xs = np.arange(X)[None, None, :, None]
    ys = np.arange(Y)[None, :, None, None]
    zs = np.arange(Z)[:, None, None, None]
    levels = np.linspace(0.2, 0.8, class_count)
    dataset = []
    for vi in range(n_volumes):
        rng = master.spawn(vi)
        for _attempt in range(200):
            labels = np.zeros((Z, Y, X, 1))
            for cls in range(1, class_count):
                cx = X * (0.3 + 0.4 * rng.uniform(1)[0])
                cy = Y * (0.3 + 0.4 * rng.uniform(1)[0])
                cz = Z * (0.3 + 0.4 * rng.uniform(1)[0])
                rx = X * (0.12 + 0.16 * rng.uniform(1)[0])
                ry = Y * (0.12 + 0.16 * rng.uniform(1)[0])
                rz = Z * (0.12 + 0.16 * rng.uniform(1)[0])
                if rng.uniform(1)[0] < 0.5:
                    inside = (((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2
                              + ((zs - cz) / rz) ** 2) <= 1.0
                else:
                    inside = ((np.abs(xs - cx) <= rx) & (np.abs(ys - cy) <= ry)
                              & (np.abs(zs - cz) <= rz))
                labels[inside] = float(cls)
            fracs = [(labels == c).mean() for c in range(1, class_count)]
            if all(fg_bounds[0] <= f <= fg_bounds[1] for f in fracs):
                break
        else:
            raise RuntimeError("could not draw foreground fractions inside bounds")
        image = levels[labels.astype(np.int64)]
        image = image + noise_sigma * rng.normal(image.size).reshape(image.shape)
        dataset.append((image, labels))
    return dataset


def elastic_oracle(image: np.ndarray, labels: np.ndarray, corners: np.ndarray):
    """Oracle only: the whole (axis, Z, Y, X) source-coordinate field at once."""
    Z, Y, X, _ = image.shape
    d = np.moveaxis(np.asarray(corners, dtype=np.float64)[..., ::-1], 3, 0)
    for dim, n in ((3, X), (2, Y), (1, Z)):
        ramp = np.arange(n) * (1.0 / (n - 1)) if n > 1 else np.zeros(1)
        a, b = np.split(d, 2, axis=dim)
        d = a + ramp.reshape((n,) + (1,) * (3 - dim)) * (b - a)
    d[0] += np.arange(Z)[:, None, None]
    d[1] += np.arange(Y)[:, None]
    d[2] += np.arange(X)
    src = d.reshape(3, -1)
    img_out = map_coordinates(image[..., 0], src, order=1, mode="nearest")
    lab_out = map_coordinates(labels[..., 0], src, order=0, mode="nearest")
    return img_out.reshape(Z, Y, X, 1), lab_out.reshape(Z, Y, X, 1)


def test_slabs_cover_whole_planes_within_the_budget():
    for z_count, plane in ((1, 1), (7, 4096), (13, 4096), (5, 40000), (96, 96 * 96), (3, 1)):
        slabs = z_slabs(z_count, plane)
        assert [z for sl in slabs for z in range(sl.start, sl.stop)] == list(range(z_count))
        step = max(1, SLAB_VOXELS // plane)
        assert all(sl.stop - sl.start <= step for sl in slabs)


class TestNormalSlabs:
    COUNTS = sorted({0, 1, 2, 3, 5, 7, 24, 999, 2 * SLAB_VOXELS - 3, 2 * SLAB_VOXELS - 1,
                     2 * SLAB_VOXELS, 2 * SLAB_VOXELS + 1, 2 * SLAB_VOXELS + 2,
                     4 * SLAB_VOXELS + 3, 5 * SLAB_VOXELS + 1})

    @pytest.mark.parametrize("n", COUNTS)
    def test_bits_and_counter_match_whole_oracle(self, n):
        for seed, mu, sigma in ((3, 0.0, 1.0), (0xDEADBEEF, -1.5, 0.25)):
            ours, ref = Rng(seed), Rng(seed)
            ours.uniform(5)
            ref.uniform(5)
            assert same_bits(ours.normal(n, mu, sigma), normal_oracle(ref, n, mu, sigma))
            assert repr(ours) == repr(ref)
            assert same_bits(ours.uniform(4), ref.uniform(4))

    def test_uniform_at_explicit_start_leaves_counter(self):
        rng = Rng(11)
        words = rng.uniform(10)
        again = Rng(11)
        assert same_bits(again.uniform(4, 3), words[3:7])
        assert repr(again) == "Rng(seed=0x000000000000000b, counter=0)"

    def test_traced_scratch_at_96_cubed(self):
        n = 96 ** 3
        _, peak = traced_peak(lambda: Rng(5).normal(n))
        assert peak <= 10 * MIB  # output 6.75 MiB; the whole-volume form held 27.0


class TestGenSyntheticSlabs:
    @pytest.mark.parametrize("extents, class_count", [
        ((16, 16, 16), 2),       # one slab
        ((64, 64, 13), 3),       # 8-plane slabs, z not a multiple of the slab
        ((256, 160, 5), 4),      # one x·y plane above the budget: one plane per slab
        ((20, 24, 37), 9),
        ((1, 1, 40), 2),
    ])
    def test_bits_match_whole_oracle(self, extents, class_count):
        fg_bounds = (0.0, 1.0) if min(extents) == 1 else (0.01, 0.35)
        ours = gen_synthetic(77, 2, extents, class_count, fg_bounds=fg_bounds)
        ref = gen_synthetic_oracle(77, 2, extents, class_count, fg_bounds=fg_bounds)
        for (img, lab), (ref_img, ref_lab) in zip(ours, ref):
            assert same_bits(img.tensor.zyxc, ref_img)
            assert same_bits(lab.tensor.zyxc, ref_lab.astype(np.uint8))

    def test_redraws_follow_the_oracle(self):
        # tight bounds force many rejected draws before one is kept
        kw = dict(fg_bounds=(0.1, 0.35))
        (img, lab), = gen_synthetic(5, 1, (24, 20, 18), 2, **kw)
        (ref_img, ref_lab), = gen_synthetic_oracle(5, 1, (24, 20, 18), 2, **kw)
        assert same_bits(img.tensor.zyxc, ref_img)
        assert same_bits(lab.tensor.zyxc, ref_lab.astype(np.uint8))

    def test_traced_scratch_at_96_cubed(self):
        _, peak = traced_peak(lambda: gen_synthetic(3, 1, (96, 96, 96), 3))
        assert peak <= 18 * MIB  # output 13.5 MiB; the whole-volume form held 41.4


def _pair(extents, seed=9):
    X, Y, Z = extents
    rng = Rng(seed)
    image = Tensor4(rng.normal(X * Y * Z).reshape(Z, Y, X, 1))
    labels = Tensor4(rng.randint(0, 4, X * Y * Z).reshape(Z, Y, X, 1).astype(np.float64))
    return Volume(image), Volume(labels, class_count=4)


class TestElasticSlabs:
    @pytest.mark.parametrize("extents", [
        (8, 8, 8), (64, 64, 13), (256, 160, 3), (1, 1, 9), (5, 1, 1), (33, 17, 70)])
    @pytest.mark.parametrize("sigma", [0.0, 0.3, 4.0, 60.0])
    def test_bits_match_whole_oracle(self, extents, sigma):
        image, labels = _pair(extents)
        corners = random_deformation(Rng(int(sigma * 10) + 1), sigma=sigma)
        img, lab = elastic_augment(image, labels, corners)
        ref_img, ref_lab = elastic_oracle(image.tensor.zyxc,
                                          labels.tensor.zyxc.astype(np.float64), corners)
        assert same_bits(img.tensor.zyxc, ref_img)
        assert same_bits(lab.tensor.zyxc, ref_lab.astype(np.uint8))

    def test_traced_scratch_at_96_cubed(self):
        image, labels = _pair((96, 96, 96))
        corners = random_deformation(Rng(2), sigma=15.0)
        _, peak = traced_peak(lambda: elastic_augment(image, labels, corners))
        assert peak <= 20 * MIB  # output 13.5 MiB; the whole-volume form held 40.9


class TestSamplerEdges:
    """The numpy sampler against ``map_coordinates(mode="nearest")`` itself, at the
    coordinates where clamping, flooring and rounding turn."""

    @staticmethod
    def edge_points(n: int) -> np.ndarray:
        below = [-7.3, -1.5]                               # below -1
        near = [-1.0, -0.75, -0.5, -0.25, -0.0]            # in [-1, 0), and -0.0
        inside = [*range(n), *(np.arange(n) + 0.5)]        # integers, n - 1 and .5 ties
        above = [n - 1 - 1e-9, n - 1 + 1e-9, n - 0.75, n, n + 0.5, n + 9.6]
        return np.array(below + near + inside + above, dtype=np.float64)

    @pytest.mark.parametrize("extents", [(4, 5, 6), (1, 4, 3), (3, 1, 1), (1, 1, 1)])
    def test_bits_match_map_coordinates(self, extents):
        rng = Rng(sum(extents))
        image = rng.normal(math.prod(extents)).reshape(extents)
        labels = rng.randint(0, 4, math.prod(extents)).astype(np.uint8).reshape(extents)
        grids = np.meshgrid(*(self.edge_points(n) for n in extents), indexing="ij")
        src = np.stack([g.reshape(-1) for g in grids])
        img_out, lab_out = np.empty(src.shape[1]), np.empty(src.shape[1], np.uint8)
        _sample_clamped(image, labels, src, img_out, lab_out)
        assert same_bits(img_out, map_coordinates(image, src, order=1, mode="nearest"))
        assert same_bits(lab_out, map_coordinates(labels, src, order=0, mode="nearest"))
