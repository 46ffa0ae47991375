import math

import numpy as np
import pytest

from voxseg.nn import Node, concat_channels
from voxseg.tensor import Rng, Shape4, Tensor4, dot


class TestShape4:
    def test_element_count(self):
        assert Shape4(2, 3, 4, 5).element_count == 120

    def test_zero_extent_rejected(self):
        with pytest.raises(ValueError):
            Shape4(0, 1, 1, 1).validate()
        with pytest.raises(ValueError):
            Shape4(1, 1, 1, 0).validate()

    def test_overflowing_count_rejected(self):
        with pytest.raises(ValueError):
            Shape4(1 << 21, 1 << 21, 1 << 21, 2).validate()


class TestConstructors:
    def test_zeros_single(self):
        t = Tensor4.zeros(Shape4(1, 1, 1, 1))
        assert t.flat.tolist() == [0.0]

    def test_zeros_count(self):
        t = Tensor4.zeros(Shape4(2, 3, 4, 5))
        assert t.size == 120
        assert not t.flat.any()

    def test_zeros_zero_extent_errors(self):
        with pytest.raises(ValueError):
            Tensor4.zeros(Shape4(2, 0, 2, 1))
        with pytest.raises(ValueError):
            Tensor4.zeros(Shape4(2, 2, 2, 0))

    def test_from_flat_length_mismatch(self):
        with pytest.raises(ValueError):
            Tensor4.from_flat(Shape4(2, 2, 2, 1), np.zeros(7))


class TestLayoutLaw:
    def test_offset_formula_everywhere(self):
        sh = Shape4(3, 4, 2, 5)
        t = Tensor4.from_flat(sh, np.arange(sh.element_count))
        for z in range(sh.z):
            for y in range(sh.y):
                for x in range(sh.x):
                    for c in range(sh.c):
                        expected = c + sh.c * (x + sh.x * (y + sh.y * z))
                        assert t.at(x, y, z, c) == expected

    def test_flat_is_layout_order(self):
        sh = Shape4(2, 2, 2, 2)
        t = Tensor4.from_flat(sh, np.arange(16))
        assert t.flat.tolist() == list(range(16))


class TestGaussian:
    def test_sigma_zero_is_constant(self):
        t = Tensor4.gaussian(Shape4(3, 3, 3, 2), mu=1.5, sigma=0.0, rng=Rng(1))
        assert (t.zyxc == 1.5).all()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            Tensor4.gaussian(Shape4(2, 2, 2, 1), 0.0, -1.0, Rng(1))

    def test_sample_mean_bound(self):
        # mean of N(0, 0.01) over 1e5 samples stays within 4*sigma/sqrt(N)
        n = 100_000
        sigma = 0.01
        samples = Rng(12345).normal(n, mu=0.0, sigma=sigma)
        assert abs(samples.mean()) < 4.0 * sigma / math.sqrt(n)
        assert abs(samples.std() - sigma) < 4.0 * sigma / math.sqrt(n)

    def test_same_seed_reproduces_bits(self):
        a = Tensor4.gaussian(Shape4(4, 3, 2, 2), 0.0, 1.0, Rng(99))
        b = Tensor4.gaussian(Shape4(4, 3, 2, 2), 0.0, 1.0, Rng(99))
        assert a.equal(b)


class TestElementwise:
    def test_map(self):
        t = Tensor4.from_flat(Shape4(2, 1, 1, 1), [-1.0, 4.0])
        assert Tensor4(np.abs(t.zyxc)).flat.tolist() == [1.0, 4.0]


def cat(a: Tensor4, b: Tensor4) -> Tensor4:
    return concat_channels(Node(a), Node(b)).value


class TestConcatCrop:
    def test_concat_shapes(self):
        a = Tensor4.zeros(Shape4(2, 2, 2, 1))
        b = Tensor4.zeros(Shape4(2, 2, 2, 3))
        assert cat(a, b).shape == Shape4(2, 2, 2, 4)

    def test_concat_empty_identity(self):
        a = Tensor4.gaussian(Shape4(2, 2, 2, 3), 0, 1, Rng(1))
        empty = Tensor4(np.zeros((2, 2, 2, 0)))
        assert cat(a, empty).equal(a)

    def test_concat_lookup(self):
        a = Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, Rng(2))
        b = Tensor4.gaussian(Shape4(2, 2, 2, 3), 0, 1, Rng(3))
        ab = cat(a, b)
        assert ab.at(1, 0, 1, 3) == b.at(1, 0, 1, 1)
        assert ab.at(1, 1, 1, 1) == a.at(1, 1, 1, 1)

    def test_concat_spatial_mismatch(self):
        a = Tensor4.zeros(Shape4(2, 2, 2, 1))
        b = Tensor4.zeros(Shape4(2, 2, 3, 1))
        with pytest.raises(ValueError, match="spatial mismatch"):
            cat(a, b)

    def test_crop_full_window_identity(self):
        t = Tensor4.gaussian(Shape4(3, 4, 2, 2), 0, 1, Rng(8))
        assert t.crop((0, 0, 0), (3, 4, 2)).equal(t)

    def test_crop_first_fiber(self):
        sh = Shape4(2, 2, 2, 3)
        t = Tensor4.from_flat(sh, np.arange(sh.element_count))
        first = t.crop((0, 0, 0), (1, 1, 1))
        assert first.flat.tolist() == [0.0, 1.0, 2.0]

    def test_crop_out_of_bounds(self):
        t = Tensor4.zeros(Shape4(4, 4, 4, 1))
        with pytest.raises(ValueError):
            t.crop((2, 0, 0), (3, 1, 1))


class TestDot:
    def test_dot_matches_fsum(self):
        rng = Rng(77)
        a = Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, rng)
        b = Tensor4.gaussian(Shape4(4, 4, 4, 2), 0, 1, rng)
        expected = math.fsum((a.flat * b.flat).tolist())
        assert dot(a, b) == expected


class TestRng:
    def test_uniform_range_and_determinism(self):
        u1 = Rng(5).uniform(1000)
        u2 = Rng(5).uniform(1000)
        assert (u1 == u2).all()
        assert u1.min() >= 0.0 and u1.max() < 1.0

    def test_streams_differ_across_seeds(self):
        assert not (Rng(1).uniform(64) == Rng(2).uniform(64)).all()

    def test_spawn_children_independent(self):
        root = Rng(9)
        a = root.spawn(0).uniform(64)
        b = root.spawn(1).uniform(64)
        assert not (a == b).all()
        # spawning does not advance the parent stream
        assert Rng(9).uniform(4).tolist() == root.uniform(4).tolist()

    def test_randint_bounds(self):
        vals = Rng(11).randint(3, 7, 500)
        assert vals.min() >= 3 and vals.max() <= 6

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            Rng(1).randint(4, 4)
