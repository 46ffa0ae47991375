import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dot, down_shuffle_reference, from_flat, tensors_equal

from voxseg.nn import BackboneSpec, Node, maxpool3
from voxseg.shuffle import down_shuffle, up_shuffle
from voxseg.tensor import Rng, Shape4, Tensor4


def arange_spatial(nx, ny, nz):
    """Single-channel tensor with value x + nx*y + nx*ny*z at each voxel."""
    vals = np.zeros((nz, ny, nx, 1))
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                vals[z, y, x, 0] = x + nx * (y + ny * z)
    return Tensor4(vals)


class TestFactorRules:
    """Each factor must be >= 1; a positive product is not enough."""

    BAD = [(0, 1, 1), (-1, -1, 2)]

    @pytest.mark.parametrize("factors", BAD)
    def test_down_shuffle_rejects(self, factors):
        with pytest.raises(ValueError, match="must be >= 1"):
            down_shuffle(Tensor4.zeros(Shape4(2, 2, 2, 2)), factors)

    @pytest.mark.parametrize("factors", BAD)
    def test_up_shuffle_rejects(self, factors):
        with pytest.raises(ValueError, match="must be >= 1"):
            up_shuffle(Tensor4.zeros(Shape4(2, 2, 2, 2)), factors)

    @pytest.mark.parametrize("factors", BAD)
    def test_maxpool3_rejects(self, factors):
        with pytest.raises(ValueError, match="must be >= 1"):
            maxpool3(Node(Tensor4.zeros(Shape4(2, 2, 2, 2))), factors)

    @pytest.mark.parametrize("field,factors", [("pool", (0, 2, 2)), ("factors", (-1, -1, 1)),
                                               ("factors", (0, 1, 1)), ("pool", (-1, -1, 2))])
    def test_backbone_spec_rejects(self, field, factors):
        with pytest.raises(ValueError, match="must be >= 1"):
            BackboneSpec(class_count=2, **{field: factors}).validate()


class TestDownShuffle:
    def test_identity_factors(self):
        t = Tensor4.gaussian(Shape4(3, 4, 5, 2), 0, 1, Rng(1))
        assert tensors_equal(down_shuffle(t, (1, 1, 1)), t)

    def test_eight_voxel_arange(self):
        # value x + 2y + 4z lands on channel x + 2y + 4z after a (2,2,2) shuffle
        t = arange_spatial(2, 2, 2)
        out = down_shuffle(t, (2, 2, 2))
        assert out.shape == Shape4(1, 1, 1, 8)
        assert out.flat.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]

    def test_channel_varies_fastest(self):
        # factors (2,1,1) on a (2,1,1,2) tensor: output channels are
        # (x=0,c=0),(x=0,c=1),(x=1,c=0),(x=1,c=1)
        vals = np.zeros((1, 1, 2, 2))
        vals[0, 0, 0] = [10.0, 11.0]
        vals[0, 0, 1] = [20.0, 21.0]
        out = down_shuffle(Tensor4(vals), (2, 1, 1))
        assert out.shape == Shape4(1, 1, 1, 4)
        assert out.flat.tolist() == [10.0, 11.0, 20.0, 21.0]

    def test_non_divisible_rejected(self):
        t = Tensor4.zeros(Shape4(3, 4, 4, 1))
        with pytest.raises(ValueError):
            down_shuffle(t, (2, 2, 2))

    def test_shape_law(self):
        t = Tensor4.gaussian(Shape4(8, 4, 6, 3), 0, 1, Rng(2))
        out = down_shuffle(t, (4, 2, 3))
        assert out.shape == Shape4(2, 2, 2, 3 * 24)
        assert out.size == t.size


class TestUpShuffle:
    def test_identity_factors(self):
        t = Tensor4.gaussian(Shape4(2, 2, 2, 4), 0, 1, Rng(3))
        assert tensors_equal(up_shuffle(t, (1, 1, 1)), t)

    def test_inverse_of_arange_case(self):
        t = from_flat(Shape4(1, 1, 1, 8), np.arange(8.0))
        out = up_shuffle(t, (2, 2, 2))
        assert tensors_equal(out, arange_spatial(2, 2, 2))

    def test_round_trip_random(self):
        t = Tensor4.gaussian(Shape4(4, 4, 4, 3), 0, 1, Rng(4))
        f = (2, 2, 2)
        assert tensors_equal(up_shuffle(down_shuffle(t, f), f), t)

    def test_other_round_trip(self):
        t = Tensor4.gaussian(Shape4(2, 3, 1, 12), 0, 1, Rng(5))
        f = (2, 3, 2)
        assert tensors_equal(down_shuffle(up_shuffle(t, f), f), t)

    def test_non_divisible_channels_rejected(self):
        t = Tensor4.zeros(Shape4(2, 2, 2, 6))
        with pytest.raises(ValueError):
            up_shuffle(t, (2, 2, 2))


class TestFreshOutput:
    @pytest.mark.parametrize("factors", [(1, 1, 1), (2, 2, 2), (2, 3, 1)])
    def test_output_does_not_share_memory(self, factors):
        f = factors
        t = Tensor4.gaussian(Shape4(2 * f[0], 2 * f[1], 2 * f[2], 2), 0, 1, Rng(11))
        down = down_shuffle(t, f)
        up = up_shuffle(down, f)
        assert not np.shares_memory(down.zyxc, t.zyxc)
        assert not np.shares_memory(up.zyxc, down.zyxc)


class TestAdjoint:
    def test_identity_factors(self):
        t = Tensor4.gaussian(Shape4(2, 2, 2, 2), 0, 1, Rng(6))
        # a permutation's adjoint is its inverse: down_shuffle's is up_shuffle
        assert tensors_equal(up_shuffle(t, (1, 1, 1)), t)

    def test_inner_product_exact(self):
        rng = Rng(7)
        for _ in range(20):
            f = (rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3))
            sh = Shape4(f[0] * rng.randint(1, 4), f[1] * rng.randint(1, 4),
                        f[2] * rng.randint(1, 4), rng.randint(1, 3))
            x = Tensor4.gaussian(sh, 0, 1, rng)
            y = Tensor4.gaussian(down_shuffle(x, f).shape, 0, 1, rng)
            assert dot(down_shuffle(x, f), y) == dot(x, up_shuffle(y, f))

    def test_adjoint_of_forward_is_identity(self):
        t = Tensor4.gaussian(Shape4(4, 2, 2, 1), 0, 1, Rng(8))
        f = (2, 2, 2)
        assert tensors_equal(up_shuffle(down_shuffle(t, f), f), t)
        assert tensors_equal(down_shuffle(up_shuffle(down_shuffle(t, f), f), f),
                             down_shuffle(t, f))


class TestReferenceOracle:
    def test_identity_factors(self):
        t = Tensor4.gaussian(Shape4(2, 3, 2, 2), 0, 1, Rng(9))
        assert tensors_equal(down_shuffle_reference(t, (1, 1, 1)), t)

    def test_fig_style_2d_layout(self):
        # (3,3,1) factors on a 3x3 plane with value x + 3y: the nine block
        # offsets land on channels 0..8 in row-major (y slow, x fast) order
        t = arange_spatial(3, 3, 1)
        out = down_shuffle_reference(t, (3, 3, 1))
        assert out.shape == Shape4(1, 1, 1, 9)
        assert out.flat.tolist() == [float(i) for i in range(9)]

    def test_matches_fast_path_randomized(self):
        rng = Rng(10)
        for _ in range(40):
            f = (rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3))
            sh = Shape4(f[0] * rng.randint(1, 3), f[1] * rng.randint(1, 3),
                        f[2] * rng.randint(1, 3), rng.randint(1, 4))
            t = Tensor4.gaussian(sh, 0, 1, rng)
            assert tensors_equal(down_shuffle(t, f), down_shuffle_reference(t, f))


@st.composite
def shuffle_case(draw):
    f = (draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    shape = Shape4(f[0] * draw(st.integers(1, 4)), f[1] * draw(st.integers(1, 4)),
                   f[2] * draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    seed = draw(st.integers(0, 2**31 - 1))
    return f, shape, seed


class TestProperties:
    @given(shuffle_case())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_round_trip_and_conservation(self, case):
        f, shape, seed = case
        t = Tensor4.gaussian(shape, 0, 1, Rng(seed))
        down = down_shuffle(t, f)
        assert tensors_equal(up_shuffle(down, f), t)
        # permutation: multisets of elements agree
        assert np.array_equal(np.sort(down.flat), np.sort(t.flat))
        # shape law
        assert down.size == t.size
        assert down.shape.c == t.shape.c * math.prod(f)

    @given(shuffle_case())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_oracle_equivalence(self, case):
        f, shape, seed = case
        if shape.element_count > 4096:
            shape = Shape4(f[0], f[1], f[2], 2)
        t = Tensor4.gaussian(shape, 0, 1, Rng(seed))
        assert tensors_equal(down_shuffle(t, f), down_shuffle_reference(t, f))
