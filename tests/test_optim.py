import numpy as np
import pytest

from conftest import from_flat
from voxseg.cli.config import ConfigError, TrainConfig
from voxseg.nn import Node
from voxseg.optim import INITIAL_LR_BY_FACTORS, SgdState, sgd_step
from voxseg.tensor import Rng, Shape4, Tensor4


def param(values):
    return Node(from_flat(Shape4(len(values), 1, 1, 1), values))


def step(params, state, *grads):
    """Set each parameter's ``grad`` to the matching array, then take one step."""
    for node, g in zip(params.values(), grads):
        node.grad[...] = np.asarray(g, dtype=float).reshape(node.grad.shape)
    return sgd_step(params, state)


class TestSgdStep:
    def test_plain_gradient_step(self):
        p = {"w": param([1.0])}
        state = SgdState(p, lr=0.1, momentum=0.0, weight_decay=0.0)
        step(p, state, [1.0])
        assert p["w"].value.flat.tolist() == [0.9]
        assert state.iteration == 1

    def test_two_momentum_steps(self):
        # v1 = 1, w1 = -0.1; v2 = 0.9 + 1 = 1.9, w2 = -0.1 - 0.19 = -0.29
        p = {"w": param([0.0])}
        state = SgdState(p, lr=0.1, momentum=0.9, weight_decay=0.0)
        step(p, state, [1.0])
        assert abs(p["w"].value.flat[0] - (-0.1)) < 1e-15
        step(p, state, [1.0])
        assert abs(p["w"].value.flat[0] - (-0.29)) < 1e-15

    def test_zero_gradient_zero_velocity_is_noop(self):
        p = {"w": param([2.0, -3.0])}
        state = SgdState(p, lr=0.5, momentum=0.9, weight_decay=0.0)
        step(p, state, [0.0, 0.0])
        assert p["w"].value.flat.tolist() == [2.0, -3.0]

    def test_weight_decay_pulls_to_zero(self):
        p = {"w": param([1.0])}
        state = SgdState(p, lr=0.1, momentum=0.0, weight_decay=0.5)
        step(p, state, [0.0])
        # v = 0.5 * 1.0; w = 1 - 0.1 * 0.5
        assert abs(p["w"].value.flat[0] - 0.95) < 1e-15

    def test_non_finite_gradient_skips(self):
        p = {"w": param([1.0])}
        state = SgdState(p, lr=0.1, momentum=0.0, weight_decay=0.0)
        with pytest.warns(RuntimeWarning):
            applied = step(p, state, [float("nan")])
        assert applied is False
        assert p["w"].value.flat.tolist() == [1.0]
        assert state.iteration == 0

    def test_state_of_other_parameters_rejected(self):
        state = SgdState({"w": param([1.0])}, lr=0.1)
        with pytest.raises(ValueError):
            sgd_step({"v": param([1.0])}, state)

    def test_matches_closed_form_without_momentum(self):
        rng = Rng(1)
        p = {"w": Node(Tensor4.gaussian(Shape4(3, 2, 1, 2), 0, 1, rng))}
        g = Tensor4.gaussian(Shape4(3, 2, 1, 2), 0, 1, rng)
        before = Tensor4(p["w"].value.zyxc.copy())
        state = SgdState(p, lr=0.05, momentum=0.0, weight_decay=0.0)
        step(p, state, g.zyxc)
        assert np.array_equal(p["w"].value.zyxc, before.zyxc - 0.05 * g.zyxc)

    def test_converges_on_convex_quadratic(self):
        # f(w) = 0.5 (w - t)' A (w - t), A diag(2, 0.5)
        target = np.array([1.0, -2.0])
        diag = np.array([2.0, 0.5])
        p = {"w": param([0.0, 0.0])}
        state = SgdState(p, lr=0.2, momentum=0.9, weight_decay=0.0)
        for _ in range(500):
            w = p["w"].value.flat
            grad = diag * (w - target)
            step(p, state, grad)
        assert np.abs(p["w"].value.flat - target).max() < 1e-8


def lr_at(initial, period, iteration):
    """``SgdState.lr`` after ``iteration`` applied steps."""
    state = SgdState({"w": param([0.0])}, lr=initial, halving_period=period)
    state.iteration = iteration
    return state.lr


class TestSchedule:
    def test_initial_value(self):
        assert lr_at(2e-3, 3000, 0) == 2e-3

    def test_first_halving(self):
        assert lr_at(2e-3, 3000, 3000) == 1e-3

    def test_two_halvings(self):
        assert lr_at(1e-3, 3000, 8999) == 2.5e-4

    def test_non_increasing_powers_of_two(self):
        values = [lr_at(1e-2, 10, i) for i in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v == 1e-2 * 0.5 ** (i // 10) for i, v in enumerate(values))

    def test_default_period(self):
        assert SgdState({"w": param([0.0])}, lr=1e-3).halving_period == 3000

    def test_advances_on_applied_steps_only(self):
        p = {"w": param([1.0])}
        state = SgdState(p, lr=0.1, momentum=0.0, weight_decay=0.0, halving_period=2)
        step(p, state, [0.0])
        with pytest.warns(RuntimeWarning):
            step(p, state, [float("nan")])
        assert state.lr == 0.1
        step(p, state, [0.0])
        assert state.lr == 0.05
        with pytest.raises(AttributeError):
            state.lr = 0.1

    def test_invalid(self):
        p = {"w": param([0.0])}
        with pytest.raises(ValueError):
            SgdState(p, lr=0.0, halving_period=10)
        with pytest.raises(ValueError):
            SgdState(p, lr=1e-3, halving_period=0)


def looked_up_lr(factors):
    return TrainConfig(factors=factors, initial_lr=0.0).resolved_initial_lr()


class TestLrLookup:
    def test_tabulated_values(self):
        assert looked_up_lr((2, 2, 2)) == 1.0e-3
        assert looked_up_lr((4, 4, 2)) == 2.0e-3
        assert looked_up_lr((25, 25, 2)) == 2.0e-2

    def test_baseline(self):
        assert looked_up_lr((1, 1, 1)) == 1.0e-3

    def test_unknown_factors_require_explicit_rate(self):
        with pytest.raises(ConfigError, match=r"shuffle factors \(3, 3, 3\); set one explicitly"):
            looked_up_lr((3, 3, 3))
        assert TrainConfig(factors=(3, 3, 3), initial_lr=0.004).resolved_initial_lr() == 0.004

    def test_table_is_complete(self):
        assert set(INITIAL_LR_BY_FACTORS) == {
            (1, 1, 1), (2, 2, 2), (4, 4, 2), (8, 8, 2), (16, 16, 2), (25, 25, 2)
        }
