"""SGD with momentum and coupled weight decay, plus the halving LR schedule.

Update rule (classic momentum, decay folded into the gradient):

    v <- momentum * v + g + weight_decay * w
    w <- w - lr * v

The iteration counter advances only when a step is actually applied; steps
with non-finite gradients are reported and skipped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .nn import Node


@dataclass
class LrSchedule:
    """Initial rate halved every ``period`` iterations."""

    initial: float
    period: int = 3000

    def __post_init__(self):
        if self.initial <= 0:
            raise ValueError(f"initial lr must be > 0, got {self.initial}")
        if self.period < 1:
            raise ValueError(f"halving period must be >= 1, got {self.period}")


def lr_at(schedule: LrSchedule, iteration: int) -> float:
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    return schedule.initial * 0.5 ** (iteration // schedule.period)


# Initial learning rate per shuffle factor, as used with the halving schedule.
# Unknown factor triples have no entry on purpose; callers must then supply an
# explicit rate (no interpolation).
INITIAL_LR_BY_FACTORS = {
    (1, 1, 1): 1.0e-3,
    (2, 2, 2): 1.0e-3,
    (4, 4, 2): 2.0e-3,
    (8, 8, 2): 3.0e-3,
    (16, 16, 2): 5.0e-3,
    (25, 25, 2): 2.0e-2,
}


def suggested_initial_lr(factors: tuple[int, int, int]) -> float:
    try:
        return INITIAL_LR_BY_FACTORS[tuple(factors)]
    except KeyError:
        raise ValueError(
            f"no tabulated learning rate for shuffle factors {tuple(factors)}; "
            "set one explicitly"
        ) from None


class SgdState:
    """Velocity buffers and hyperparameters for one parameter set."""

    def __init__(self, params: Mapping[str, Node], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.005):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(node.value.zyxc) for name, node in params.items()}
        self.iteration = 0


def sgd_step(params: Mapping[str, Node], state: SgdState) -> bool:
    """Apply one update from each node's ``grad``, in place.

    Returns False (and skips) on non-finite grads.
    """
    if set(params) != set(state.velocity):
        raise ValueError("parameter and velocity names must match")
    for name, node in params.items():
        if not np.isfinite(node.grad).all():
            warnings.warn(f"non-finite gradient for {name}; step skipped", RuntimeWarning)
            return False
    for name, node in params.items():
        v = state.velocity[name]
        w = node.value.zyxc
        v *= state.momentum
        v += node.grad
        if state.weight_decay:
            v += state.weight_decay * w
        w -= state.lr * v
    state.iteration += 1
    return True
