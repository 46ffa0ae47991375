"""SGD with momentum, coupled weight decay and a halving learning rate.

Update rule (classic momentum, decay folded into the gradient):

    v <- momentum * v + g + weight_decay * w
    w <- w - lr * v

``SgdState.lr`` is ``initial * 0.5 ** (iteration // halving_period)``. The
iteration counter advances only when a step is actually applied, so after a
step ``lr`` is already the next step's rate; steps with non-finite gradients
are reported and skipped.
"""

from __future__ import annotations

import warnings
from typing import Mapping

import numpy as np

from .nn import Node


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


class SgdState:
    """Velocity buffers, hyperparameters and the applied-step count for one parameter set."""

    def __init__(self, params: Mapping[str, Node], lr: float, momentum: float = 0.9,
                 weight_decay: float = 0.005, halving_period: int = 3000):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        if halving_period < 1:
            raise ValueError(f"halving period must be >= 1, got {halving_period}")
        self.initial_lr = lr
        self.halving_period = halving_period
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(node.value.zyxc) for name, node in params.items()}
        self.iteration = 0

    @property
    def lr(self) -> float:
        """The rate the next applied step uses."""
        return self.initial_lr * 0.5 ** (self.iteration // self.halving_period)


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
    lr = state.lr
    for name, node in params.items():
        v = state.velocity[name]
        w = node.value.zyxc
        v *= state.momentum
        v += node.grad
        if state.weight_decay:
            v += state.weight_decay * w
        w -= lr * v
    state.iteration += 1
    return True
