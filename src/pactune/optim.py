"""Adam-style optimizer with decoupled weight decay, plus learning-rate schedules.

The hyperparameters are module constants, from the fine-tuning recipe this
package implements: beta1 0.9, beta2 0.98, stability constant 1e-3, weight
decay 0.01. Decay applies only where the caller passes ``lr * WEIGHT_DECAY``
and never to noise or prior-variance parameters (decaying a log-std toward 0
would silently pull variances toward 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-3
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class StepDecay:
    init: float
    factor: float
    every: int
    floor: float


LrSchedule = Constant | StepDecay


def schedule_value(sched: LrSchedule, update_index: int) -> float:
    """Learning rate at a 0-based gradient-update index; pure function.

    A step decay is ``max(floor, init * factor ** k)``, k = ``update_index //
    every``. Where the power alone leaves the float range (overflows, or
    underflows to 0), the product is taken as exp(ln init + k ln factor)
    instead, so it is inf only when ``init * factor ** k`` itself overflows.
    """
    if update_index < 0:
        raise ValueError("schedule_value: update_index must be >= 0")
    if isinstance(sched, Constant):
        return sched.value
    k = update_index // sched.every
    try:
        power = sched.factor ** k
    except OverflowError:  # a Python float power raises where a product gives inf
        power = math.inf
    if power in (0.0, math.inf):
        with np.errstate(over="ignore"):
            value = float(np.exp(math.log(sched.init) + k * math.log(sched.factor)))
        return max(sched.floor, value)
    return max(sched.floor, sched.init * power)


class AdamState:
    """Step count ``t`` and moments ``m``, ``v`` of one flat parameter vector."""

    def __init__(self, size: int):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray,
              lr: np.ndarray | float, lr_decay: np.ndarray | float | None = None) -> bool:
    """One bias-corrected update of ``param``, in place.

    ``lr`` is a scalar or a per-coordinate vector. ``lr_decay`` is
    ``lr * WEIGHT_DECAY`` where weight decay applies and None where it does
    not, never a 0 vector, since adding ``0.0 * param`` can flip the sign of
    a zero. A non-finite gradient raises ``NumericsError`` before ``state``
    or ``param`` is written; the descent loop names it as a divergence.
    Always returns True, since every step that returns was applied;
    perfbench's tracer counts applied updates from it.
    """
    if not np.isfinite(grad).all():
        raise kernels.NumericsError("the gradient is not finite")
    state.t += 1
    kernels.adam_update(param, state.m, state.v, grad, state.t, lr, BETA1, BETA2, EPS,
                        lr_decay)
    return True
