"""Adam-style optimizer with decoupled weight decay, plus learning-rate schedules.

The hyperparameters are module constants, from the fine-tuning recipe this
package implements: beta1 0.9, beta2 0.98, stability constant 1e-3, weight
decay 0.01. Decay is applied only where explicitly flagged and never to noise
or prior-variance parameters (decaying a log-std toward 0 would silently pull
variances toward 1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels

logger = logging.getLogger(__name__)

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
    """Learning rate at a 0-based gradient-update index; pure function."""
    if update_index < 0:
        raise ValueError("schedule_value: update_index must be >= 0")
    if isinstance(sched, Constant):
        return sched.value
    return max(sched.floor, sched.init * sched.factor ** (update_index // sched.every))


class AdamState:
    """Moment accumulators for one flat parameter vector."""

    def __init__(self, size: int):
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray,
              lr: np.ndarray | float, apply_weight_decay: bool = False) -> bool:
    """One bias-corrected update of ``param``, in place.

    ``lr`` is a scalar or a per-coordinate vector. Weight decay is a per-call
    flag, not a 0/1 vector, since adding ``0.0 * param`` can flip the sign
    of a zero. If the gradient is non-finite the step is skipped (state
    untouched) and a warning is logged; returns whether the step was applied.
    """
    if not np.isfinite(grad).all():
        logger.warning("adam_step: non-finite gradient; step skipped")
        return False
    state.t += 1
    kernels.adam_update(param, state.m, state.v, grad, state.t, lr, BETA1, BETA2, EPS,
                        WEIGHT_DECAY if apply_weight_decay else 0.0)
    return True
