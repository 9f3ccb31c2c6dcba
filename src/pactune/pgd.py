"""Perturbed gradient descent: noise in, gradient, noise out, clean update.

Plain descent, the perturbed step and the random-layer baseline share one step
body (``descent_step``); with its noise arguments bound, each is a
``step(work, x, y) -> loss`` of the descent loop on its ``StepWorkspace``
``work``, whose ``lr_decay`` fixes the loop's weight decay. They differ only
in where the gradient is taken: at the model's own per-layer arrays, or at the
perturbed copy of θ the step fills in ``work``. The perturbed step scales one
standard-normal draw over the trainable coordinates by the learned std vector,
takes the training-loss gradient at the perturbed weights into ``work.grad``
and lets ``work.adam`` update the model's trainable view of θ in place; the
complexity term plays no role here. Noise is drawn even at scale zero, so runs
with and without noise consume the noise stream identically. Steps trust their
batches, whose datasets the descent loop checked once.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .models import StepWorkspace, loss_and_grads
from .optim import adam_step


def descent_step(work: StepWorkspace, batch_x, batch_y, at=None) -> float:
    """One Adam step on the training loss, in place; returns the loss.

    The gradient is taken at the per-layer ``(w, b)`` arrays ``at``, by
    default the model's own ``work.params``, and left in ``work.grad``; Adam
    always updates the model's own trainable view ``work.trainable``, with
    the workspace's ``lr_decay``, unless the gradient is not finite, which
    raises ``NumericsError``.
    """
    loss = loss_and_grads(work, work.params if at is None else at, batch_x, batch_y)
    adam_step(work.adam, work.trainable, work.grad, work.lr, work.lr_decay)
    return loss


def pgd_step(work: StepWorkspace, batch_x, batch_y, std: np.ndarray,
             rng: np.random.Generator) -> float:
    """One perturbed step in place; returns the loss at the perturbed point.

    ``std`` is the learned noise std exp(log_std), in trainable order."""
    kernels.apply_noise(work.trainable, std, rng.standard_normal(work.trainable.size),
                        work.noisy_trainable)
    return descent_step(work, batch_x, batch_y, work.noisy_params)


def random_layer_noise_step(work: StepWorkspace, batch_x, batch_y, sigma: float,
                            rng: np.random.Generator) -> float:
    """Noise-injection baseline: perturb one uniformly chosen layer, then step.

    The noise goes into the workspace's copy of θ, refreshed every step, so
    a frozen layer can be chosen too and its noise never reaches the model.
    """
    if sigma < 0.0:
        raise ValueError("random_layer_noise_step: sigma must be nonnegative")
    start, stop, _ = work.model.layout.layers[int(rng.integers(work.model.n_layers))]
    work.noisy[...] = work.model.theta
    work.noisy[start:stop] += sigma * rng.standard_normal(stop - start)
    return descent_step(work, batch_x, batch_y, work.noisy_params)
