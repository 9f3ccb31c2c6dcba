"""Perturbed gradient descent: noise in, gradient, noise out, clean update.

Plain descent, the perturbed step and the random-layer baseline share one
step body (``descent_step``); they differ only in the per-layer arrays at
which the gradient is taken: the model's own, or the perturbed copy of θ the
step fills in the loop's ``StepWorkspace``. The perturbed step draws one
standard-normal vector over the trainable coordinates, scales it by the
learned std vector (stage 2 computes it once), takes the training-loss
gradient at the perturbed weights (``models.loss_and_grads``) and lets Adam
update the model's trainable view of θ in place. The complexity term plays
no role here. Noise is drawn even at scale zero, so runs with and without
noise consume the noise stream identically. Steps trust their batches,
whose datasets the descent loop checked once.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .models import MLPClassifier, StepWorkspace, loss_and_grads
from .optim import AdamState, adam_step


def descent_step(model: MLPClassifier, batch_x, batch_y, adam: AdamState,
                 work: StepWorkspace, weight_decay: bool = True, at=None) -> float:
    """One Adam step on the training loss, in place; returns the loss.

    ``work`` is the loop's workspace for ``model``. The gradient is taken at
    the per-layer ``(w, b)`` arrays ``at``, by default the model's own
    ``work.params``; Adam always updates the model's own trainable view
    ``theta[start:]``, and only when it applies the step.
    """
    loss = loss_and_grads(model, work, work.params if at is None else at,
                          batch_x, batch_y)
    adam_step(adam, work.trainable, work.grad, work.lr, weight_decay)
    return loss


def pgd_step(model: MLPClassifier, batch_x, batch_y, std: np.ndarray,
             adam: AdamState, work: StepWorkspace, rng: np.random.Generator,
             weight_decay: bool = True) -> float:
    """One perturbed step in place; returns the loss at the perturbed point.

    ``std`` is the learned noise std exp(log_std), in trainable order."""
    kernels.apply_noise(work.trainable, std, rng.standard_normal(work.trainable.size),
                        work.noisy_trainable)
    return descent_step(model, batch_x, batch_y, adam, work, weight_decay,
                        work.noisy_params)


def random_layer_noise_step(model: MLPClassifier, batch_x, batch_y, sigma: float,
                            adam: AdamState, work: StepWorkspace,
                            rng: np.random.Generator,
                            weight_decay: bool = True) -> float:
    """Noise-injection baseline: perturb one uniformly chosen layer, then step.

    The noise goes into the workspace's copy of θ, refreshed every step, so
    a frozen layer can be chosen too and its noise never reaches the model.
    """
    if sigma < 0.0:
        raise ValueError("random_layer_noise_step: sigma must be nonnegative")
    start, stop, _ = model.layout.layers[int(rng.integers(model.n_layers))]
    work.noisy[...] = model.theta
    work.noisy[start:stop] += sigma * rng.standard_normal(stop - start)
    return descent_step(model, batch_x, batch_y, adam, work, weight_decay,
                        work.noisy_params)
