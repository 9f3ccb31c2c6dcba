"""Perturbed gradient descent: noise in, gradient, noise out, clean update.

Plain descent, the perturbed step and the random-layer baseline share one
step body (``descent_step``); they differ only in the parameter vector, put
in the loop's ``StepWorkspace``, at which the gradient is taken. The
perturbed step draws one standard-normal vector over the trainable
coordinates, scales it by the learned std vector (stage 2 computes it once),
takes the training-loss gradient at the perturbed weights
(``models.loss_and_grads``) and lets Adam update the model's trainable view
of θ in place. The complexity term plays no role here. Noise is drawn even
at scale zero, so runs with and without noise consume the noise stream
identically.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .models import MLPClassifier, StepWorkspace, loss_and_grads
from .optim import AdamState, adam_step


def descent_step(model: MLPClassifier, batch_x, batch_y, adam: AdamState,
                 work: StepWorkspace, weight_decay: bool = True,
                 perturb=None) -> float:
    """One Adam step on the training loss, in place; returns the loss.

    ``work`` is the loop's workspace for ``model``. ``perturb()`` fills
    ``work.noisy`` with the parameter vector at which the gradient is taken
    (plain descent takes it at ``model.theta``); Adam always updates the
    model's own trainable view ``theta[start:]``, and only when it applies
    the step.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    if batch_x.shape[0] == 0:
        raise ValueError("descent_step: batch must be nonempty")
    at = work.params
    if perturb is not None:
        perturb()
        at = work.noisy_params
    loss = loss_and_grads(model, work, at, batch_x, batch_y)
    adam_step(adam, work.trainable, work.grad, work.lr, weight_decay)
    return loss


def pgd_step(model: MLPClassifier, batch_x, batch_y, std: np.ndarray,
             adam: AdamState, work: StepWorkspace, rng: np.random.Generator,
             weight_decay: bool = True) -> float:
    """One perturbed step in place; returns the loss at the perturbed point.

    ``std`` is the learned noise std exp(log_std), in trainable order."""

    def perturb():
        kernels.apply_noise(work.trainable, std,
                            rng.standard_normal(work.packer.trainable_size),
                            work.noisy_trainable)

    return descent_step(model, batch_x, batch_y, adam, work, weight_decay, perturb)


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

    def perturb():
        start, stop, _ = work.packer.layers[int(rng.integers(model.n_layers))]
        work.noisy[...] = model.theta
        work.noisy[start:stop] += sigma * rng.standard_normal(stop - start)

    return descent_step(model, batch_x, batch_y, adam, work, weight_decay, perturb)
