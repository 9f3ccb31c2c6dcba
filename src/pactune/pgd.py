"""Perturbed gradient descent: noise in, gradient, noise out, clean update.

Plain descent, the perturbed step and the random-layer baseline share one
step body (``descent_step``); they differ only in the parameter vector at
which the gradient is taken. The perturbed step draws one standard-normal
vector over the model's trainable coordinates, scales it by one std vector
(a fixed isotropic level per group or the learned per-parameter
variances), evaluates the plain training-loss gradient at the perturbed
weights (closed-form backprop, ``models.loss_and_grads``), and lets Adam
update the model's trainable view of θ in place.
The complexity term plays no role here. Noise is drawn even at scale zero,
so runs with and without noise consume the noise stream identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .bound import NoiseState
from .models import GroupPacker, MLPClassifier, loss_and_grads
from .optim import AdamState, adam_step


@dataclass(frozen=True)
class IsotropicNoise:
    """Per-group variances; the injected perturbation is sqrt(variance) * tau."""

    eta_backbone: float
    eta_head: float

    def __post_init__(self):
        if self.eta_backbone < 0.0 or self.eta_head < 0.0:
            raise ValueError("noise variances must be nonnegative")


@dataclass(frozen=True)
class LearnedNoise:
    noise: NoiseState


@dataclass(frozen=True)
class PGDConfig:
    noise_source: IsotropicNoise | LearnedNoise
    lr_backbone: float
    lr_head: float
    weight_decay: bool = True

    def __post_init__(self):
        if self.lr_backbone <= 0.0 or self.lr_head <= 0.0:
            raise ValueError("learning rates must be positive")


def _noise_std(cfg: PGDConfig, packer: GroupPacker) -> np.ndarray:
    if isinstance(cfg.noise_source, IsotropicNoise):
        return packer.per_coordinate(np.sqrt(cfg.noise_source.eta_backbone),
                                     np.sqrt(cfg.noise_source.eta_head))
    return np.exp(cfg.noise_source.noise.log_std)


def descent_step(model: MLPClassifier, batch_x, batch_y, lr_backbone: float,
                 lr_head: float, adam: AdamState, packer: GroupPacker,
                 weight_decay: bool = True, perturb=None) -> float:
    """One Adam step on the training loss, in place; returns the loss.

    ``perturb(theta)`` returns the parameter vector at which the gradient is
    taken (plain descent takes it at ``model.theta``); Adam always updates
    the model's own trainable view ``theta[start:]``, and only when it
    applies the step.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    if batch_x.shape[0] == 0:
        raise ValueError("descent_step: batch must be nonempty")
    at = model.theta if perturb is None else perturb(model.theta)
    loss, grad = loss_and_grads(model, packer, at, batch_x, batch_y)
    adam_step(adam, model.theta[packer.start:], grad,
              packer.per_coordinate(lr_backbone, lr_head), weight_decay)
    return loss


def pgd_step(model: MLPClassifier, batch_x, batch_y, cfg: PGDConfig,
             adam: AdamState, packer: GroupPacker,
             rng: np.random.Generator) -> float:
    """One perturbed step in place; returns the loss at the perturbed point."""

    def perturb(theta):
        std = _noise_std(cfg, packer)
        noisy = theta.copy()
        noisy[packer.start:] = kernels.apply_noise(
            theta[packer.start:], std, rng.standard_normal(packer.trainable_size))
        return noisy

    return descent_step(model, batch_x, batch_y, cfg.lr_backbone, cfg.lr_head, adam,
                        packer, cfg.weight_decay, perturb)


def random_layer_noise_step(model: MLPClassifier, batch_x, batch_y, sigma: float,
                            lr_backbone: float, lr_head: float, adam: AdamState,
                            packer: GroupPacker, rng: np.random.Generator,
                            weight_decay: bool = True) -> float:
    """Noise-injection baseline: perturb one uniformly chosen layer, then step.

    The noise goes into a copy of θ, so a frozen layer can be chosen too and
    its noise never reaches the model.
    """
    if sigma < 0.0:
        raise ValueError("random_layer_noise_step: sigma must be nonnegative")

    def perturb(theta):
        start, stop, _ = packer.layers[int(rng.integers(model.n_layers))]
        noisy = theta.copy()
        noisy[start:stop] += sigma * rng.standard_normal(stop - start)
        return noisy

    return descent_step(model, batch_x, batch_y, lr_backbone, lr_head, adam, packer,
                        weight_decay, perturb)
