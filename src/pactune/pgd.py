"""Perturbed gradient descent: noise in, gradient, noise out, clean update.

Plain descent, the perturbed step and the random-layer baseline share one
step body (``descent_step``); they differ only in where the gradient is
taken. The perturbed step draws fresh standard-normal noise, scales it per
group (a fixed isotropic level or the learned per-parameter variances),
evaluates the plain training-loss gradient at the perturbed weights, and
applies the update to the unperturbed weights through the shared Adam state.
The complexity term plays no role here. Noise is drawn even at scale zero,
so runs with and without noise consume the noise stream identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import kernels
from .bound import NoiseState
from .models import GroupPacker, MLPClassifier, ParamGroup
from .optim import AdamState, adam_step

_GROUPS = (ParamGroup.BACKBONE, ParamGroup.HEAD)


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


def _noise_std(cfg: PGDConfig, packer: GroupPacker) -> dict:
    if isinstance(cfg.noise_source, IsotropicNoise):
        eta = {ParamGroup.BACKBONE: cfg.noise_source.eta_backbone,
               ParamGroup.HEAD: cfg.noise_source.eta_head}
        return {g: np.full(packer.sizes[g], np.sqrt(eta[g])) for g in _GROUPS}
    noise = cfg.noise_source.noise
    return {g: np.exp(noise.log_std(g)) for g in _GROUPS}


def loss_and_grads(model: MLPClassifier, packer: GroupPacker, theta: dict,
                   batch_x: np.ndarray, batch_y: np.ndarray) -> tuple[float, dict]:
    """Cross-entropy and flat per-group gradients at the given packed weights."""
    tape = ad.Tape()
    # leaves are built entry by entry so flat gradients line up with the packer
    leaves = {g: [] for g in _GROUPS}
    per_layer = {}
    for g in _GROUPS:
        for layer, kind, start, stop, shape in packer.entries[g]:
            leaf = tape.leaf(theta[g][start:stop].reshape(shape))
            leaves[g].append(leaf)
            per_layer[(layer, kind)] = leaf
    params = []
    for layer in range(model.n_layers):
        if model.layer_is_trainable(layer):
            params.append((per_layer[(layer, "w")], per_layer[(layer, "b")]))
        else:
            params.append((model.weights[layer], model.biases[layer]))
    loss_t = ad.softmax_cross_entropy(model.forward(batch_x, params), batch_y)
    grads = tape.backward(loss_t)
    flat = {}
    for g in _GROUPS:
        out = np.empty(packer.sizes[g])
        for (_, _, start, stop, _), leaf in zip(packer.entries[g], leaves[g]):
            out[start:stop] = grads[leaf].ravel()
        flat[g] = out
    return loss_t.item(), flat


def descent_step(model: MLPClassifier, batch_x, batch_y, lr_backbone: float,
                 lr_head: float, adam: AdamState, packer: GroupPacker,
                 weight_decay: bool = True, perturb=None) -> float:
    """One Adam step on the training loss, in place; returns the loss.

    ``perturb(model, theta)`` returns the model and packed weights at which
    the gradient is taken (plain descent takes it at the clean weights); the
    update always applies to the clean weights, and only when Adam applied it.
    """
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    if batch_x.shape[0] == 0:
        raise ValueError("descent_step: batch must be nonempty")
    theta = {g: packer.pack(model, g) for g in _GROUPS}
    at_model, at_theta = (model, theta) if perturb is None else perturb(model, theta)
    loss, grads = loss_and_grads(at_model, packer, at_theta, batch_x, batch_y)
    applied = adam_step(
        adam,
        params={"backbone": theta[ParamGroup.BACKBONE], "head": theta[ParamGroup.HEAD]},
        grads={"backbone": grads[ParamGroup.BACKBONE], "head": grads[ParamGroup.HEAD]},
        lr={"backbone": lr_backbone, "head": lr_head},
        apply_weight_decay=weight_decay,
    )
    if applied:
        for g in _GROUPS:
            packer.unpack_into(model, g, theta[g])
    return loss


def pgd_step(model: MLPClassifier, batch_x, batch_y, cfg: PGDConfig,
             adam: AdamState, packer: GroupPacker,
             rng: np.random.Generator) -> float:
    """One perturbed step in place; returns the loss at the perturbed point."""

    def perturb(model, theta):
        std = _noise_std(cfg, packer)
        tau = {g: rng.standard_normal(packer.sizes[g]) for g in _GROUPS}
        return model, {g: kernels.apply_noise(theta[g], std[g], tau[g]) for g in _GROUPS}

    return descent_step(model, batch_x, batch_y, cfg.lr_backbone, cfg.lr_head, adam,
                        packer, cfg.weight_decay, perturb)


def random_layer_noise_step(model: MLPClassifier, batch_x, batch_y, sigma: float,
                            lr_backbone: float, lr_head: float, adam: AdamState,
                            packer: GroupPacker, rng: np.random.Generator,
                            weight_decay: bool = True) -> float:
    """Noise-injection baseline: perturb one uniformly chosen layer, then step."""
    if sigma < 0.0:
        raise ValueError("random_layer_noise_step: sigma must be nonnegative")

    def perturb(model, theta):
        chosen = int(rng.integers(model.n_layers))
        if model.layer_is_trainable(chosen):
            perturbed = {g: theta[g].copy() for g in _GROUPS}
            g = model.group_of(chosen)
            for layer, _, start, stop, _ in packer.entries[g]:
                if layer == chosen:
                    perturbed[g][start:stop] += sigma * rng.standard_normal(stop - start)
            return model, perturbed
        # a frozen layer is not packed: its noisy arrays go into a shallow copy
        noisy = replace(model, weights=list(model.weights), biases=list(model.biases))
        noisy.weights[chosen] = model.weights[chosen] + \
            sigma * rng.standard_normal(model.weights[chosen].shape)
        noisy.biases[chosen] = model.biases[chosen] + \
            sigma * rng.standard_normal(model.biases[chosen].shape)
        return noisy, theta

    return descent_step(model, batch_x, batch_y, lr_backbone, lr_head, adam, packer,
                        weight_decay, perturb)
