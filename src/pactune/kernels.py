"""Flat-array numeric kernels, in numpy, and the training path's numeric error.

The loops that run once per optimizer step over every trainable parameter
(AdamW update, noise application) live here, so the optimizer, the
perturbed step and the objective share one implementation of each.
``NumericsError`` is defined here, below every training module, since each
of them may raise it; the tape in ``autodiff`` raises it too.
"""

import numpy as np

BACKEND = "numpy"


class NumericsError(Exception):
    """A non-finite number on the training path or the tape; the descent loop
    turns a step's into a ``DivergenceError``."""


def adam_update(param, m, v, grad, t, lr, beta1, beta2, eps, lr_decay):
    """Bias-corrected AdamW step on one flat array, updating ``m``, ``v`` and
    ``param`` in place; ``lr_decay`` is ``lr * weight_decay``, or None."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    step = (lr / bc1) * m / (np.sqrt(v / bc2) + eps)
    if lr_decay is not None:
        step += lr_decay * param
    param -= step


def apply_noise(param, std, tau, out):
    """Write param + std * tau into ``out``, which must not overlap the inputs,
    and return it; the inputs are never mutated."""
    return np.add(param, np.multiply(std, tau, out=out), out=out)

