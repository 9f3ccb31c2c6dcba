"""Flat-array numeric kernels, in numpy, and the training path's numeric error.

The loops that run once per optimizer step over every trainable parameter
(fused AdamW update, noise application) live here, so the optimizer, the
perturbed step and the objective share one implementation of each.
``NumericsError`` is defined here, below every training module, since each
of them may raise it; the tape in ``autodiff`` raises it too.
"""

import numpy as np

BACKEND = "numpy"


class NumericsError(Exception):
    """A non-finite number on the training path or the tape; the descent loop
    turns a step's into a ``DivergenceError``."""


def adam_update(param, m, v, grad, t, lr, beta1, beta2, eps, lr_decay, scratch):
    """Bias-corrected AdamW step on one flat array, in place.

    ``lr_decay`` is ``lr * weight_decay``, or None for no decay; ``scratch``
    is two float64 arrays of ``param``'s size that hold the intermediates, so
    a step allocates nothing. The operations and their order are those of
    ``param -= (lr / bc1) * m / (sqrt(v / bc2) + eps) + lr_decay * param``.
    """
    a, b = scratch
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=a)
    v += np.multiply(a, grad, out=a)
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    np.sqrt(np.divide(v, bc2, out=b), out=b)
    b += eps
    step = np.divide(lr, bc1, out=a)
    step *= m
    step /= b
    if lr_decay is not None:
        step += np.multiply(lr_decay, param, out=b)
    param -= step


def apply_noise(param, std, tau, out):
    """Write param + std * tau into ``out``, which must not overlap the inputs,
    and return it; the inputs are never mutated."""
    return np.add(param, np.multiply(std, tau, out=out), out=out)

