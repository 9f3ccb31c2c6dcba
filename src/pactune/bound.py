"""Posterior/prior parameterization and the trainable generalization bound.

The stage-1 objective is

    J = L_train + (ln(1/delta) + KL_backbone + KL_head) / (gamma * m) + gamma * K^2

where L_train is the cross-entropy at parameters perturbed by one draw of
reparameterized Gaussian noise (w + exp(p) * tau, tau standard normal), the
KL terms compare the diagonal posterior N(w, exp(2p)) against an isotropic
prior N(anchor, exp(prior_log_var) * I), gamma is either fixed or the
closed-form minimizer over a user range, and K, fixed or tracking the
dispersion of per-batch losses, is a ``KTracker``'s value. Everything except
gamma and K is differentiable; both are per-step constants. ``pac_objective``,
given K and the variances by its caller, takes J's gradients in closed form,
trusting its batch as every step does; dJ/dw goes into the loop's
``work.grad``, like every step's weight gradient. ``autodiff`` holds their
checks (the tape, and ``objective_gradcheck`` by central differences of J);
this module imports none of it.
Each group's KL and the sum its prior derivative needs come from one pass
(``_kl``), which the checked public ``kl_diag_vs_isotropic`` shares; a noise
draw is one ``standard_normal`` vector, taken by the caller (stage 1 takes
it from its noise stream) and put on the weights by ``kernels.apply_noise``.
A noise state follows the trainable order of ``model.layout``.

Variances are modeled as exp(2p) so positivity is structural, and p is
initialized at the log magnitude of the initial weights (floored, since
biases start at zero). Head noise starts a factor of 10 above backbone noise
to reflect the lower confidence in freshly initialized head weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import kernels
from .models import (MLPClassifier, ParamGroup, StepWorkspace, group_slice, json_numbers,
                     loss_and_grads, read_versioned)

K_FLOOR = 1e-3
P_INIT_FLOOR = 1e-4
HEAD_NOISE_BOOST = math.log(10.0)


@dataclass(frozen=True)
class FixedGamma:
    value: float


@dataclass(frozen=True)
class AutoGamma:
    """Closed-form minimizer of the complexity term, clipped to [low, high]."""

    low: float
    high: float


@dataclass(frozen=True)
class FixedK:
    value: float


@dataclass(frozen=True)
class RunningK:
    ema_decay: float = 0.99


@dataclass(frozen=True)
class BoundConfig:
    m: int
    delta: float = 0.05
    gamma: FixedGamma | AutoGamma = FixedGamma(5.0)
    k: FixedK | RunningK = RunningK()

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if isinstance(self.gamma, FixedGamma) and self.gamma.value <= 0.0:
            raise ValueError("fixed gamma must be positive")
        if isinstance(self.gamma, AutoGamma):
            if self.gamma.low <= 0.0 or self.gamma.low > self.gamma.high:
                raise ValueError("auto gamma needs 0 < low <= high")
        if isinstance(self.k, FixedK) and self.k.value <= 0.0:
            raise ValueError("fixed K must be positive")
        if isinstance(self.k, RunningK) and not 0.0 < self.k.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")


@dataclass
class BoundTerms:
    l_train: float
    kl_backbone: float
    kl_head: float
    gamma_used: float
    l_pac: float
    j_total: float


@dataclass
class NoiseState:
    """Learned noise in the trainable order of θ, plus the prior log-variances.

    ``params`` is ``[log-stds | backbone prior log-var, head prior log-var]``,
    a layout only this class reads: one log-std per trainable parameter
    (backbone first, ``n_backbone`` of them), then one prior log-variance per
    group, so stage 1 updates all of them in one optimizer call, at the rates
    ``per_coordinate`` lays out, by the ``grad`` that ``pac_objective`` fills
    through its views ``grad_log_std`` and ``grad_prior``. Posterior variance of
    coordinate j is exp(2 * log_std[j]), a group's prior variance
    exp(prior_log_var); ``kl_inputs`` gives a KL its group's share. ``anchors``,
    the trainable weights at fine-tuning start, stay fixed through stage 1: the
    backbone of the checkpoint the run read, and the head the run's seed drew.
    """

    params: np.ndarray
    n_backbone: int
    anchors: np.ndarray | None = None
    grad: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.grad = np.empty_like(self.params)
        self.grad_log_std, self.grad_prior = self.grad[:-2], self.grad[-2:]

    def group(self, group: ParamGroup) -> slice:
        return group_slice(group, self.n_backbone, self.params.size - 2)

    def size(self, group: ParamGroup) -> int:
        return self.params[self.group(group)].size

    def per_coordinate(self, backbone: float, head: float) -> np.ndarray:
        """A vector laid out as ``params``: each group's value at its log-stds and prior."""
        return np.repeat([backbone, head] * 2, [*map(self.size, ParamGroup), 1, 1])

    @property
    def log_std(self) -> np.ndarray:
        return self.params[:-2]

    @property
    def log_std_backbone(self) -> np.ndarray:
        return self.params[self.group(ParamGroup.BACKBONE)]

    @property
    def log_std_head(self) -> np.ndarray:
        return self.params[self.group(ParamGroup.HEAD)]

    def prior_log_var(self, group: ParamGroup) -> float:
        return float(self.params[-2 if group is ParamGroup.BACKBONE else -1])

    def anchor(self, group: ParamGroup | None = None) -> np.ndarray:
        """The group's anchors, or all of them in trainable order."""
        if self.anchors is None:
            raise ValueError("noise state has no anchors bound; they are the fine-tuned "
                             "model's trainable weights at stage 1's start, in no file")
        return self.anchors if group is None else self.anchors[self.group(group)]

    def variances(self, group: ParamGroup | None = None) -> np.ndarray:
        """The group's posterior variances, or all of them in trainable order."""
        v = self.log_std if group is None else self.params[self.group(group)]
        return np.exp(2.0 * v)

    def mean_variance(self, group: ParamGroup) -> float:
        return float(np.mean(self.variances(group))) if self.size(group) else 0.0

    def checked_variances(self) -> np.ndarray | None:
        """``variances()`` if they and exp(prior_log_var) are finite and above 0, else
        None: the one such rule, shared by the noise-file loader and stage 1's guard."""
        with np.errstate(over="ignore"):
            var, prior = self.variances(), np.exp(self.params[-2:])
        ok = var.all() and prior.all() and np.isfinite(var).all() and np.isfinite(prior).all()
        return var if ok else None

    def kl_inputs(self, weights: np.ndarray, var: np.ndarray):
        """Per group, in order, what its KL takes: the group's slice of ``weights``
        and ``var`` (trainable order), its anchors and exp(prior_log_var)."""
        for g in ParamGroup:
            s = self.group(g)
            yield weights[s], var[s], self.anchor(g), math.exp(self.prior_log_var(g))

    def check_fits(self, model: MLPClassifier) -> None:
        """Reject a noise state laid out for another model; both stages call it at entry."""
        for g in ParamGroup:
            if self.size(g) != model.layout.sizes[g]:
                raise ValueError(f"noise state does not match the model's {g.value} size")

    def summary(self) -> dict:
        """The run record's noise summary: mean variance per group, the extremes, sizes."""
        var, b, h = self.variances(), ParamGroup.BACKBONE, ParamGroup.HEAD
        return {"mean_var_backbone": self.mean_variance(b),
                "mean_var_head": self.mean_variance(h),
                "min_var": float(var.min()) if var.size else 0.0,
                "max_var": float(var.max()) if var.size else 0.0,
                "n_backbone": self.size(b), "n_head": self.size(h)}

    def copy(self) -> "NoiseState":
        return replace(self, params=self.params.copy(),
                       anchors=None if self.anchors is None else self.anchors.copy())


def init_noise_state(model: MLPClassifier) -> NoiseState:
    """Noise state at fine-tuning start, in the trainable order of ``model.layout``;
    also snapshots the anchor weights. The head boost and each prior (its group's
    mean starting variance) go in through the state's own ``group`` slices."""
    anchors = model.theta[model.layout.start:].copy()
    noise = NoiseState(np.append(np.log(np.maximum(np.abs(anchors), P_INIT_FLOOR)), [0.0, 0.0]),
                       model.layout.sizes[ParamGroup.BACKBONE], anchors)
    noise.params[noise.group(ParamGroup.HEAD)] += HEAD_NOISE_BOOST
    noise.params[-2:] = [float(np.log(noise.mean_variance(g))) if noise.size(g) else 0.0
                         for g in ParamGroup]
    return noise


NOISE_STATE_VERSION = 1


def save_noise_state(noise: NoiseState, path, anchor_checkpoint: str | None) -> None:
    """Write ``noise`` with the path of the checkpoint its run read, a record
    that no reader reads back."""
    doc = {
        "version": NOISE_STATE_VERSION,
        "p_backbone": noise.log_std_backbone.tolist(),
        "p_head": noise.log_std_head.tolist(),
        "log_lambda": noise.prior_log_var(ParamGroup.BACKBONE),
        "log_beta": noise.prior_log_var(ParamGroup.HEAD),
        "anchor_checkpoint": anchor_checkpoint,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_noise_state(path) -> NoiseState:
    """Read a noise state, without anchors: they are the fine-tuned model's
    trainable weights when stage 1 starts, the checkpoint's backbone and the
    head the run's seed draws, and no file holds them. A file that is not a
    noise state of this version (``read_versioned``), whose values are not
    ``json_numbers``, that holds no head log-std (every model has a head), or
    whose variances exp(2 log-std) and prior variances exp(log-var) are not all
    finite and positive, raises ``ValueError``."""
    doc = read_versioned(path, "noise-state", NOISE_STATE_VERSION)
    try:
        params = np.concatenate([json_numbers(v, f"noise state '{key}'") for key, v in (
            ("p_backbone", doc["p_backbone"]), ("p_head", doc["p_head"]),
            ("log_lambda", [doc["log_lambda"]]), ("log_beta", [doc["log_beta"]]))])
    except KeyError as e:
        raise ValueError(f"malformed noise state: {e!r}") from e
    if not doc["p_head"]:
        raise ValueError("malformed noise state: 'p_head' is empty, but every model has a head")
    noise = NoiseState(params, len(doc["p_backbone"]))
    if noise.checked_variances() is None:  # as stage 1 holds them
        raise ValueError("a log-std or prior log-variance is not finite, or its "
                         "variance is not finite and > 0")
    return noise


def _kl(diff: np.ndarray, var: np.ndarray, var_p: float) -> tuple[float, float]:
    """KL(N(mu_p + diff, diag(var)) || N(mu_p, var_p I)) in one pass, and the
    sum s = sum var + ||diff||^2 that the prior's derivative reuses:

    0.5 * [ s / var_p - d + d ln var_p - sum ln var ]

    A KL is never negative, so one that rounds below 0 (the posterior at the
    prior) is 0; a nan stays nan for the finiteness guards.
    """
    d = diff.size
    s = float(np.sum(var)) + float(np.sum(diff * diff))
    kl = 0.5 * (s / var_p - d + d * math.log(var_p) - float(np.sum(np.log(var))))
    return max(kl, 0.0), s


def kl_diag_vs_isotropic(mu_q: np.ndarray, var_q: np.ndarray, mu_p: np.ndarray,
                         var_p: float) -> float:
    """KL(N(mu_q, diag(var_q)) || N(mu_p, var_p I)) in closed form, after
    checking its inputs; 0 for empty ones."""
    mu_q = np.asarray(mu_q, dtype=np.float64)
    var_q = np.asarray(var_q, dtype=np.float64)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    if mu_q.shape != var_q.shape or mu_q.shape != mu_p.shape:
        raise ValueError("kl_diag_vs_isotropic: array lengths differ")
    if var_p <= 0.0 or np.any(var_q <= 0.0):
        raise ValueError("kl_diag_vs_isotropic: variances must be positive")
    return _kl(mu_q.ravel() - mu_p.ravel(), var_q.ravel(), var_p)[0]


def l_pac(kl_total: float, cfg: BoundConfig, gamma: float, k: float) -> float:
    """(ln(1/delta) + kl_total) / (gamma m) + gamma k^2."""
    if gamma <= 0.0:
        raise ValueError("l_pac: gamma must be positive")
    if kl_total < 0.0:
        raise ValueError("l_pac: kl_total must be nonnegative")
    return (math.log(1.0 / cfg.delta) + kl_total) / (gamma * cfg.m) + gamma * k * k


def optimal_gamma(a: float, m: int, k: float, low: float, high: float) -> float:
    """Minimizer of a/(gamma m) + gamma k^2 over [low, high].

    The unconstrained minimizer is sqrt(a / (m k^2)); the term is convex in
    gamma so clipping to the range preserves optimality. When m k^2
    underflows to 0 that minimizer is +inf, so the result is ``high``.
    """
    if low > high:
        raise ValueError("optimal_gamma: low must not exceed high")
    if a < 0.0 or k <= 0.0 or m < 1:
        raise ValueError("optimal_gamma: need a >= 0, k > 0, m >= 1")
    scale = m * k * k
    if scale == 0.0:
        return float(high)
    return float(min(max(math.sqrt(a / scale), low), high))


class KTracker:
    """A step's K: a fixed K's own value (``update`` ignores losses), or the EMA
    estimate of the std of per-batch training losses, floored at ``K_FLOOR``."""

    def __init__(self, k: FixedK | RunningK):
        self.k = k
        self._mean: float | None = None
        self._var = 0.0

    def update(self, value: float) -> None:
        if isinstance(self.k, FixedK):
            return
        if self._mean is None:
            self._mean = value
            return
        diff = value - self._mean
        incr = (1.0 - self.k.ema_decay) * diff
        self._mean += incr
        self._var = self.k.ema_decay * (self._var + diff * incr)

    @property
    def value(self) -> float:
        if isinstance(self.k, FixedK):
            return self.k.value
        return max(K_FLOOR, math.sqrt(self._var))


def generic_bound(kl_total: float, delta: float, m: int) -> float:
    """sqrt((ln(1/delta) + KL) / (2m)); reported as a diagnostic, never optimized."""
    return math.sqrt((math.log(1.0 / delta) + kl_total) / (2.0 * m))


# --- the objective and its closed-form gradients ---------------------------------


def _group_kl(w: np.ndarray, var: np.ndarray, anchor: np.ndarray, var_p: float,
              ) -> tuple[float, np.ndarray, np.ndarray, float]:
    """One group's KL of N(w, diag var) vs N(anchor, var_p I) and its derivatives
    with respect to w, log_std (var = exp(2 log_std)) and the prior log-variance
    (var_p = exp(prior_log_var)); the two vectors are new arrays, d/dw reusing
    ``w - anchor``'s."""
    diff = w - anchor
    kl, s = _kl(diff, var, var_p)
    d_p = var / var_p
    d_p -= 1.0
    return kl, np.divide(diff, var_p, out=diff), d_p, 0.5 * (w.size - s / var_p)


def pac_objective(work: StepWorkspace, noise: NoiseState, batch_x, batch_y,
                  cfg: BoundConfig, tau: np.ndarray, k: float, var: np.ndarray, *,
                  l_pac_weight: float = 1.0) -> tuple[BoundTerms, np.ndarray]:
    """Evaluate J and its gradients on one batch at the noise draw ``tau``.

    ``tau`` is one standard-normal vector in trainable order, drawn by the
    caller. ``work`` is the loop's workspace, holding the noisy weights; dJ/dw
    is left in ``work.grad``, the returned noise gradient is ``noise.grad``, and
    the next call replaces both; each group's slice of both is ``noise.group``'s,
    as its KL inputs are. The stds and KL derivatives are scratch of this call's
    own. ``k`` is the step's K (``KTracker.value``) and ``var`` is
    ``noise.variances()``, both held by the caller. ``l_pac_weight`` scales the
    complexity term inside the optimized objective; the reported
    ``l_pac``/``j_total`` reflect it, so ``j_total == l_train + l_pac`` holds.

    With w~ = w + exp(p) tau, c = l_pac_weight / (gamma m) and a group's
    prior variance s2 = exp(lambda), gamma and K held constant:
    dJ/dw = dL(w~) + c (w - anchor) / s2,
    dJ/dp = dL(w~) tau exp(p) + c (exp(2p) / s2 - 1), and
    dJ/dlambda = c / 2 (d - (sum exp(2p) + sum (w - anchor)^2) / s2).
    """
    std = np.exp(noise.log_std)
    kernels.apply_noise(work.trainable, std, tau, work.noisy_trainable)
    l_train = loss_and_grads(work, work.noisy_params, batch_x, batch_y)
    (kl_b, kl_h), d_w, d_p, d_prior = zip(*(
        _group_kl(*group) for group in noise.kl_inputs(work.trainable, var)))

    if isinstance(cfg.gamma, FixedGamma):
        gamma = cfg.gamma.value
    else:
        gamma = optimal_gamma(math.log(1.0 / cfg.delta) + kl_b + kl_h, cfg.m, k,
                              cfg.gamma.low, cfg.gamma.high)
    l_pac_scaled = l_pac_weight * l_pac(kl_b + kl_h, cfg, gamma, k)
    terms = BoundTerms(l_train=l_train, kl_backbone=kl_b, kl_head=kl_h,
                       gamma_used=gamma, l_pac=l_pac_scaled,
                       j_total=l_train + l_pac_scaled)
    c = l_pac_weight / (gamma * cfg.m)
    # the noise gradient reads dL(w~) before work.grad becomes dJ/dw
    d_log_std = np.multiply(work.grad, tau, out=noise.grad_log_std)
    d_log_std *= std
    for s, g_w, g_p in zip(map(noise.group, ParamGroup), d_w, d_p):
        d_log_std[s] += np.multiply(c, g_p, out=g_p)
        work.grad[s] += np.multiply(c, g_w, out=g_w)
    noise.grad_prior[:] = [c * d for d in d_prior]
    return terms, noise.grad
