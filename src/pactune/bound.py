"""Posterior/prior parameterization and the trainable generalization bound.

The stage-1 objective is

    J = L_train + (ln(1/delta) + KL_backbone + KL_head) / (gamma * m) + gamma * K^2

where L_train is the cross-entropy at parameters perturbed by one draw of
reparameterized Gaussian noise (w + exp(p) * tau, tau standard normal), the
KL terms compare the diagonal posterior N(w, exp(2p)) against an isotropic
prior N(anchor, exp(prior_log_var) * I), gamma is either fixed or the
closed-form minimizer over a user range, and K tracks the dispersion of
per-batch losses. Everything except gamma and K is differentiable; both are
treated as per-step constants.

Variances are modeled as exp(2p) so positivity is structural, and p is
initialized at the log magnitude of the initial weights (floored, since
biases start at zero). Head noise starts a factor of 10 above backbone noise
to reflect the lower confidence in freshly initialized head weights.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import kernels
from .models import GroupPacker, MLPClassifier, ParamGroup

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
    k_used: float
    l_pac: float
    j_total: float


@dataclass
class NoiseState:
    """Per-parameter log-std for each group, scalar prior log-variances, anchors.

    Posterior variance of coordinate j is exp(2 * log_std[j]); prior variance
    is exp(prior_log_var). Anchors are the weights at fine-tuning start and
    stay fixed through stage 1.
    """

    log_std_backbone: np.ndarray
    log_std_head: np.ndarray
    prior_log_var_backbone: float
    prior_log_var_head: float
    anchor_backbone: np.ndarray | None
    anchor_head: np.ndarray | None
    anchor_checkpoint: str | None = None

    def log_std(self, group: ParamGroup) -> np.ndarray:
        return self.log_std_backbone if group is ParamGroup.BACKBONE else self.log_std_head

    def prior_log_var(self, group: ParamGroup) -> float:
        return (self.prior_log_var_backbone if group is ParamGroup.BACKBONE
                else self.prior_log_var_head)

    def anchor(self, group: ParamGroup) -> np.ndarray:
        a = self.anchor_backbone if group is ParamGroup.BACKBONE else self.anchor_head
        if a is None:
            raise ValueError("noise state has no anchors bound; load them from the "
                             "checkpoint the state references")
        return a

    def variances(self, group: ParamGroup) -> np.ndarray:
        return np.exp(2.0 * self.log_std(group))

    def mean_variance(self, group: ParamGroup) -> float:
        v = self.log_std(group)
        return float(np.mean(np.exp(2.0 * v))) if v.size else 0.0

    def copy(self) -> "NoiseState":
        return NoiseState(
            self.log_std_backbone.copy(), self.log_std_head.copy(),
            self.prior_log_var_backbone, self.prior_log_var_head,
            None if self.anchor_backbone is None else self.anchor_backbone.copy(),
            None if self.anchor_head is None else self.anchor_head.copy(),
            self.anchor_checkpoint,
        )


def init_noise_state(model: MLPClassifier, packer: GroupPacker,
                     anchor_checkpoint: str | None = None) -> NoiseState:
    """Noise state at fine-tuning start; also snapshots the anchor weights."""
    packed = {g: packer.pack(model, g) for g in
              (ParamGroup.BACKBONE, ParamGroup.HEAD)}
    log_std = {g: np.log(np.maximum(np.abs(packed[g]), P_INIT_FLOOR)) for g in packed}
    log_std[ParamGroup.HEAD] = log_std[ParamGroup.HEAD] + HEAD_NOISE_BOOST

    def prior_for(g):
        v = log_std[g]
        return float(np.log(np.mean(np.exp(2.0 * v)))) if v.size else 0.0

    return NoiseState(
        log_std_backbone=log_std[ParamGroup.BACKBONE],
        log_std_head=log_std[ParamGroup.HEAD],
        prior_log_var_backbone=prior_for(ParamGroup.BACKBONE),
        prior_log_var_head=prior_for(ParamGroup.HEAD),
        anchor_backbone=packed[ParamGroup.BACKBONE],
        anchor_head=packed[ParamGroup.HEAD],
        anchor_checkpoint=anchor_checkpoint,
    )


NOISE_STATE_VERSION = 1


def save_noise_state(noise: NoiseState, path) -> None:
    doc = {
        "version": NOISE_STATE_VERSION,
        "p_backbone": noise.log_std_backbone.tolist(),
        "p_head": noise.log_std_head.tolist(),
        "log_lambda": noise.prior_log_var_backbone,
        "log_beta": noise.prior_log_var_head,
        "anchor_checkpoint": noise.anchor_checkpoint,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                          encoding="utf-8")


def load_noise_state(path, anchor_backbone: np.ndarray | None = None,
                     anchor_head: np.ndarray | None = None) -> NoiseState:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("version") != NOISE_STATE_VERSION:
        raise ValueError(f"unsupported noise-state version: {doc.get('version')}")
    return NoiseState(
        log_std_backbone=np.asarray(doc["p_backbone"], dtype=np.float64),
        log_std_head=np.asarray(doc["p_head"], dtype=np.float64),
        prior_log_var_backbone=float(doc["log_lambda"]),
        prior_log_var_head=float(doc["log_beta"]),
        anchor_backbone=anchor_backbone,
        anchor_head=anchor_head,
        anchor_checkpoint=doc.get("anchor_checkpoint"),
    )


def kl_diag_vs_isotropic(mu_q: np.ndarray, var_q: np.ndarray, mu_p: np.ndarray,
                         var_p: float) -> float:
    """KL(N(mu_q, diag(var_q)) || N(mu_p, var_p I)) in closed form.

    0.5 * [ sum var_q / var_p + ||mu_q - mu_p||^2 / var_p - d
            + sum ln(var_p / var_q) ]
    """
    mu_q = np.asarray(mu_q, dtype=np.float64)
    var_q = np.asarray(var_q, dtype=np.float64)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    if mu_q.shape != var_q.shape or mu_q.shape != mu_p.shape:
        raise ValueError("kl_diag_vs_isotropic: array lengths differ")
    if var_p <= 0.0 or np.any(var_q <= 0.0):
        raise ValueError("kl_diag_vs_isotropic: variances must be positive")
    d = mu_q.size
    if d == 0:
        return 0.0
    s_var, s_sq, s_log = kernels.kl_accumulate(mu_q.ravel(), var_q.ravel(),
                                               mu_p.ravel())
    return 0.5 * ((s_var + s_sq) / var_p - d + d * math.log(var_p) - s_log)


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
    gamma so clipping to the range preserves optimality.
    """
    if low > high:
        raise ValueError("optimal_gamma: low must not exceed high")
    if a < 0.0 or k <= 0.0 or m < 1:
        raise ValueError("optimal_gamma: need a >= 0, k > 0, m >= 1")
    return float(np.clip(math.sqrt(a / (m * k * k)), low, high))


class KTracker:
    """Exponentially weighted estimate of the std of per-batch training losses."""

    def __init__(self, ema_decay: float = 0.99):
        self.decay = ema_decay
        self._mean: float | None = None
        self._var = 0.0

    def update(self, value: float) -> None:
        if self._mean is None:
            self._mean = value
            self._var = 0.0
            return
        diff = value - self._mean
        incr = (1.0 - self.decay) * diff
        self._mean += incr
        self._var = self.decay * (self._var + diff * incr)

    @property
    def value(self) -> float:
        return max(K_FLOOR, math.sqrt(self._var))


def estimate_k(loss_history, mode: FixedK | RunningK) -> float:
    """Resolve the effective loss-dispersion constant K."""
    if isinstance(mode, FixedK):
        return mode.value
    if len(loss_history) == 0:
        raise ValueError("estimate_k: running estimate needs a nonempty history")
    tracker = KTracker(mode.ema_decay)
    for v in loss_history:
        tracker.update(float(v))
    return tracker.value


def perturb_params(params: np.ndarray, log_std: np.ndarray,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One reparameterized noise draw: params + exp(log_std) * tau, tau returned."""
    params = np.asarray(params, dtype=np.float64)
    log_std = np.asarray(log_std, dtype=np.float64)
    if params.shape != log_std.shape:
        raise ValueError("perturb_params: array lengths differ")
    tau = rng.standard_normal(params.shape)
    return kernels.apply_noise(params, np.exp(log_std), tau), tau


def generic_bound(kl_total: float, delta: float, m: int) -> float:
    """sqrt((ln(1/delta) + KL) / (2m)); reported as a diagnostic, never optimized."""
    return math.sqrt((math.log(1.0 / delta) + kl_total) / (2.0 * m))


# --- differentiable objective -------------------------------------------------

_GROUPS = (ParamGroup.BACKBONE, ParamGroup.HEAD)


@dataclass
class ObjectiveGrads:
    backbone: np.ndarray
    head: np.ndarray
    log_std_backbone: np.ndarray
    log_std_head: np.ndarray
    prior_log_var_backbone: float
    prior_log_var_head: float


class _GroupLeaves:
    """Tape leaves for one group's weights and log-stds, entry by entry."""

    def __init__(self, tape, packer, group, theta, log_std, tau, anchor):
        self.group = group
        self.entries = packer.entries[group]
        self.size = packer.sizes[group]
        self.weight_leaves = []
        self.log_std_leaves = []
        self.perturbed = {}
        self.anchor_parts = []
        for layer, kind, start, stop, shape in self.entries:
            w = tape.leaf(theta[start:stop].reshape(shape))
            p = tape.leaf(log_std[start:stop].reshape(shape))
            t = tau[start:stop].reshape(shape)
            self.weight_leaves.append(w)
            self.log_std_leaves.append(p)
            self.anchor_parts.append(anchor[start:stop].reshape(shape))
            self.perturbed[(layer, kind)] = ad.add(w, ad.mul(ad.exp(p), t))

    def kl_pieces(self):
        """Tape scalars (sum exp(2p), sum (w - anchor)^2, sum p) over the group."""
        s_var = s_sq = s_p = None
        for w, p, a in zip(self.weight_leaves, self.log_std_leaves, self.anchor_parts):
            var_part = ad.tensor_sum(ad.exp(ad.mul(p, 2.0)))
            sq_part = ad.tensor_sum(ad.square(ad.sub(w, a)))
            p_part = ad.tensor_sum(p)
            s_var = var_part if s_var is None else ad.add(s_var, var_part)
            s_sq = sq_part if s_sq is None else ad.add(s_sq, sq_part)
            s_p = p_part if s_p is None else ad.add(s_p, p_part)
        return s_var, s_sq, s_p

    def grad_flat(self, grads, leaves) -> np.ndarray:
        out = np.empty(self.size)
        for (_, _, start, stop, _), leaf in zip(self.entries, leaves):
            out[start:stop] = grads[leaf].ravel()
        return out


def _group_kl(tape, leaves: _GroupLeaves, prior_leaf):
    """Differentiable KL of the group's diagonal posterior vs its isotropic prior."""
    if leaves.size == 0:
        return ad.Tensor(0.0)
    s_var, s_sq, s_p = leaves.kl_pieces()
    d = float(leaves.size)
    inv_prior = ad.exp(ad.mul(prior_leaf, -1.0))
    ratio = ad.mul(ad.add(s_var, s_sq), inv_prior)
    log_term = ad.sub(ad.mul(prior_leaf, d), ad.mul(s_p, 2.0))
    return ad.mul(ad.add(ratio, ad.sub(log_term, d)), 0.5)


def _objective_graph(model: MLPClassifier, noise: NoiseState, packer: GroupPacker,
                     theta: dict, tau: dict, batch_x, batch_y, cfg: BoundConfig,
                     k_value: float | None = None, l_pac_weight: float = 1.0,
                     ) -> tuple[ad.Tensor, BoundTerms, dict, dict]:
    """Record J at packed weights ``theta`` with the noise draw ``tau`` fixed.

    Returns J, its terms, and the per-group weight/log-std leaves and prior
    leaves its gradients are read from. Frozen layers are read from
    ``model``; gamma and K are resolved from ``cfg`` and enter as constants.
    """
    tape = ad.Tape()
    leaves = {g: _GroupLeaves(tape, packer, g, theta[g], noise.log_std(g),
                              tau[g], noise.anchor(g)) for g in _GROUPS}
    prior_leaves = {g: tape.leaf(np.asarray(noise.prior_log_var(g))) for g in _GROUPS}

    params = []
    for layer in range(model.n_layers):
        if model.layer_is_trainable(layer):
            g = model.group_of(layer)
            params.append((leaves[g].perturbed[(layer, "w")],
                           leaves[g].perturbed[(layer, "b")]))
        else:
            params.append((model.weights[layer], model.biases[layer]))

    l_train_t = ad.softmax_cross_entropy(model.forward(batch_x, params), batch_y)
    kl_t = {g: _group_kl(tape, leaves[g], prior_leaves[g]) for g in _GROUPS}
    kl_vals = {g: kl_t[g].item() for g in _GROUPS}
    kl_total = kl_vals[ParamGroup.BACKBONE] + kl_vals[ParamGroup.HEAD]

    if isinstance(cfg.k, FixedK):
        k = cfg.k.value
    else:
        k = K_FLOOR if k_value is None else max(K_FLOOR, k_value)
    if isinstance(cfg.gamma, FixedGamma):
        gamma = cfg.gamma.value
    else:
        gamma = optimal_gamma(math.log(1.0 / cfg.delta) + kl_total, cfg.m, k,
                              cfg.gamma.low, cfg.gamma.high)

    coeff = 1.0 / (gamma * cfg.m)
    const_term = math.log(1.0 / cfg.delta) * coeff + gamma * k * k
    l_pac_t = ad.add(ad.mul(ad.add(kl_t[ParamGroup.BACKBONE],
                                   kl_t[ParamGroup.HEAD]), coeff), const_term)
    if l_pac_weight != 1.0:
        l_pac_t = ad.mul(l_pac_t, l_pac_weight)
    j_t = ad.add(l_train_t, l_pac_t)

    terms = BoundTerms(
        l_train=l_train_t.item(),
        kl_backbone=kl_vals[ParamGroup.BACKBONE],
        kl_head=kl_vals[ParamGroup.HEAD],
        gamma_used=gamma,
        k_used=k,
        l_pac=l_pac_t.item(),
        j_total=j_t.item(),
    )
    return j_t, terms, leaves, prior_leaves


def pac_objective(model: MLPClassifier, noise: NoiseState, batch_x, batch_y,
                  cfg: BoundConfig, rng: np.random.Generator | None = None, *,
                  packer: GroupPacker | None = None,
                  tau: dict | None = None, k_value: float | None = None,
                  l_pac_weight: float = 1.0,
                  with_grads: bool = True) -> tuple[BoundTerms, ObjectiveGrads | None]:
    """Evaluate J on one batch with a single noise draw; optionally with gradients.

    ``tau`` injects fixed noise per group (used by the gradient checks); when
    absent one draw per group is taken from ``rng``. ``k_value`` overrides the
    running-K resolution (the trainer passes its tracker value); fixed-K
    configs ignore it. ``l_pac_weight`` scales the complexity term inside the
    optimized objective; the reported ``l_pac``/``j_total`` reflect the same
    scaling so ``j_total == l_train + l_pac`` always holds.
    """
    if packer is None:
        packer = GroupPacker.for_model(model)
    batch_x = np.asarray(batch_x, dtype=np.float64)
    batch_y = np.asarray(batch_y, dtype=np.int64)
    if batch_x.shape[0] == 0:
        raise ValueError("pac_objective: batch must be nonempty")

    theta = {g: packer.pack(model, g) for g in _GROUPS}
    if tau is None:
        if rng is None:
            raise ValueError("pac_objective: need an rng when tau is not given")
        tau = {g: rng.standard_normal(packer.sizes[g]) for g in _GROUPS}

    j_t, terms, leaves, prior_leaves = _objective_graph(
        model, noise, packer, theta, tau, batch_x, batch_y, cfg, k_value, l_pac_weight)
    if not with_grads:
        return terms, None

    grads = j_t.tape.backward(j_t)
    og = ObjectiveGrads(
        backbone=leaves[ParamGroup.BACKBONE].grad_flat(
            grads, leaves[ParamGroup.BACKBONE].weight_leaves),
        head=leaves[ParamGroup.HEAD].grad_flat(
            grads, leaves[ParamGroup.HEAD].weight_leaves),
        log_std_backbone=leaves[ParamGroup.BACKBONE].grad_flat(
            grads, leaves[ParamGroup.BACKBONE].log_std_leaves),
        log_std_head=leaves[ParamGroup.HEAD].grad_flat(
            grads, leaves[ParamGroup.HEAD].log_std_leaves),
        prior_log_var_backbone=float(grads[prior_leaves[ParamGroup.BACKBONE]]),
        prior_log_var_head=float(grads[prior_leaves[ParamGroup.HEAD]]),
    )
    return terms, og


def objective_gradcheck(model: MLPClassifier, noise: NoiseState, batch_x, batch_y,
                        cfg: BoundConfig, seed: int = 0, h: float = 1e-5) -> float:
    """Finite-difference check of J over every stage-1 variable.

    The noise draw, gamma, and K are frozen at the base point so J is a
    deterministic function of the flattened variables (weights, log-stds,
    prior log-variances); J is recorded by the same graph builder that
    ``pac_objective`` trains with.
    """
    packer = GroupPacker.for_model(model)
    rng = np.random.Generator(np.random.PCG64(seed))
    tau = {g: rng.standard_normal(packer.sizes[g]) for g in _GROUPS}
    base_terms, _ = pac_objective(model, noise, batch_x, batch_y, cfg,
                                  packer=packer, tau=tau, with_grads=False)
    frozen = BoundConfig(m=cfg.m, delta=cfg.delta,
                         gamma=FixedGamma(base_terms.gamma_used),
                         k=FixedK(base_terms.k_used))

    sizes = [packer.sizes[g] for g in _GROUPS]
    x = np.concatenate([
        packer.pack(model, ParamGroup.BACKBONE), packer.pack(model, ParamGroup.HEAD),
        noise.log_std_backbone, noise.log_std_head,
        [noise.prior_log_var_backbone, noise.prior_log_var_head],
    ])

    def build(z):
        w_b, w_h, p_b, p_h, prior_b, prior_h = np.split(
            z, np.cumsum(sizes + sizes + [1]))
        trial_noise = NoiseState(p_b, p_h, float(prior_b[0]), float(prior_h[0]),
                                 noise.anchor_backbone, noise.anchor_head)
        theta = {ParamGroup.BACKBONE: w_b, ParamGroup.HEAD: w_h}
        j_t, _, leaves, prior_leaves = _objective_graph(
            model, trial_noise, packer, theta, tau, batch_x, batch_y, frozen)
        ordered = []
        for g in _GROUPS:
            ordered.extend(leaves[g].weight_leaves)
        for g in _GROUPS:
            ordered.extend(leaves[g].log_std_leaves)
        ordered.extend(prior_leaves[g] for g in _GROUPS)
        return j_t, ordered

    return ad.finite_diff_check(build, x, h)
