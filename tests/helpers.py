"""Shared oracles for the test suite."""

import math

import numpy as np

from pactune import autodiff as ad
from pactune.bound import (K_FLOOR, BoundTerms, FixedGamma, FixedK, generic_bound, kl_diag_vs_isotropic, optimal_gamma,
                           pac_objective)
from pactune.models import ParamGroup, StepWorkspace, loss_and_grads
from pactune.optim import WEIGHT_DECAY, AdamState, adam_step, schedule_value
from pactune.pipeline import evaluate


def mc_kl(mu_q, var_q, mu_p, var_p, n_samples, seed, antithetic=True):
    """Monte-Carlo KL(N(mu_q, diag(var_q)) || N(mu_p, var_p I)).

    Samples w ~ Q and averages log q(w) - log p(w), chunked to bound memory.
    Antithetic pairing (z, -z) cancels the odd part of the integrand, which
    tightens the estimate without biasing it.
    """
    mu_q = np.asarray(mu_q, dtype=np.float64)
    var_q = np.asarray(var_q, dtype=np.float64)
    mu_p = np.asarray(mu_p, dtype=np.float64)
    sd_q = np.sqrt(var_q)
    rng = np.random.default_rng(seed)

    def log_ratio(w):
        logq = -0.5 * np.sum(np.log(2 * np.pi * var_q)) \
            - np.sum((w - mu_q) ** 2 / (2 * var_q), axis=1)
        logp = -0.5 * w.shape[1] * np.log(2 * np.pi * var_p) \
            - np.sum((w - mu_p) ** 2, axis=1) / (2 * var_p)
        return logq - logp

    total, count = 0.0, 0
    chunk = max(1, 2_000_000 // mu_q.size)
    remaining = n_samples // 2 if antithetic else n_samples
    while remaining > 0:
        take = min(chunk, remaining)
        z = rng.standard_normal((take, mu_q.size))
        total += np.sum(log_ratio(mu_q + sd_q * z))
        count += take
        if antithetic:
            total += np.sum(log_ratio(mu_q - sd_q * z))
            count += take
        remaining -= take
    return total / count


TAPE_ACTIVATIONS = {"tanh": ad.tanh, "relu": ad.relu}


def tape_forward(model, params, x):
    """The MLP's logits recorded on the tape; ``params`` are per-layer ``(w, b)``."""
    h = ad.as_tensor(x)
    for i, (w, b) in enumerate(params):
        h = ad.add_bias(ad.matmul(h, ad.as_tensor(w)), ad.as_tensor(b))
        if i < len(params) - 1:
            h = TAPE_ACTIVATIONS[model.activation](h)
    return h


def _flat(grads, leaves):
    return np.concatenate([grads[t].ravel() for pair in leaves for t in pair])


def tape_loss_and_grads(model, packer, theta, batch_x, batch_y):
    """Oracle for ``models.loss_and_grads``: the cross-entropy at ``theta`` and
    its trainable-order gradient, by one backward pass over the tape."""
    tape = ad.Tape()
    params = packer.views(theta)
    leaves = [(tape.leaf(w), tape.leaf(b)) for w, b in params[packer.n_frozen:]]
    params[packer.n_frozen:] = leaves
    loss = ad.softmax_cross_entropy(tape_forward(model, params, batch_x), batch_y)
    return loss.item(), _flat(tape.backward(loss), leaves)


def _tape_group_kl(parts, prior_leaf):
    """One group's KL on the tape; ``parts`` holds ``(w leaf, log-std leaf,
    anchor)`` per weight or bias array."""
    if not parts:
        return ad.Tensor(0.0)
    s_var = s_sq = s_p = None
    for w, p, a in parts:
        var_part = ad.tensor_sum(ad.exp(ad.mul(p, 2.0)))
        sq_part = ad.tensor_sum(ad.square(ad.sub(w, a)))
        p_part = ad.tensor_sum(p)
        s_var = var_part if s_var is None else ad.add(s_var, var_part)
        s_sq = sq_part if s_sq is None else ad.add(s_sq, sq_part)
        s_p = p_part if s_p is None else ad.add(s_p, p_part)
    d = float(sum(a.size for _, _, a in parts))
    ratio = ad.mul(ad.add(s_var, s_sq), ad.exp(ad.mul(prior_leaf, -1.0)))
    log_term = ad.sub(ad.mul(prior_leaf, d), ad.mul(s_p, 2.0))
    return ad.mul(ad.add(ratio, ad.sub(log_term, d)), 0.5)


def tape_objective(model, noise, packer, tau, batch_x, batch_y, cfg, k,
                   l_pac_weight=1.0):
    """Oracle for ``bound.pac_objective`` with the noise draw ``tau`` and the
    step's ``k``: J recorded on the tape, built from tape ops only, with gamma
    and K as constants.

    Returns the ``BoundTerms`` and the gradients ``(dJ/dw, dJ/d noise params)``
    the closed form must reproduce.
    """
    tape = ad.Tape()
    params = packer.views(model.theta)[:packer.n_frozen]
    weight_leaves, log_std_leaves = [], []
    kl_parts = {"backbone": [], "head": []}
    layers = zip(packer.views(model.theta[packer.start:]), packer.views(noise.log_std),
                 packer.views(tau), packer.views(noise.anchor()))
    for layer, arrays in enumerate(layers, start=packer.n_frozen):
        group = "head" if layer == model.n_layers - 1 else "backbone"
        w_pair, p_pair, noisy = [], [], []
        for w, p, t, a in zip(*arrays):
            w_leaf, p_leaf = tape.leaf(w), tape.leaf(p)
            w_pair.append(w_leaf)
            p_pair.append(p_leaf)
            kl_parts[group].append((w_leaf, p_leaf, a))
            noisy.append(ad.add(w_leaf, ad.mul(ad.exp(p_leaf), t)))
        weight_leaves.append(w_pair)
        log_std_leaves.append(p_pair)
        params.append(noisy)
    prior_leaves = [tape.leaf(np.asarray(noise.params[i])) for i in (-2, -1)]

    l_train = ad.softmax_cross_entropy(tape_forward(model, params, batch_x), batch_y)
    kl_b, kl_h = (_tape_group_kl(kl_parts[g], prior)
                  for g, prior in zip(("backbone", "head"), prior_leaves))
    if isinstance(cfg.gamma, FixedGamma):
        gamma = cfg.gamma.value
    else:
        gamma = optimal_gamma(math.log(1.0 / cfg.delta) + kl_b.item() + kl_h.item(),
                              cfg.m, k, cfg.gamma.low, cfg.gamma.high)
    coeff = 1.0 / (gamma * cfg.m)
    const_term = math.log(1.0 / cfg.delta) * coeff + gamma * k * k
    l_pac = ad.mul(ad.add(ad.mul(ad.add(kl_b, kl_h), coeff), const_term), l_pac_weight)
    j = ad.add(l_train, l_pac)

    grads = tape.backward(j)
    terms = BoundTerms(l_train=l_train.item(), kl_backbone=kl_b.item(),
                       kl_head=kl_h.item(), gamma_used=gamma,
                       l_pac=l_pac.item(), j_total=j.item())
    noise_grads = np.append(_flat(grads, log_std_leaves), [grads[p] for p in prior_leaves])
    return terms, (_flat(grads, weight_leaves), noise_grads)


def confusion_metrics(preds, labels) -> dict:
    """``pipeline.metrics`` as it was with the k×k confusion matrix, one
    ``bincount`` over ``labels * k + preds``; nonempty int64 input."""
    n = preds.size
    k = int(max(preds.max(), labels.max())) + 1
    confusion = np.bincount(labels * k + preds, minlength=k * k).reshape(k, k)
    correct = int(np.trace(confusion))
    t_k = confusion.sum(axis=1)
    p_k = confusion.sum(axis=0)
    num = correct * n - int(t_k @ p_k)
    den_sq = (n * n - int(p_k @ p_k)) * (n * n - int(t_k @ t_k))
    mcc = 0.0 if den_sq == 0 else num / math.sqrt(den_sq)
    return {"accuracy": correct / n, "mcc": float(mcc)}


# --- the descent loop without its hoisted state ----------------------------------
#
# Each step below builds a fresh workspace, fresh perturbed and learning-rate
# vectors and fresh variances, and takes the loop's Adam state as its own
# argument, so comparing ``pipeline``'s runs with these checks bitwise that
# nothing the loop builds once carries state between steps.

GROUPS = (ParamGroup.BACKBONE, ParamGroup.HEAD)


def _fresh_step(model, x, y, adam, lr_b, lr_h, weight_decay, perturb=None):
    packer = model.layout
    work = StepWorkspace(model, lr_b, lr_h)
    theta = model.theta if perturb is None else perturb(model.theta.copy(), packer)
    loss = loss_and_grads(work, packer.views(theta), x, y)
    lr = packer.per_coordinate(lr_b, lr_h)
    adam_step(adam, model.theta[packer.start:], work.grad.copy(), lr,
              lr * WEIGHT_DECAY if weight_decay else None)
    return loss, 0.0, 0.0, 0.0


def plain_step(cfg):
    return lambda model, x, y, adam: _fresh_step(
        model, x, y, adam, cfg.lr_backbone, cfg.lr_head, cfg.weight_decay)


def pgd_step(cfg, noise, rng):
    def perturb(theta, packer):
        std = np.exp(noise.log_std)
        theta[packer.start:] = theta[packer.start:] + std * rng.standard_normal(std.size)
        return theta

    return lambda model, x, y, adam: _fresh_step(
        model, x, y, adam, cfg.lr_backbone, cfg.lr_head, cfg.weight_decay, perturb)


def random_layer_step(cfg, sigma, rng):
    def perturb(theta, packer):
        start, stop, _ = packer.layers[int(rng.integers(len(packer.layers)))]
        theta[start:stop] += sigma * rng.standard_normal(stop - start)
        return theta

    return lambda model, x, y, adam: _fresh_step(
        model, x, y, adam, cfg.lr_backbone, cfg.lr_head, cfg.weight_decay, perturb)


def stage1_step(cfg, bound_cfg, noise, rng):
    """The stage-1 step; returns it and the diagnostics of its epochs. Its K
    is a fixed config's value, else the std of the step losses by its own EMA
    (floored at ``K_FLOOR``), not ``bound.KTracker``."""
    noise_adam = AdamState(noise.params.size)
    fixed = isinstance(bound_cfg.k, FixedK)
    ema = {"mean": None, "var": 0.0}
    updates = []

    def track(loss):
        if ema["mean"] is None:
            ema["mean"] = loss
            return
        decay = bound_cfg.k.ema_decay
        diff = loss - ema["mean"]
        incr = (1.0 - decay) * diff
        ema["mean"] += incr
        ema["var"] = decay * (ema["var"] + diff * incr)

    def step(model, x, y, adam):
        packer = model.layout
        tau = rng.standard_normal(packer.trainable_size)
        work = StepWorkspace(model, cfg.lr_backbone, cfg.lr_head)
        k = bound_cfg.k.value if fixed else max(K_FLOOR, math.sqrt(ema["var"]))
        terms, noise_grad = pac_objective(work, noise, x, y, bound_cfg, tau, k,
                                          noise.variances(), l_pac_weight=cfg.l_pac_weight)
        if not fixed:
            track(terms.l_train)
        lr_b = cfg.lr_noise_backbone
        lr_h = schedule_value(cfg.lr_noise_head, len(updates))
        updates.append(lr_h)
        lr = packer.per_coordinate(cfg.lr_backbone, cfg.lr_head)
        adam_step(adam, model.theta[packer.start:], work.grad.copy(), lr,
                  lr * WEIGHT_DECAY if cfg.decay_weights else None)
        adam_step(noise_adam, noise.params, noise_grad,
                  np.append(packer.per_coordinate(lr_b, lr_h), [lr_b, lr_h]))
        assert np.all(noise.variances() > 0.0)
        return terms.l_train, terms.l_pac, terms.kl_backbone, terms.kl_head

    def diagnostics(model, kl_b, kl_h):
        return (kl_b, kl_h, noise.mean_variance(ParamGroup.BACKBONE),
                noise.mean_variance(ParamGroup.HEAD),
                generic_bound(kl_b + kl_h, bound_cfg.delta, bound_cfg.m))

    return step, diagnostics


def stage2_diagnostics(noise, delta, m):
    def diagnostics(model, kl_b, kl_h):
        packer = model.layout
        weights = model.theta[packer.start:]
        kl = [kl_diag_vs_isotropic(weights[packer.group(g)], noise.variances(g),
                                   noise.anchor(g), math.exp(noise.prior_log_var(g)))
              for g in GROUPS]
        return (kl[0], kl[1], noise.mean_variance(ParamGroup.BACKBONE),
                noise.mean_variance(ParamGroup.HEAD),
                generic_bound(kl[0] + kl[1], delta, m))

    return diagnostics


def reference_descend(model, train, dev, cfg, data_rng, step, stage=0, epoch_offset=0,
                      diagnostics=None):
    """``pipeline._descend`` with ``step(model, x, y, adam)``, which builds its
    own buffers and runs every layer on the raw rows it is given, and
    ``diagnostics(model, kl_b, kl_h)``."""
    model = model.copy()
    adam = AdamState(model.layout.trainable_size)
    trace = []
    for epoch in range(epoch_offset, epoch_offset + cfg.epochs):
        order = data_rng.permutation(len(train))
        batches = [order[start:start + cfg.batch_size]
                   for start in range(0, len(train), cfg.batch_size)]
        steps = [step(model, train.x[idx], train.y[idx], adam) for idx in batches]
        sums = [0.0] * 4
        for terms in steps:
            sums = [s + t for s, t in zip(sums, terms)]
        l_train, l_pac, kl_b, kl_h = (s / len(steps) for s in sums)
        kl_b, kl_h, mean_var_b, mean_var_h, bound_diag = \
            diagnostics(model, kl_b, kl_h) if diagnostics else (0.0,) * 5
        dev_metrics = evaluate(model, dev)
        trace.append({
            "epoch": epoch, "stage": stage, "j_total": l_train + l_pac,
            "l_train": l_train, "l_pac": l_pac, "kl_backbone": kl_b, "kl_head": kl_h,
            "generic_bound": bound_diag, "mean_var_backbone": mean_var_b,
            "mean_var_head": mean_var_h, "dev_accuracy": dev_metrics["accuracy"],
            "dev_mcc": dev_metrics["mcc"],
        })
    return model, trace
