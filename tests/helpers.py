"""Shared oracles for the test suite, the one checker of a command that fails, and
each trainer and its reference loop run by label."""

import math

import numpy as np

from pactune import cli
from pactune.bound import K_FLOOR, FixedK, generic_bound, kl_diag_vs_isotropic, pac_objective
from pactune.models import ParamGroup, StepWorkspace, loss_and_grads
from pactune.optim import WEIGHT_DECAY, AdamState, adam_step, schedule_value
from pactune.pipeline import (evaluate, noise_injection_finetune, pretrain_model,
                              stage1_train, stage2_train, vanilla_finetune)


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


# --- a command that fails (README, "Exit codes") ------------------------------------

# each exit of a failed command -> the start of the one stderr line it prints
FAILED_LINE = {cli.EXIT_CONFIG: "config error: ", cli.EXIT_DIVERGENCE: "numeric divergence: ",
               cli.EXIT_IO: "i/o error: ", cli.EXIT_WORKER: "worker error: ",
               130: "interrupted"}


def failed_command(argv, code, capture, where):
    """Run ``cli.main(argv)`` and assert that it fails as README's "Exit codes"
    says: exit ``code``, an empty stdout, one stderr line that starts with that
    exit's ``FAILED_LINE``, and the same paths under ``where`` as before. Returns
    the line. ``capture`` is ``capsys``, or ``capfd`` where pool workers print,
    cleared first. A tuple of codes may hold 0: an exit 0 then returns None and
    leaves the command's output to the caller."""
    capture.readouterr()
    before = sorted(where.rglob("*"))
    try:
        got = cli.main(argv)
    except KeyboardInterrupt:  # it would end the test session, not fail the test
        raise AssertionError(f"KeyboardInterrupt escaped main: {argv}") from None
    codes = code if isinstance(code, tuple) else (code,)
    if got == cli.EXIT_OK and got in codes:
        return None
    out, err = capture.readouterr()
    assert got in codes and out == "", (argv, got, out, err)
    assert err.startswith(FAILED_LINE[got]) and err.endswith("\n") and \
        err.count("\n") == 1, (argv, err)
    assert sorted(where.rglob("*")) == before, (argv, err)
    return err[:-1]


# --- each trainer by the label its divergences carry -------------------------------

SIGMA = 0.05  # the noise-injection sigma of every run by label


def run_trainer(label, model, noise, train, dev, cfg, bound_cfg, data_rng, noise_rng,
                epoch_offset=0):
    """Run the ``pipeline`` trainer whose divergences name ``label``; returns
    ``(model, trace, learned noise or None)``. Pretraining trains a fresh model
    of ``model``'s layer sizes from seed 4, and returns no trace."""
    if label == "pretraining":
        return pretrain_model(train, model.layer_sizes, cfg.epochs, cfg.batch_size,
                              cfg.lr_backbone, cfg.lr_head, seed=4), None, None
    if label == "stage 1":
        model, learned, trace = stage1_train(model, noise, train, dev, cfg, bound_cfg,
                                             data_rng, noise_rng)
        return model, trace, learned
    if label == "stage 2":
        out = stage2_train(model, noise, train, dev, cfg, data_rng, noise_rng, bound_cfg,
                           epoch_offset)
    elif label == "vanilla fine-tuning":
        out = vanilla_finetune(model, train, dev, cfg, data_rng)
    else:
        out = noise_injection_finetune(model, train, dev, cfg, SIGMA, data_rng, noise_rng)
    return (*out, None)


def run_reference(label, model, noise, train, dev, cfg, bound_cfg, data_rng, noise_rng,
                  epoch_offset=0):
    """``run_trainer`` for a fine-tuning label, by ``reference_descend`` on a
    copy of ``noise``."""
    noise, diagnostics = noise.copy(), None
    if label == "stage 1":
        step, diagnostics = stage1_step(cfg, bound_cfg, noise, noise_rng)
    elif label == "stage 2":
        step = fresh_step(cfg, gaussian(noise, noise_rng))
        diagnostics = stage2_diagnostics(noise, bound_cfg)
    elif label == "vanilla fine-tuning":
        step = fresh_step(cfg)
    else:
        step = fresh_step(cfg, random_layer(SIGMA, noise_rng))
    stage = {"stage 1": 1, "stage 2": 2}.get(label, 0)
    model, trace = reference_descend(model, train, dev, cfg, data_rng, step, stage,
                                     epoch_offset, diagnostics)
    return model, trace, noise if label == "stage 1" else None


# --- the descent loop without its hoisted state ----------------------------------
#
# Each step below builds a fresh workspace, fresh perturbed and learning-rate
# vectors and fresh variances, and takes the loop's Adam state as its own
# argument, so comparing ``pipeline``'s runs with these checks bitwise that
# nothing the loop builds once carries state between steps.

GROUPS = (ParamGroup.BACKBONE, ParamGroup.HEAD)


def fresh_step(cfg, perturb=None):
    """A plain step, or a step whose loss is taken at ``perturb(theta copy,
    packer)``."""
    def step(model, x, y, adam):
        packer = model.layout
        work = StepWorkspace(model, cfg.lr_backbone, cfg.lr_head)
        theta = model.theta if perturb is None else perturb(model.theta.copy(), packer)
        loss = loss_and_grads(work, packer.views(theta), x, y)
        lr = packer.per_coordinate(cfg.lr_backbone, cfg.lr_head)
        adam_step(adam, model.theta[packer.start:], work.grad.copy(), lr,
                  lr * WEIGHT_DECAY if cfg.weight_decay else None)
        return loss, 0.0, 0.0, 0.0

    return step


def gaussian(noise, rng):
    """Stage 2's perturbation: each trainable weight by its learned std."""
    def perturb(theta, packer):
        std = np.exp(noise.log_std)
        theta[packer.start:] = theta[packer.start:] + std * rng.standard_normal(std.size)
        return theta

    return perturb


def random_layer(sigma, rng):
    """Noise injection's perturbation: one layer, drawn per step, by ``sigma``."""
    def perturb(theta, packer):
        start, stop, _ = packer.layers[int(rng.integers(len(packer.layers)))]
        theta[start:stop] += sigma * rng.standard_normal(stop - start)
        return theta

    return perturb


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

    return step, lambda model, kl_b, kl_h: bound_diagnostics(noise, bound_cfg, kl_b, kl_h)


def bound_diagnostics(noise, bound_cfg, kl_b, kl_h):
    """An epoch record's KLs, mean variances and generic bound."""
    return (kl_b, kl_h, noise.mean_variance(ParamGroup.BACKBONE),
            noise.mean_variance(ParamGroup.HEAD),
            generic_bound(kl_b + kl_h, bound_cfg.delta, bound_cfg.m))


def stage2_diagnostics(noise, bound_cfg):
    """Stage 2's: the KLs of the epoch's last weights."""
    def diagnostics(model, kl_b, kl_h):
        packer = model.layout
        weights = model.theta[packer.start:]
        return bound_diagnostics(noise, bound_cfg, *(
            kl_diag_vs_isotropic(weights[packer.group(g)], noise.variances(g),
                                 noise.anchor(g), math.exp(noise.prior_log_var(g)))
            for g in GROUPS))

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
