"""Two-stage training orchestration, baselines, metrics, and run records.

Stage 1 minimizes the full bound objective with two optimizer updates per
step, one over the model's trainable weights (with weight decay) and one
over the noise log-stds and priors (without), each with a per-coordinate
learning-rate vector, and returns the learned noise state. One ``KTracker``
gives each step its K, which ``pac_objective`` takes with the variances the
previous step's guard computed. Stage 2 freezes the noise and continues with
perturbed gradient descent on the training loss alone. Both stages,
pretraining and the baselines (vanilla and random-layer noise injection) run
through one descent loop and differ only in their step, so traces are
directly comparable. Every step is
``step(work, x, y) -> loss`` on the loop's ``StepWorkspace`` (Adam state and
weight decay included); a trainer states what else it records per epoch in
its own ``epoch_terms``. The loop checks once that its training set is not
empty and that its datasets fit the model, so no step checks a batch; both
stages check at entry that the noise state fits the model.

A ``NumericsError`` (from ``kernels``) of a step or of the epoch's
evaluation and terms after it (a non-finite layer output, loss, J or
gradient, a learned variance at 0 or inf, or the KL that stage 1's last
update leaves), or a non-finite number in
the epoch's record (say a KL whose weights' square sum overflows), becomes a
``DivergenceError`` naming label, epoch, batch and, for the record, its key,
so no trace holds a non-finite number. The trainable layout is the model's
own (``model.layout``), fixed when ``replace_head`` builds the fine-tuned
model, so no stage rebuilds it.

Every run owns its RNG streams, split by purpose (head init, batch order,
noise draws), so e.g. a zero-noise perturbed run consumes the same batch
order as a vanilla run. Each epoch gathers the training rows in its order
once and gives each step a slice. Dev metrics always use the noise-free
forward pass at the posterior mean. Each epoch's ``evaluate`` runs on the
loop's workspace: a frozen first layer's dev output is computed (and checked)
at the first evaluation and reused, as the steps never write the frozen prefix
of θ, so later evaluations run the other layers only, into buffers built once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bound import (BoundConfig, KTracker, NoiseState, _kl, generic_bound, init_noise_state,
                    kl_diag_vs_isotropic, pac_objective)
from .datasets import Dataset
from .kernels import NumericsError
from .models import MLPClassifier, ParamGroup, StepWorkspace, init_weights, replace_head
from .optim import AdamState, LrSchedule, StepDecay, adam_step, schedule_value
from .pgd import descent_step, pgd_step, random_layer_noise_step
from .pgd import loss_and_grads  # noqa: F401  unused here; perfbench's tracer wraps it


class DivergenceError(Exception):
    """Raised when a training number goes non-finite (a step's, the epoch's
    evaluation's or its record's); the message names label, epoch and batch."""


@dataclass
class Stage1Config:
    epochs: int = 150
    batch_size: int = 32
    lr_backbone: float = 1e-3
    lr_head: float = 1e-2
    lr_noise_backbone: float = 0.1
    lr_noise_head: LrSchedule = field(default_factory=lambda: StepDecay(0.5, 0.9, 10, 0.01))
    decay_weights: bool = True
    l_pac_weight: float = 1.0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("stage 1 needs at least one epoch")


@dataclass
class Stage2Config:
    epochs: int = 50
    batch_size: int = 32
    lr_backbone: float = 1e-3
    lr_head: float = 1e-2
    weight_decay: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("stage 2 needs at least one epoch")


def metrics(preds, labels) -> dict:
    """Accuracy and the k-class Matthews correlation, from the confusion
    matrix's trace and marginals (integer counts in O(k) memory); class
    indices must be nonnegative. For k = 2 its numerator is exactly twice the
    binary formula's and its squared denominator four times, so the MCC is
    the binary one bit for bit.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("metrics: predictions and labels differ in length")
    n = preds.size
    if n == 0:
        return {"accuracy": 0.0, "mcc": 0.0}
    if min(preds.min(), labels.min()) < 0:
        raise ValueError("metrics: class indices must be nonnegative")
    k = int(max(preds.max(), labels.max())) + 1
    correct = int(np.count_nonzero(preds == labels))
    t_k = np.bincount(labels, minlength=k)
    p_k = np.bincount(preds, minlength=k)
    num = correct * n - int(t_k @ p_k)
    den_sq = (n * n - int(p_k @ p_k)) * (n * n - int(t_k @ t_k))
    mcc = 0.0 if den_sq == 0 else num / math.sqrt(den_sq)
    return {"accuracy": correct / n, "mcc": float(mcc)}


def evaluate(model: MLPClassifier, data: Dataset, work: StepWorkspace | None = None,
             ) -> dict:
    """Metrics of ``model`` on ``data``, predicted by ``work``: a workspace for
    ``model`` with ``data.x`` as its evaluation inputs, the loop's or a new one."""
    if work is None:  # no update is taken
        work = StepWorkspace(model, 0.0, 0.0, eval_x=data.x)
    return metrics(work.predict_eval(), data.y)


def importance_ranking(variances) -> np.ndarray:
    """Parameter indices sorted by ascending learned variance, ties by index.

    Small variance means the training process could not tolerate noise there,
    i.e. the parameter matters; the first index returned is the most important
    parameter. ``variances`` is any flat array, e.g. ``NoiseState.variances()``.
    """
    return np.argsort(np.asarray(variances, dtype=np.float64), kind="stable")


# the epoch record's fields that ``epoch_terms`` gives, zero for a trainer without it
NO_EPOCH_TERMS = {"l_pac": 0.0, "kl_backbone": 0.0, "kl_head": 0.0, "generic_bound": 0.0,
                  "mean_var_backbone": 0.0, "mean_var_head": 0.0}


def _bound_terms(noise: NoiseState, bound_cfg: BoundConfig, kl_b: float, kl_h: float,
                 l_pac: float = 0.0) -> dict:
    """Epoch terms of learned noise: KLs, their bound, the mean variances."""
    return {"l_pac": l_pac, "kl_backbone": kl_b, "kl_head": kl_h,
            "generic_bound": generic_bound(kl_b + kl_h, bound_cfg.delta, bound_cfg.m),
            "mean_var_backbone": noise.mean_variance(ParamGroup.BACKBONE),
            "mean_var_head": noise.mean_variance(ParamGroup.HEAD)}


def _descend(model: MLPClassifier, train: Dataset, dev: Dataset, cfg, data_rng,
             step, label: str, *, weight_decay: bool, stage: int = 0,
             epoch_offset: int = 0, epoch_terms=None) -> tuple[MLPClassifier, list[dict]]:
    """The descent loop shared by pretraining, both stages and both baselines.

    ``cfg`` gives ``epochs``, ``batch_size``, ``lr_backbone`` and ``lr_head``.
    ``step(work, x, y)`` updates the loop's copy of the model in place
    through ``work``, the ``StepWorkspace`` built once for that copy with
    ``cfg``'s learning rates and the loop's ``weight_decay``, which holds the
    loop's Adam state, and returns the batch's training loss.
    ``epoch_terms(model, n_batches)``, called after each epoch's steps,
    returns its ``NO_EPOCH_TERMS`` fields; without it they are zero.
    """
    if len(train) == 0:
        raise ValueError(f"{label}: the training set is empty")
    for name, data in (("train", train), ("dev", dev)):
        if data.dim != model.input_dim or data.n_classes > model.n_classes:
            raise ValueError(f"{label}: {name} data of width {data.dim}, labels below "
                             f"{data.n_classes}, does not fit layers {model.layer_sizes}")
    model = model.copy()
    work = StepWorkspace(model, cfg.lr_backbone, cfg.lr_head, weight_decay, dev.x)
    trace, n, size = [], len(train), cfg.batch_size
    n_batches = (n + size - 1) // size
    # a divergence ends as one DivergenceError from the finiteness guards,
    # not as numpy warnings on stderr ahead of it, in workers too
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for epoch in range(epoch_offset, epoch_offset + cfg.epochs):
            loss_sum = 0.0
            order = data_rng.permutation(n)  # the epoch's rows, gathered once and sliced
            xs, ys = train.x[order], train.y[order]
            # the evaluation and the record check the last batch's update, so
            # they name that batch
            try:
                for batch, start in enumerate(range(0, n, size)):
                    loss_sum += step(work, xs[start:start + size], ys[start:start + size])
                dev_metrics = evaluate(model, dev, work)
                l_train = loss_sum / n_batches
                terms = epoch_terms(model, n_batches) if epoch_terms else NO_EPOCH_TERMS
                record = {
                    "epoch": epoch,
                    "stage": stage,
                    "j_total": l_train + terms["l_pac"],
                    "l_train": l_train,
                    **terms,
                    "dev_accuracy": dev_metrics["accuracy"],
                    "dev_mcc": dev_metrics["mcc"],
                }
                for key, value in record.items():
                    if not math.isfinite(value):
                        raise NumericsError(f"the epoch's {key} is not finite")
            except NumericsError as e:
                raise DivergenceError(
                    f"{label} diverged at epoch {epoch}, batch {batch}: {e}") from e
            trace.append(record)
    return model, trace


def stage1_train(model: MLPClassifier, noise: NoiseState, train: Dataset,
                 dev: Dataset, cfg: Stage1Config, bound_cfg: BoundConfig,
                 data_rng: np.random.Generator, noise_rng: np.random.Generator,
                 ) -> tuple[MLPClassifier, NoiseState, list[dict]]:
    """Minimize the bound objective; returns updated model, learned noise, trace."""
    noise.check_fits(model)
    noise = noise.copy()
    packer = model.layout
    noise_adam = AdamState(noise.params.size)
    tracker = KTracker(bound_cfg.k)
    lr_b = cfg.lr_noise_backbone
    # the noise-rate vector changes only when the head's schedule steps
    noise_lr = functools.lru_cache(maxsize=1)(lambda lr_h: noise.per_coordinate(lr_b, lr_h))
    var = noise.variances()  # the guard's variances are the next step's KL input
    sums = [0.0, 0.0, 0.0]  # the epoch's l_pac, kl_b, kl_h, step by step

    def step(work, x, y):
        nonlocal var
        tau = noise_rng.standard_normal(packer.trainable_size)
        terms, noise_grad = pac_objective(work, noise, x, y, bound_cfg, tau, tracker.value,
                                          var, l_pac_weight=cfg.l_pac_weight)
        if not math.isfinite(terms.j_total):
            raise NumericsError("the objective is not finite")
        tracker.update(terms.l_train)
        lr_h = schedule_value(cfg.lr_noise_head, noise_adam.t)  # this update's index
        adam_step(work.adam, work.trainable, work.grad, work.lr, work.lr_decay)
        adam_step(noise_adam, noise.params, noise_grad, noise_lr(lr_h))
        var = noise.checked_variances()  # the next KL's, finite and above 0
        if var is None:
            raise NumericsError("a learned variance underflowed to 0 or overflowed")
        sums[:] = [s + t for s, t in zip(sums, (terms.l_pac, terms.kl_backbone,
                                                terms.kl_head))]
        return terms.l_train

    def epoch_terms(model, n_batches):
        # the sums hold each step's KLs, taken before its update: the state the
        # epoch's last update left is checked here, so stage 1 names it
        for g, (w, v, anchor, var_p) in zip(
                ParamGroup, noise.kl_inputs(model.theta[packer.start:], var)):
            if not math.isfinite(_kl(w - anchor, v, var_p)[0]):
                raise NumericsError(f"the last update's kl_{g.value} is not finite")
        l_pac, kl_b, kl_h = (s / n_batches for s in sums)
        sums[:] = [0.0, 0.0, 0.0]
        return _bound_terms(noise, bound_cfg, kl_b, kl_h, l_pac)

    model, trace = _descend(model, train, dev, cfg, data_rng, step, "stage 1",
                            weight_decay=cfg.decay_weights, stage=1,
                            epoch_terms=epoch_terms)
    return model, noise, trace


def stage2_train(model: MLPClassifier, noise: NoiseState, train: Dataset,
                 dev: Dataset, cfg: Stage2Config, data_rng: np.random.Generator,
                 noise_rng: np.random.Generator, bound_cfg: BoundConfig,
                 epoch_offset: int = 0) -> tuple[MLPClassifier, list[dict]]:
    """Perturbed descent with the learned noise frozen; loss only, no bound term."""
    noise.check_fits(model)
    std, var = np.exp(noise.log_std), noise.variances()

    def epoch_terms(model, n_batches):
        return _bound_terms(noise, bound_cfg, *(
            kl_diag_vs_isotropic(*group)
            for group in noise.kl_inputs(model.theta[model.layout.start:], var)))

    return _descend(model, train, dev, cfg, data_rng,
                    lambda work, x, y: pgd_step(work, x, y, std, noise_rng), "stage 2",
                    weight_decay=cfg.weight_decay, stage=2, epoch_offset=epoch_offset,
                    epoch_terms=epoch_terms)


def vanilla_finetune(model: MLPClassifier, train: Dataset, dev: Dataset,
                     cfg: Stage2Config, data_rng: np.random.Generator,
                     ) -> tuple[MLPClassifier, list[dict]]:
    """Plain Adam on the training loss; the no-regularization baseline."""
    return _descend(model, train, dev, cfg, data_rng, descent_step, "vanilla fine-tuning",
                    weight_decay=cfg.weight_decay)


def noise_injection_finetune(model: MLPClassifier, train: Dataset, dev: Dataset,
                             cfg: Stage2Config, sigma: float,
                             data_rng: np.random.Generator,
                             noise_rng: np.random.Generator,
                             ) -> tuple[MLPClassifier, list[dict]]:
    """Random-layer noise-injection baseline."""
    return _descend(model, train, dev, cfg, data_rng,
                    lambda work, x, y: random_layer_noise_step(work, x, y, sigma, noise_rng),
                    "noise injection", weight_decay=cfg.weight_decay)


# --- run records ---------------------------------------------------------------


@dataclass
class RunRecord:
    config: dict
    epochs: list[dict]
    stage_boundary: int
    final: dict
    noise_summary: dict | None

    def to_jsonl(self, path) -> None:
        """One object per epoch, then a single summary object with the config echo."""
        lines = [json.dumps(e, sort_keys=True) for e in self.epochs]
        summary = {"type": "summary", "stage_boundary": self.stage_boundary,
                   "final": self.final, "noise_summary": self.noise_summary,
                   "config": self.config}
        lines.append(json.dumps(summary, sort_keys=True))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_streams(seed: int, n: int = 5) -> list[np.random.Generator]:
    """Deterministic per-purpose RNG streams for one run."""
    return [np.random.Generator(np.random.PCG64(c))
            for c in np.random.SeedSequence(seed).spawn(n)]


METHODS = ("pac-tuning", "vanilla", "noise-injection")


def run_finetune(pretrained: MLPClassifier, train: Dataset, dev: Dataset,
                 method: str, seed: int, stage1: Stage1Config, stage2: Stage2Config,
                 bound_cfg: BoundConfig, freeze_first_layer: bool = True,
                 noise_sigma: float = 0.01, config_echo: dict | None = None,
                 ) -> tuple[RunRecord, MLPClassifier, NoiseState | None]:
    """Fine-tune from a pretrained model with one method and one seed.

    Baselines get the same total epoch budget as the two stages combined.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method '{method}'")
    head_rng, s1_data, s1_noise, s2_data, s2_noise = run_streams(seed)
    model = replace_head(pretrained, head_rng, max(train.n_classes, dev.n_classes),
                         freeze_first_layer)

    noise_final = None
    if method == "pac-tuning":
        model, noise_final, trace1 = stage1_train(
            model, init_noise_state(model), train, dev, stage1, bound_cfg, s1_data,
            s1_noise)
        model, trace2 = stage2_train(
            model, noise_final, train, dev, stage2, s2_data, s2_noise, bound_cfg,
            epoch_offset=stage1.epochs)
        epochs = trace1 + trace2
        boundary = stage1.epochs
    else:
        total = replace(stage2, epochs=stage1.epochs + stage2.epochs)
        if method == "vanilla":
            model, epochs = vanilla_finetune(model, train, dev, total, s1_data)
        else:
            model, epochs = noise_injection_finetune(
                model, train, dev, total, noise_sigma, s1_data, s1_noise)
        boundary = 0

    final = {
        "method": method,
        "seed": int(seed),
        "dev_accuracy": epochs[-1]["dev_accuracy"],
        "dev_mcc": epochs[-1]["dev_mcc"],
        "train_loss": epochs[-1]["l_train"],
        "epochs": len(epochs),
    }
    record = RunRecord(
        config=config_echo or {},
        epochs=epochs,
        stage_boundary=boundary,
        final=final,
        noise_summary=noise_final.summary() if noise_final else None,
    )
    return record, model, noise_final


def pretrain_model(source: Dataset, layer_sizes: list[int], epochs: int,
                   batch_size: int, lr_backbone: float, lr_head: float,
                   seed: int, activation: str = "tanh") -> MLPClassifier:
    """Train a fresh model on the source task; nothing is frozen here."""
    init_rng, data_rng = run_streams(seed, 2)
    model = init_weights(layer_sizes, init_rng, activation=activation)
    cfg = Stage2Config(epochs=epochs, batch_size=batch_size,
                       lr_backbone=lr_backbone, lr_head=lr_head)
    model, _ = _descend(model, source, source, cfg, data_rng, descent_step, "pretraining",
                        weight_decay=True)
    return model
