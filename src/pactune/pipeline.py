"""Two-stage training orchestration, baselines, metrics, and run records.

Stage 1 minimizes the full bound objective over four optimizer groups
(backbone weights, head weights, backbone noise+prior, head noise+prior) and
returns the learned noise state. Stage 2 freezes the noise and continues with
perturbed gradient descent on the training loss alone. Stage 2, pretraining
and the baselines (vanilla and random-layer noise injection) run through one
descent loop and differ only in their step, so traces are directly
comparable.

Every run owns its RNG streams, split by purpose (head init, batch order,
noise draws), so e.g. a zero-noise perturbed run consumes the same batch
order as a vanilla run. Dev metrics always use the noise-free forward pass at
the posterior mean.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .bound import (BoundConfig, KTracker, NoiseState, RunningK, generic_bound,
                    init_noise_state, kl_diag_vs_isotropic, pac_objective)
from .datasets import Dataset
from .models import GroupPacker, MLPClassifier, ParamGroup, init_weights, replace_head
from .optim import AdamState, LrSchedule, StepDecay, adam_step, schedule_value
from .pgd import (LearnedNoise, PGDConfig, descent_step, pgd_step,
                  random_layer_noise_step)
from .pgd import loss_and_grads  # noqa: F401  unused here; perfbench's tracer wraps it


class DivergenceError(Exception):
    """Raised when the objective goes non-finite; carries the offending epoch."""


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


def batch_indices(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def metrics(preds, labels) -> dict:
    """Accuracy and Matthews correlation; binary uses the confusion form."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError("metrics: predictions and labels differ in length")
    n = preds.size
    accuracy = float(np.mean(preds == labels)) if n else 0.0
    k = int(max(preds.max(initial=0), labels.max(initial=0))) + 1 if n else 0
    if k <= 2:
        tp = int(np.sum((preds == 1) & (labels == 1)))
        tn = int(np.sum((preds == 0) & (labels == 0)))
        fp = int(np.sum((preds == 1) & (labels == 0)))
        fn = int(np.sum((preds == 0) & (labels == 1)))
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
    else:
        # multi-class generalization over the confusion matrix
        confusion = np.zeros((k, k), dtype=np.int64)
        np.add.at(confusion, (labels, preds), 1)
        correct = int(np.trace(confusion))
        t_k = confusion.sum(axis=1)
        p_k = confusion.sum(axis=0)
        num = correct * n - int(t_k @ p_k)
        den_sq = (n * n - int(p_k @ p_k)) * (n * n - int(t_k @ t_k))
        mcc = 0.0 if den_sq == 0 else num / math.sqrt(den_sq)
    return {"accuracy": accuracy, "mcc": float(mcc)}


def evaluate(model: MLPClassifier, data: Dataset) -> dict:
    return metrics(model.predict(data.x), data.y)


def importance_ranking(noise_or_variances) -> np.ndarray:
    """Parameter indices sorted by ascending learned variance, ties by index.

    Small variance means the training process could not tolerate noise there,
    i.e. the parameter matters; the first index returned is the most important
    parameter. Accepts a NoiseState (backbone then head, concatenated) or any
    flat variance array.
    """
    if isinstance(noise_or_variances, NoiseState):
        var = np.concatenate([noise_or_variances.variances(ParamGroup.BACKBONE),
                              noise_or_variances.variances(ParamGroup.HEAD)])
    else:
        var = np.asarray(noise_or_variances, dtype=np.float64)
    return np.argsort(var, kind="stable")


def _epoch_record(epoch, stage, l_train, l_pac, kl_b, kl_h, mean_var_b, mean_var_h,
                  dev, bound_diag) -> dict:
    return {
        "epoch": int(epoch),
        "stage": int(stage),
        "j_total": l_train + l_pac,
        "l_train": l_train,
        "l_pac": l_pac,
        "kl_backbone": kl_b,
        "kl_head": kl_h,
        "generic_bound": bound_diag,
        "mean_var_backbone": mean_var_b,
        "mean_var_head": mean_var_h,
        "dev_accuracy": dev["accuracy"],
        "dev_mcc": dev["mcc"],
    }


def stage1_train(model: MLPClassifier, noise: NoiseState, train: Dataset,
                 dev: Dataset, cfg: Stage1Config, bound_cfg: BoundConfig,
                 data_rng: np.random.Generator, noise_rng: np.random.Generator,
                 ) -> tuple[MLPClassifier, NoiseState, list[dict]]:
    """Minimize the bound objective; returns updated model, learned noise, trace."""
    model = model.copy()
    noise = noise.copy()
    packer = GroupPacker.for_model(model)
    for g in (ParamGroup.BACKBONE, ParamGroup.HEAD):
        if noise.log_std(g).shape != (packer.sizes[g],):
            raise ValueError(f"noise state does not match the model's {g.value} size")

    prior_b = np.array([noise.prior_log_var_backbone])
    prior_h = np.array([noise.prior_log_var_head])
    adam = AdamState({
        "backbone": packer.sizes[ParamGroup.BACKBONE],
        "head": packer.sizes[ParamGroup.HEAD],
        "p_backbone": packer.sizes[ParamGroup.BACKBONE],
        "p_head": packer.sizes[ParamGroup.HEAD],
        "prior_backbone": 1,
        "prior_head": 1,
    })
    decay_flags = {"backbone": cfg.decay_weights, "head": cfg.decay_weights,
                   "p_backbone": False, "p_head": False,
                   "prior_backbone": False, "prior_head": False}
    tracker = KTracker(bound_cfg.k.ema_decay) if isinstance(bound_cfg.k, RunningK) else None

    trace = []
    update_index = 0
    for epoch in range(cfg.epochs):
        sums = {"l_train": 0.0, "l_pac": 0.0, "kl_b": 0.0, "kl_h": 0.0}
        n_batches = 0
        for idx in batch_indices(len(train), cfg.batch_size, data_rng):
            try:
                terms, grads = pac_objective(
                    model, noise, train.x[idx], train.y[idx], bound_cfg,
                    rng=noise_rng, packer=packer,
                    k_value=tracker.value if tracker else None,
                    l_pac_weight=cfg.l_pac_weight)
            except ad.NumericsError as e:
                raise DivergenceError(f"stage 1 diverged at epoch {epoch}: {e}") from e
            if not np.isfinite(terms.j_total):
                raise DivergenceError(f"stage 1 diverged at epoch {epoch}")
            if tracker:
                tracker.update(terms.l_train)

            theta = {g: packer.pack(model, g) for g in
                     (ParamGroup.BACKBONE, ParamGroup.HEAD)}
            lr_head_noise = schedule_value(cfg.lr_noise_head, update_index)
            adam_step(
                adam,
                params={"backbone": theta[ParamGroup.BACKBONE],
                        "head": theta[ParamGroup.HEAD],
                        "p_backbone": noise.log_std_backbone,
                        "p_head": noise.log_std_head,
                        "prior_backbone": prior_b, "prior_head": prior_h},
                grads={"backbone": grads.backbone, "head": grads.head,
                       "p_backbone": grads.log_std_backbone,
                       "p_head": grads.log_std_head,
                       "prior_backbone": np.array([grads.prior_log_var_backbone]),
                       "prior_head": np.array([grads.prior_log_var_head])},
                lr={"backbone": cfg.lr_backbone, "head": cfg.lr_head,
                    "p_backbone": cfg.lr_noise_backbone,
                    "p_head": lr_head_noise,
                    "prior_backbone": cfg.lr_noise_backbone,
                    "prior_head": lr_head_noise},
                apply_weight_decay=decay_flags,
            )
            packer.unpack_into(model, ParamGroup.BACKBONE, theta[ParamGroup.BACKBONE])
            packer.unpack_into(model, ParamGroup.HEAD, theta[ParamGroup.HEAD])
            noise.prior_log_var_backbone = float(prior_b[0])
            noise.prior_log_var_head = float(prior_h[0])
            update_index += 1

            sums["l_train"] += terms.l_train
            sums["l_pac"] += terms.l_pac
            sums["kl_b"] += terms.kl_backbone
            sums["kl_h"] += terms.kl_head
            n_batches += 1

        kl_b = sums["kl_b"] / n_batches
        kl_h = sums["kl_h"] / n_batches
        trace.append(_epoch_record(
            epoch, 1, sums["l_train"] / n_batches, sums["l_pac"] / n_batches,
            kl_b, kl_h,
            noise.mean_variance(ParamGroup.BACKBONE),
            noise.mean_variance(ParamGroup.HEAD),
            evaluate(model, dev),
            generic_bound(kl_b + kl_h, bound_cfg.delta, bound_cfg.m)))
    return model, noise, trace


def _descend(model: MLPClassifier, train: Dataset, dev: Dataset, cfg: Stage2Config,
             data_rng: np.random.Generator, step, label: str, stage: int = 0,
             epoch_offset: int = 0, diagnostics=None) -> tuple[MLPClassifier, list[dict]]:
    """The descent loop shared by pretraining, stage 2 and both baselines.

    ``step(model, x, y, adam, packer)`` updates the loop's copy of the model
    in place and returns the batch loss. ``diagnostics(model, packer)`` gives the
    epoch's ``(kl_b, kl_h, mean_var_b, mean_var_h, generic_bound)``; without
    it they are recorded as zero.
    """
    model = model.copy()
    packer = GroupPacker.for_model(model)
    adam = AdamState({"backbone": packer.sizes[ParamGroup.BACKBONE],
                      "head": packer.sizes[ParamGroup.HEAD]})
    trace = []
    for epoch in range(epoch_offset, epoch_offset + cfg.epochs):
        total, n_batches = 0.0, 0
        for idx in batch_indices(len(train), cfg.batch_size, data_rng):
            try:
                total += step(model, train.x[idx], train.y[idx], adam, packer)
            except ad.NumericsError as e:
                raise DivergenceError(f"{label} diverged at epoch {epoch}: {e}") from e
            n_batches += 1
        kl_b, kl_h, mean_var_b, mean_var_h, bound_diag = \
            diagnostics(model, packer) if diagnostics else (0.0,) * 5
        trace.append(_epoch_record(epoch, stage, total / n_batches, 0.0, kl_b, kl_h,
                                   mean_var_b, mean_var_h, evaluate(model, dev),
                                   bound_diag))
    return model, trace


def stage2_train(model: MLPClassifier, noise: NoiseState, train: Dataset,
                 dev: Dataset, cfg: Stage2Config, data_rng: np.random.Generator,
                 noise_rng: np.random.Generator, epoch_offset: int = 0,
                 bound_cfg: BoundConfig | None = None,
                 ) -> tuple[MLPClassifier, list[dict]]:
    """Perturbed descent with the learned noise frozen; loss only, no bound term."""
    pgd_cfg = PGDConfig(LearnedNoise(noise), cfg.lr_backbone, cfg.lr_head,
                        cfg.weight_decay)
    mean_var_b = noise.mean_variance(ParamGroup.BACKBONE)
    mean_var_h = noise.mean_variance(ParamGroup.HEAD)
    delta = bound_cfg.delta if bound_cfg else 0.05
    m = bound_cfg.m if bound_cfg else len(train)

    def diagnostics(model, packer):
        kl = [0.0, 0.0]
        if noise.anchor_backbone is not None:
            for i, g in enumerate((ParamGroup.BACKBONE, ParamGroup.HEAD)):
                if packer.sizes[g]:
                    kl[i] = kl_diag_vs_isotropic(
                        packer.pack(model, g), noise.variances(g), noise.anchor(g),
                        math.exp(noise.prior_log_var(g)))
        return (kl[0], kl[1], mean_var_b, mean_var_h,
                generic_bound(kl[0] + kl[1], delta, m))

    return _descend(
        model, train, dev, cfg, data_rng,
        lambda model, x, y, adam, packer: pgd_step(model, x, y, pgd_cfg, adam, packer,
                                                   noise_rng),
        "stage 2", stage=2, epoch_offset=epoch_offset, diagnostics=diagnostics)


def _plain_step(cfg: Stage2Config):
    return lambda model, x, y, adam, packer: descent_step(
        model, x, y, cfg.lr_backbone, cfg.lr_head, adam, packer, cfg.weight_decay)


def vanilla_finetune(model: MLPClassifier, train: Dataset, dev: Dataset,
                     cfg: Stage2Config, data_rng: np.random.Generator,
                     ) -> tuple[MLPClassifier, list[dict]]:
    """Plain Adam on the training loss; the no-regularization baseline."""
    return _descend(model, train, dev, cfg, data_rng, _plain_step(cfg),
                    "vanilla fine-tuning")


def noise_injection_finetune(model: MLPClassifier, train: Dataset, dev: Dataset,
                             cfg: Stage2Config, sigma: float,
                             data_rng: np.random.Generator,
                             noise_rng: np.random.Generator,
                             ) -> tuple[MLPClassifier, list[dict]]:
    """Random-layer noise-injection baseline."""
    return _descend(
        model, train, dev, cfg, data_rng,
        lambda model, x, y, adam, packer: random_layer_noise_step(
            model, x, y, sigma, cfg.lr_backbone, cfg.lr_head, adam, packer,
            noise_rng, cfg.weight_decay),
        "noise injection")


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


def noise_summary_stats(noise: NoiseState) -> dict:
    all_var = np.concatenate([noise.variances(ParamGroup.BACKBONE),
                              noise.variances(ParamGroup.HEAD)])
    return {
        "mean_var_backbone": noise.mean_variance(ParamGroup.BACKBONE),
        "mean_var_head": noise.mean_variance(ParamGroup.HEAD),
        "min_var": float(all_var.min()) if all_var.size else 0.0,
        "max_var": float(all_var.max()) if all_var.size else 0.0,
        "n_backbone": int(noise.log_std_backbone.size),
        "n_head": int(noise.log_std_head.size),
    }


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
    model = replace_head(pretrained, head_rng, n_classes=int(dev.y.max()) + 1)
    model.freeze_first_layer = freeze_first_layer

    noise_final = None
    if method == "pac-tuning":
        packer = GroupPacker.for_model(model)
        noise = init_noise_state(model, packer)
        model, noise_final, trace1 = stage1_train(
            model, noise, train, dev, stage1, bound_cfg, s1_data, s1_noise)
        model, trace2 = stage2_train(
            model, noise_final, train, dev, stage2, s2_data, s2_noise,
            epoch_offset=stage1.epochs, bound_cfg=bound_cfg)
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
        noise_summary=noise_summary_stats(noise_final) if noise_final else None,
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
    model, _ = _descend(model, source, source, cfg, data_rng, _plain_step(cfg),
                        "pretraining")
    return model
