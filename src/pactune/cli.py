"""Command-line entry point: batch experiments, benchmark suites, reports.

Configuration is a single JSON document; ``--set dotted.key=value`` overrides
individual leaves. Unknown keys and out-of-range values are rejected before
anything runs. Exit codes: 0 success, 1 check failure (gradcheck),
2 configuration error, 3 numeric divergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import bound, datasets, models, optim, pipeline

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


DEFAULT_CONFIG = {
    "task": {
        "name": "blobs-rotate",
        "source": None,  # explicit DatasetSpec fields; overrides "name"
        "target": None,
        "n_shot": 100,
    },
    "method": "pac-tuning",
    "methods": ["pac-tuning", "vanilla", "noise-injection"],
    "tasks": ["blobs-rotate", "spirals-shift", "xor-noise"],
    "model": {
        "hidden": [24, 12],
        "activation": "tanh",
        "freeze_first_layer": True,
    },
    "pretrain": {
        "epochs": 200,
        "batch_size": 32,
        "lr_backbone": 3e-3,
        "lr_head": 1e-2,
        "seed": 0,
    },
    "stage1": {
        "epochs": 150,
        "batch_size": 32,
        "lr_backbone": 1e-3,
        "lr_head": 1e-2,
        "lr_noise_backbone": 0.1,
        "lr_noise_head": {"kind": "step-decay", "init": 0.5, "factor": 0.9,
                          "every": 10, "floor": 0.01},
        "decay_weights": True,
        "l_pac_weight": 1.0,
    },
    "stage2": {
        "epochs": 50,
        "batch_size": 32,
        "lr_backbone": 1e-3,
        "lr_head": 1e-2,
        "weight_decay": True,
    },
    "bound": {
        "delta": 0.05,
        "gamma": {"kind": "fixed", "value": 5.0, "low": 0.01, "high": 10.0},
        "k": {"kind": "running", "ema_decay": 0.99, "value": 1.0},
    },
    "noise_injection": {"sigma": 0.01},
    "seeds": [1, 2, 10, 26, 100],
    "checkpoint": None,
    "out_dir": "pactune-out",
    "task_overrides": {},
}

_DATASET_FIELDS = {
    "generator", "n", "seed", "classes", "dim", "separation", "class_std",
    "noise_std", "rotation_degrees", "shift", "path", "label_column",
}


def _check_keys(user, defaults, path=""):
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(defaults[key], dict) and isinstance(value, dict) \
                and key not in ("task_overrides",):
            _check_keys(value, defaults[key], where)


def _check_dataset_dict(d, where):
    if d is None:
        return
    for key in d:
        if key not in _DATASET_FIELDS:
            raise ConfigError(f"unknown dataset key '{where}.{key}'")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_set(entry: str) -> tuple[list[str], object]:
    if "=" not in entry:
        raise ConfigError(f"--set expects dotted.key=value, got '{entry}'")
    key, raw = entry.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def _apply_set(config: dict, dotted: list[str], value) -> None:
    node = config
    for part in dotted[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"--set path '{'.'.join(dotted)}' does not exist")
        node = node[part]
    leaf = dotted[-1]
    if not isinstance(node, dict) or leaf not in node:
        # allow introducing keys inside free-form sections (dataset specs, overrides)
        free_form = any(p in ("source", "target", "task_overrides") for p in dotted)
        if not free_form:
            raise ConfigError(f"--set path '{'.'.join(dotted)}' does not exist")
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{'.'.join(dotted)}' does not exist")
    node[leaf] = value


def load_config(path: str | None, sets=(), seed: int | None = None,
                out: str | None = None) -> dict:
    user = {}
    if path is not None:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as e:
            raise ConfigError(f"cannot read config file: {e}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(user, DEFAULT_CONFIG)
    _check_dataset_dict(user.get("task", {}).get("source"), "task.source")
    _check_dataset_dict(user.get("task", {}).get("target"), "task.target")
    config = _deep_merge(DEFAULT_CONFIG, user)
    for entry in sets:
        dotted, value = _parse_set(entry)
        _apply_set(config, dotted, value)
    if seed is not None:
        config["seeds"] = [int(seed)]
    if out is not None:
        config["out_dir"] = out
    _check_values(config)
    overrides = config["task_overrides"]
    for task_name, override in overrides.items():
        where = f"task_overrides.{task_name}"
        if task_name not in config["tasks"]:
            raise ConfigError(f"'{where}' names a task not in 'tasks'")
        if not isinstance(override, dict):
            raise ConfigError(f"'{where}' must be an object")
        _check_keys(override, DEFAULT_CONFIG, where)
    for task_name in config["tasks"]:
        prefix = f"task_overrides.{task_name}." if task_name in overrides else ""
        _check_values(task_config(config, task_name), prefix)
    return config


def _check_values(config: dict, prefix: str = "") -> None:
    """Reject out-of-range leaves, naming the key; ``prefix`` locates the config.

    The stage and bound objects are built here once, so their builders are
    the single place where their values are validated.
    """

    def require(value, dotted, ok, what):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not ok(value):
            raise ConfigError(f"'{prefix}{dotted}' must be {what}, got {value!r}")

    def one_of(value, dotted, allowed):
        if not isinstance(value, str) or value not in allowed:
            raise ConfigError(f"'{prefix}{dotted}' must be one of {sorted(allowed)}, "
                              f"got {value!r}")

    def of_type(value, dotted, types, what):
        if not isinstance(value, types):
            raise ConfigError(f"'{prefix}{dotted}' must be {what}, got {value!r}")

    for section in (k for k, v in DEFAULT_CONFIG.items() if isinstance(v, dict)):
        if not isinstance(config[section], dict):
            raise ConfigError(f"'{prefix}{section}' must be an object")
    # int leaves take JSON integers only: 1.0 is rejected, not truncated
    at_least_one = (lambda v: isinstance(v, int) and v >= 1, "an integer >= 1")
    seed = (lambda v: isinstance(v, int) and v >= 0, "an integer >= 0")
    positive = (lambda v: v > 0, "a number > 0")
    for section in ("pretrain", "stage1", "stage2"):
        c = config[section]
        require(c["epochs"], f"{section}.epochs", *at_least_one)
        require(c["batch_size"], f"{section}.batch_size", *at_least_one)
        for key in ("lr_backbone", "lr_head", "lr_noise_backbone"):
            if key in c:
                require(c[key], f"{section}.{key}", *positive)
    require(config["pretrain"]["seed"], "pretrain.seed", *seed)
    for dotted in ("model.freeze_first_layer", "stage1.decay_weights",
                   "stage2.weight_decay"):
        section, key = dotted.split(".")
        of_type(config[section][key], dotted, bool, "true or false")
    require(config["stage1"]["l_pac_weight"], "stage1.l_pac_weight",
            lambda v: v >= 0, "a number >= 0")
    of_type(config["out_dir"], "out_dir", str, "a path string")
    of_type(config["checkpoint"], "checkpoint", (str, type(None)),
            "a path string or null")
    sched = config["stage1"]["lr_noise_head"]
    if not isinstance(sched, dict):
        require(sched, "stage1.lr_noise_head", *positive)
    elif sched.get("kind") == "constant":
        require(sched.get("value"), "stage1.lr_noise_head.value", *positive)
    elif sched.get("kind") == "step-decay":
        require(sched.get("init"), "stage1.lr_noise_head.init", *positive)
        require(sched.get("factor"), "stage1.lr_noise_head.factor", *positive)
        require(sched.get("every"), "stage1.lr_noise_head.every", *at_least_one)
        require(sched.get("floor"), "stage1.lr_noise_head.floor", *positive)
    require(config["task"]["n_shot"], "task.n_shot", *at_least_one)
    name = config["task"]["name"]
    if config["task"]["target"] is None and name in datasets.BUILTIN_TASKS:
        size = datasets.BUILTIN_TASKS[name].target.n
        require(config["task"]["n_shot"], "task.n_shot", lambda v: v < size,
                f"below {size}, the size of task '{name}'")
    require(config["noise_injection"]["sigma"], "noise_injection.sigma",
            lambda v: v >= 0, "a number >= 0")
    if not isinstance(config["seeds"], list) or not config["seeds"]:
        raise ConfigError(f"'{prefix}seeds' must be a nonempty list")
    for i, run_seed in enumerate(config["seeds"]):
        require(run_seed, f"seeds[{i}]", *seed)
    if not isinstance(config["tasks"], list):
        raise ConfigError(f"'{prefix}tasks' must be a list of task names")
    for i, task_name in enumerate(config["tasks"]):
        one_of(task_name, f"tasks[{i}]", datasets.BUILTIN_TASKS)
    one_of(config["method"], "method", pipeline.METHODS)
    if not isinstance(config["methods"], list) or not config["methods"]:
        raise ConfigError(f"'{prefix}methods' must be a nonempty list of methods")
    for i, method in enumerate(config["methods"]):
        one_of(method, f"methods[{i}]", pipeline.METHODS)
    hidden = config["model"]["hidden"]
    if not isinstance(hidden, list):
        raise ConfigError(f"'{prefix}model.hidden' must be a list of widths")
    for i, width in enumerate(hidden):
        require(width, f"model.hidden[{i}]", *at_least_one)
    one_of(config["model"]["activation"], "model.activation", models.ACTIVATIONS)
    build_stage1(config, prefix)
    build_stage2(config, prefix)
    build_bound(config, m=int(config["task"]["n_shot"]), prefix=prefix)


# --- config -> domain objects ---------------------------------------------------


def _dataset_spec(d: dict) -> datasets.DatasetSpec:
    try:
        return datasets.DatasetSpec(**d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad dataset spec: {e}") from e


def resolve_task(config: dict) -> datasets.TransferPair:
    task = config["task"]
    if task.get("source") is not None or task.get("target") is not None:
        if task.get("source") is None or task.get("target") is None:
            raise ConfigError("explicit tasks need both task.source and task.target")
        return datasets.TransferPair(_dataset_spec(task["source"]),
                                     _dataset_spec(task["target"]))
    try:
        return datasets.builtin_task(task["name"])
    except ValueError as e:
        raise ConfigError(str(e)) from e


@contextmanager
def _naming(key: str):
    """Report a KeyError, TypeError or ValueError raised inside as a bad ``key``."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as e:
        detail = f"missing key {e}" if isinstance(e, KeyError) else str(e)
        raise ConfigError(f"'{key}' is invalid: {detail}") from e


def build_stage1(config: dict, prefix: str = "") -> pipeline.Stage1Config:
    c = config["stage1"]
    sched = c["lr_noise_head"]
    with _naming(f"{prefix}stage1.lr_noise_head"):
        if not isinstance(sched, dict):
            lr_noise_head = optim.Constant(float(sched))
        elif sched["kind"] == "constant":
            lr_noise_head = optim.Constant(float(sched["value"]))
        elif sched["kind"] == "step-decay":
            lr_noise_head = optim.StepDecay(float(sched["init"]), float(sched["factor"]),
                                            int(sched["every"]), float(sched["floor"]))
        else:
            raise ValueError(f"unknown schedule kind {sched['kind']!r}")
    with _naming(f"{prefix}stage1"):
        return pipeline.Stage1Config(
            epochs=int(c["epochs"]), batch_size=int(c["batch_size"]),
            lr_backbone=float(c["lr_backbone"]), lr_head=float(c["lr_head"]),
            lr_noise_backbone=float(c["lr_noise_backbone"]),
            lr_noise_head=lr_noise_head, decay_weights=bool(c["decay_weights"]),
            l_pac_weight=float(c["l_pac_weight"]))


def build_stage2(config: dict, prefix: str = "") -> pipeline.Stage2Config:
    c = config["stage2"]
    with _naming(f"{prefix}stage2"):
        return pipeline.Stage2Config(
            epochs=int(c["epochs"]), batch_size=int(c["batch_size"]),
            lr_backbone=float(c["lr_backbone"]), lr_head=float(c["lr_head"]),
            weight_decay=bool(c["weight_decay"]))


def build_bound(config: dict, m: int, prefix: str = "") -> bound.BoundConfig:
    c = config["bound"]
    with _naming(f"{prefix}bound.gamma"):
        g = c["gamma"]
        if g["kind"] == "fixed":
            gamma = bound.FixedGamma(float(g["value"]))
        elif g["kind"] == "auto":
            gamma = bound.AutoGamma(float(g["low"]), float(g["high"]))
        else:
            raise ValueError(f"unknown gamma kind {g['kind']!r}")
    with _naming(f"{prefix}bound.k"):
        k = c["k"]
        if k["kind"] == "fixed":
            k_mode = bound.FixedK(float(k["value"]))
        elif k["kind"] == "running":
            k_mode = bound.RunningK(float(k["ema_decay"]))
        else:
            raise ValueError(f"unknown K kind {k['kind']!r}")
    with _naming(f"{prefix}bound"):
        return bound.BoundConfig(m=m, delta=float(c["delta"]), gamma=gamma, k=k_mode)


def _layer_sizes(config: dict, input_dim: int, n_classes: int) -> list[int]:
    hidden = [int(h) for h in config["model"]["hidden"]]
    return [input_dim] + hidden + [n_classes]


# --- run assembly ---------------------------------------------------------------


def task_config(config: dict, task_name: str) -> dict:
    """Per-task view of the config: overrides applied, task name pinned."""
    override = config.get("task_overrides", {}).get(task_name, {})
    merged = _deep_merge(config, override)
    merged["task"] = dict(merged["task"], name=task_name, source=None, target=None)
    return merged


def pretrain_for_task(config: dict, pair: datasets.TransferPair) -> models.MLPClassifier:
    source = datasets.generate(pair.source)
    sizes = _layer_sizes(config, source.dim, source.n_classes)
    p = config["pretrain"]
    return pipeline.pretrain_model(
        source, sizes, epochs=int(p["epochs"]), batch_size=int(p["batch_size"]),
        lr_backbone=float(p["lr_backbone"]), lr_head=float(p["lr_head"]),
        seed=int(p["seed"]), activation=config["model"]["activation"])


def run_single(config: dict, pretrained: models.MLPClassifier, seed: int,
               method: str | None = None) -> tuple[pipeline.RunRecord,
                                                   models.MLPClassifier,
                                                   bound.NoiseState | None]:
    pair = resolve_task(config)
    target = datasets.generate(pair.target)
    train, dev = datasets.few_shot_sample(target, int(config["task"]["n_shot"]), seed)
    method = method or config["method"]
    try:
        return pipeline.run_finetune(
            pretrained, train, dev, method, seed,
            stage1=build_stage1(config), stage2=build_stage2(config),
            bound_cfg=build_bound(config, m=len(train)),
            freeze_first_layer=config["model"]["freeze_first_layer"],
            noise_sigma=float(config["noise_injection"]["sigma"]),
            config_echo=config)
    except pipeline.DivergenceError as e:  # name the run
        raise pipeline.DivergenceError(
            f"{config['task']['name']} {method} seed {seed}: {e}") from e


def _benchmark_run(payload) -> dict:
    """One benchmark run; module-level so worker processes can receive it."""
    config, pretrained, task_name, method, seed = payload
    record, _, _ = run_single(config, pretrained, seed, method=method)
    record.final["task"] = task_name
    return asdict(record)


def run_benchmark(config: dict, workers: int = 1):
    """All tasks x methods x seeds; returns (report, run results, run specs).

    Workers run fully isolated; results are assembled in run order so the
    report and the per-run JSONL files are deterministic for a fixed config.
    """
    specs = []
    pretrained_by_task = {}
    for task_name in config["tasks"]:
        cfg_t = task_config(config, task_name)
        pair = resolve_task(cfg_t)
        pretrained_by_task[task_name] = pretrain_for_task(cfg_t, pair)
        for method in config["methods"]:
            for seed in config["seeds"]:
                specs.append((cfg_t, pretrained_by_task[task_name], task_name,
                              method, int(seed)))

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_benchmark_run, specs))
    else:
        results = [_benchmark_run(s) for s in specs]

    report: dict = {"config": config, "results": {}, "runs": []}
    for (cfg_t, _, task_name, method, seed), rec in zip(specs, results):
        report["runs"].append({"task": task_name, "method": method, "seed": seed,
                               "final": rec["final"]})
        bucket = report["results"].setdefault(task_name, {}).setdefault(
            method, {"accuracy": [], "mcc": []})
        bucket["accuracy"].append(rec["final"]["dev_accuracy"])
        bucket["mcc"].append(rec["final"]["dev_mcc"])
    for task_name, by_method in report["results"].items():
        for method, vals in by_method.items():
            acc = np.asarray(vals.pop("accuracy"))
            mcc = np.asarray(vals.pop("mcc"))
            vals["mean_accuracy"] = float(acc.mean())
            vals["std_accuracy"] = float(acc.std())
            vals["mean_mcc"] = float(mcc.mean())
            vals["std_mcc"] = float(mcc.std())
            vals["per_seed_accuracy"] = acc.tolist()
            vals["per_seed_mcc"] = mcc.tolist()
    return report, results, specs


# --- commands -------------------------------------------------------------------


def _ensure_out(config: dict) -> Path:
    out = Path(config["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_outputs(writers) -> None:
    """Run (path, fn) pairs; on failure remove everything written so far."""
    written = []
    try:
        for path, fn in writers:
            fn(path)
            written.append(path)
    except BaseException:
        for path in written:
            try:
                Path(path).unlink()
            except OSError:
                pass
        raise


def cmd_generate_data(config: dict) -> int:
    pair = resolve_task(config)
    out = _ensure_out(config)
    source = datasets.generate(pair.source)
    target = datasets.generate(pair.target)
    _write_outputs([
        (out / "source.csv", lambda p: datasets.export_csv(source, p)),
        (out / "target.csv", lambda p: datasets.export_csv(target, p)),
    ])
    print(f"wrote {out / 'source.csv'} ({len(source)} rows) and "
          f"{out / 'target.csv'} ({len(target)} rows)")
    return EXIT_OK


def cmd_pretrain(config: dict) -> int:
    pair = resolve_task(config)
    out = _ensure_out(config)
    model = pretrain_for_task(config, pair)
    provenance = {"seed": int(config["pretrain"]["seed"]),
                  "task": config["task"]["name"],
                  "epoch": int(config["pretrain"]["epochs"])}
    path = out / "pretrained.json"
    _write_outputs([(path, lambda p: models.save_checkpoint(model, p, provenance))])
    source = datasets.generate(pair.source)
    acc = pipeline.evaluate(model, source)["accuracy"]
    print(f"wrote {path} (source accuracy {acc:.3f})")
    return EXIT_OK


def cmd_finetune(config: dict) -> int:
    if not config.get("checkpoint"):
        raise ConfigError("finetune needs config key 'checkpoint' "
                          "(path to a pretraining checkpoint)")
    try:
        pretrained = models.load_checkpoint(
            config["checkpoint"], activation=config["model"]["activation"])
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint: {e}") from e
    out = _ensure_out(config)
    seed = int(config["seeds"][0])
    record, model, noise = run_single(config, pretrained, seed)
    method = config["method"]
    stem = f"{config['task']['name']}__{method}__seed{seed}"
    provenance = {"seed": seed, "task": config["task"]["name"],
                  "epoch": record.final["epochs"]}
    writers = [
        (out / f"{stem}.jsonl", lambda p: record.to_jsonl(p)),
        (out / f"{stem}__model.json",
         lambda p: models.save_checkpoint(model, p, provenance)),
    ]
    if noise is not None:
        noise.anchor_checkpoint = str(config["checkpoint"])
        writers.append((out / f"{stem}__noise.json",
                        lambda p: bound.save_noise_state(noise, p)))
    _write_outputs(writers)
    print(f"{stem}: dev accuracy {record.final['dev_accuracy']:.3f}, "
          f"dev mcc {record.final['dev_mcc']:.3f}")
    return EXIT_OK


def cmd_benchmark(config: dict, workers: int = 1) -> int:
    out = _ensure_out(config)
    runs_dir = out / "runs"
    runs_dir.mkdir(exist_ok=True)
    report, results, specs = run_benchmark(config, workers=workers)
    writers = []
    for (cfg_t, _, task_name, method, seed), rec in zip(specs, results):
        record = pipeline.RunRecord(**rec)
        path = runs_dir / f"{task_name}__{method}__seed{seed}.jsonl"
        writers.append((path, lambda p, r=record: r.to_jsonl(p)))
    writers.append((out / "benchmark_report.json",
                    lambda p: Path(p).write_text(
                        json.dumps(report, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")))
    _write_outputs(writers)

    print(f"{'task':<16} {'method':<16} {'acc':>7} {'std':>7} {'mcc':>7}")
    for task_name in config["tasks"]:
        for method in config["methods"]:
            r = report["results"][task_name][method]
            print(f"{task_name:<16} {method:<16} {r['mean_accuracy']:>7.3f} "
                  f"{r['std_accuracy']:>7.3f} {r['mean_mcc']:>7.3f}")
    print(f"report: {out / 'benchmark_report.json'}")
    return EXIT_OK


def cmd_gradcheck(seeds: int = 20) -> int:
    """Pass/fail table over every op kind plus the full stage-1 objective."""
    failed = False
    print(f"{'op kind':<36} {'max rel err':>12}  status")
    for kind in ad.OPS:
        err = max(ad.gradcheck_op(kind, seed) for seed in range(seeds))
        ok = err < 1e-4
        failed |= not ok
        print(f"{kind:<36} {err:>12.3e}  {'pass' if ok else 'FAIL'}")

    rng = np.random.default_rng(7)
    model = models.init_weights([2, 2, 2], rng)
    packer = models.GroupPacker.for_model(model)
    noise = bound.init_noise_state(model, packer)
    bx = rng.standard_normal((8, 2))
    by = rng.integers(0, 2, size=8)
    cfg = bound.BoundConfig(m=8, delta=0.05, gamma=bound.FixedGamma(5.0),
                            k=bound.FixedK(1.0))
    err = max(bound.objective_gradcheck(model, noise, bx, by, cfg, seed=s)
              for s in range(3))
    ok = err < 1e-3
    failed |= not ok
    print(f"{'stage-1 objective (full J)':<36} {err:>12.3e}  {'pass' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_inspect_noise(noise_path: str, out_path: str) -> int:
    try:
        noise = bound.load_noise_state(noise_path)
    except OSError as e:
        raise ConfigError(f"cannot read noise state: {e}") from e
    variances = noise.variances()
    groups = ["backbone"] * noise.n_backbone + \
        ["head"] * (variances.size - noise.n_backbone)
    order = pipeline.importance_ranking(variances)
    rank = np.empty(variances.size, dtype=np.int64)
    rank[order] = np.arange(1, variances.size + 1)

    def write(p):
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("index,group,variance,rank\n")
            for i in range(variances.size):
                fh.write(f"{i},{groups[i]},{float(variances[i])!r},{rank[i]}\n")

    _write_outputs([(out_path, write)])
    print(f"wrote {out_path} ({variances.size} parameters)")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a JSON config document")
    common.add_argument("--seed", type=int, help="replace the config's seed list")
    common.add_argument("--out", help="output directory")
    common.add_argument("--workers", type=int, default=1,
                        help="parallel workers for benchmark runs")
    common.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config leaf via its dotted path")

    parser = argparse.ArgumentParser(
        prog="pactune",
        description="Two-stage bound-minimizing fine-tuning and its baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate-data", parents=[common],
                   help="write the task's source/target datasets as CSV")
    sub.add_parser("pretrain", parents=[common],
                   help="train on the source task and write a checkpoint")
    sub.add_parser("finetune", parents=[common],
                   help="fine-tune from a checkpoint with the configured method")
    sub.add_parser("benchmark", parents=[common],
                   help="run all tasks x methods x seeds and write a report")
    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference check of every op and the full objective")
    inspect = sub.add_parser("inspect-noise", parents=[common],
                             help="export an importance ranking from a noise file")
    inspect.add_argument("noise_file", help="noise-state JSON file")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = make_parser().parse_args(argv)
    try:
        config = load_config(args.config, sets=args.set, seed=args.seed, out=args.out)
        if args.command == "generate-data":
            return cmd_generate_data(config)
        if args.command == "pretrain":
            return cmd_pretrain(config)
        if args.command == "finetune":
            return cmd_finetune(config)
        if args.command == "benchmark":
            return cmd_benchmark(config, workers=max(1, args.workers))
        if args.command == "gradcheck":
            return cmd_gradcheck()
        if args.command == "inspect-noise":
            out = Path(config["out_dir"]) / "noise_ranking.csv"
            Path(config["out_dir"]).mkdir(parents=True, exist_ok=True)
            return cmd_inspect_noise(args.noise_file, str(out))
        raise ConfigError(f"unknown command {args.command}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.DivergenceError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
