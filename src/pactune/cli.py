"""Command-line entry point: batch experiments, benchmark suites, reports.

Configuration is a single JSON document; ``--set dotted.key=value`` overrides
individual leaves, and ``--seed``/``--out`` are shorthands for two of them.
Each command takes only the flags it reads. Unknown keys and flags and
out-of-range values are rejected before anything runs. Exit codes: 0 success,
1 check failure (gradcheck), 2 configuration error, 3 numeric divergence,
4 I/O error, 5 a benchmark worker that ended abruptly, 130 interrupted.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bound, datasets, models, optim, pipeline

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4
EXIT_WORKER = 5


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use and then kept: only a pooled
    benchmark loads ``concurrent.futures`` and ``multiprocessing`` (PEP 562)."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class WorkerError(Exception):
    """A benchmark worker that ended abruptly, say killed by the OOM killer."""


class ConfigError(ValueError):
    """A bad config value or input file; a ``ValueError``, so a check that runs
    inside ``_read`` names the file it reads."""


def _read(what: str, path, read):
    """``read()``; an unusable file is one config error that names it once."""
    try:
        return read()
    except (OSError, ValueError) as e:  # an OSError's strerror leaves out the path
        reason = e.strerror if isinstance(e, OSError) else e
        raise ConfigError(f"cannot use {what} '{path}': {reason}") from e


# --- the config schema ------------------------------------------------------------


def _finite(v) -> bool:
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


class Leaf:
    """A kind of leaf: ``ok(value)`` holds for its values, ``what`` names them.
    A value it holds for must also be one of ``then``'s, a kind that names its
    own values. An object value is also walked against ``fields``,
    ``required(value)`` present."""

    def __init__(self, what: str, ok, fields=None, required=None, then=None):
        self.what, self.ok, self.fields, self.required = what, ok, fields or {}, required
        self.then = then

    def check(self, value, key: str) -> None:
        if not self.ok(value):
            raise ConfigError(f"'{key}' must be {self.what}, got {value!r}")
        if self.then is not None:
            self.then.check(value, key)
        if self.fields and isinstance(value, dict):
            _walk(value, self.fields, f"{key}.", self.required(value))


def one_of(allowed) -> Leaf:
    return Leaf(f"one of {sorted(allowed)}", lambda v: isinstance(v, str) and v in allowed)


class ListOf(Leaf):
    """A non-empty list of one kind; with ``distinct``, no entry twice."""

    def __init__(self, item: Leaf, distinct: bool = False):
        super().__init__("a non-empty list", lambda v: isinstance(v, list) and bool(v))
        self.item, self.distinct = item, distinct

    def check(self, value, key: str) -> None:
        super().check(value, key)
        for i, item in enumerate(value):
            self.item.check(item, f"{key}[{i}]")
            if self.distinct and item in value[:i]:
                raise ConfigError(f"'{key}' must not repeat an entry, got {item!r} "
                                  "more than once")


class Tagged(Leaf):
    """An object whose ``kind`` names the dataclass that its ``fields`` build. The
    other kinds' fields may be present (a config file's object is merged onto the
    default one): they are checked, not built. With ``number``, a bare number > 0
    is valid too and builds ``number(value)``."""

    def __init__(self, kinds: dict, fields: dict, number=None):
        self.kinds = {name: (cls, [f.name for f in dataclasses.fields(cls)])
                      for name, cls in kinds.items()}
        self.number, kind = number, one_of(kinds)
        super().__init__(
            ("a number > 0 or " if number else "")
            + f"an object whose 'kind' is one of {sorted(kinds)}",
            lambda v: isinstance(v, dict) and kind.ok(v.get("kind"))
            or number is not None and POSITIVE.ok(v),
            {"kind": kind, **fields}, lambda v: self.kinds[v["kind"]][1])

    def build(self, value):
        if not isinstance(value, dict):
            return self.number(value)
        cls, names = self.kinds[value["kind"]]
        return cls(**{name: value[name] for name in names})


def _fs_fits(v: str, limit: int) -> bool:
    """Whether the file system can encode ``v`` (not a lone surrogate, say from
    a JSON escape), each '/'-separated part in at most ``limit`` bytes."""
    try:
        return all(len(part) <= limit for part in os.fsencode(v).split(b"/"))
    except UnicodeEncodeError:
        return False


# int leaves take JSON integers only: 1.0 is rejected, not truncated
COUNT = Leaf("an integer >= 1", lambda v: type(v) is int and v >= 1)
# a run's seed names its output files: below 2**64, it has at most 20 digits
SEED = Leaf("an integer >= 0 and below 2**64", lambda v: type(v) is int and 0 <= v < 2**64)
POSITIVE = Leaf("a finite number > 0", lambda v: _finite(v) and v > 0)
NONNEGATIVE = Leaf("a finite number >= 0", lambda v: _finite(v) and v >= 0)
FRACTION = Leaf("a number in (0, 1)", lambda v: _finite(v) and 0 < v < 1)
BOOL = Leaf("true or false", lambda v: isinstance(v, bool))
STRING = Leaf("a string", lambda v: isinstance(v, str))
# at most 3834 bytes, 4095 - len("/runs/") - 255: the deepest file a command writes,
# <out_dir>/runs/<a file name>, then fits Linux's 4096-byte path limit
PATH = Leaf("a non-empty string without a NUL byte",
            lambda v: isinstance(v, str) and v != "" and "\0" not in v,
            then=Leaf("a path that the file system can encode, each part at most 255 bytes",
                      lambda v: _fs_fits(v, 255),
                      then=Leaf("a path that the file system encodes in at most 3834 bytes",
                                lambda v: len(os.fsencode(v)) <= 3834)))
RUN_STEM = "{task}__{method}__seed{seed}"  # the stem of every file a run writes
# at most 128 bytes, so each RUN_STEM file, <stem>__model.json at the longest,
# stays a file name (at most 255 bytes) for every method and seed
NAME = Leaf("a file name: not empty, '.' or '..', and without '/' or a NUL byte",
            lambda v: PATH.ok(v) and "/" not in v and v not in (".", ".."),
            then=Leaf("a name that the file system can encode in at most 128 bytes",
                      lambda v: _fs_fits(v, 128)))
STRING_OR_NULL = Leaf("a string or null", lambda v: v is None or isinstance(v, str))
SPEC = Leaf("null or an object", lambda v: v is None or isinstance(v, dict),
            {f.name: {"int": SEED, "float": Leaf("a finite number", _finite),
                      "str": STRING}[f.type]
             for f in dataclasses.fields(datasets.DatasetSpec)}, lambda v: ["generator"])

SCHEMA = {  # dotted leaf -> (default, kind)
    "task.name": ("blobs-rotate", NAME),
    # explicit DatasetSpec fields; they override "name"
    "task.source": (None, SPEC),
    "task.target": (None, SPEC),
    "task.n_shot": (100, COUNT),
    "method": ("pac-tuning", one_of(pipeline.METHODS)),
    "methods": (list(pipeline.METHODS), ListOf(one_of(pipeline.METHODS), distinct=True)),
    "tasks": (list(datasets.BUILTIN_TASKS),
              ListOf(one_of(datasets.BUILTIN_TASKS), distinct=True)),
    "model.hidden": ([24, 12], ListOf(COUNT)),
    "model.activation": ("tanh", one_of(models.ACTIVATIONS)),
    "model.freeze_first_layer": (True, BOOL),
    "pretrain.epochs": (200, COUNT),
    "pretrain.batch_size": (32, COUNT),
    "pretrain.lr_backbone": (3e-3, POSITIVE),
    "pretrain.lr_head": (1e-2, POSITIVE),
    "pretrain.seed": (0, SEED),
    "stage1.epochs": (150, COUNT),
    "stage1.batch_size": (32, COUNT),
    "stage1.lr_backbone": (1e-3, POSITIVE),
    "stage1.lr_head": (1e-2, POSITIVE),
    "stage1.lr_noise_backbone": (0.1, POSITIVE),
    "stage1.lr_noise_head": (
        {"kind": "step-decay", "init": 0.5, "factor": 0.9, "every": 10, "floor": 0.01},
        Tagged({"constant": optim.Constant, "step-decay": optim.StepDecay},
               {"value": POSITIVE, "init": POSITIVE, "factor": POSITIVE, "every": COUNT,
                "floor": POSITIVE}, number=optim.Constant)),
    "stage1.decay_weights": (True, BOOL),
    "stage1.l_pac_weight": (1.0, NONNEGATIVE),
    "stage2.epochs": (50, COUNT),
    "stage2.batch_size": (32, COUNT),
    "stage2.lr_backbone": (1e-3, POSITIVE),
    "stage2.lr_head": (1e-2, POSITIVE),
    "stage2.weight_decay": (True, BOOL),
    "bound.delta": (0.05, FRACTION),
    "bound.gamma": ({"kind": "fixed", "value": 5.0, "low": 0.01, "high": 10.0},
                    Tagged({"fixed": bound.FixedGamma, "auto": bound.AutoGamma},
                           {"value": POSITIVE, "low": POSITIVE, "high": POSITIVE})),
    "bound.k": ({"kind": "running", "ema_decay": 0.99, "value": 1.0},
                Tagged({"fixed": bound.FixedK, "running": bound.RunningK},
                       {"value": POSITIVE, "ema_decay": FRACTION})),
    "noise_injection.sigma": (0.01, NONNEGATIVE),
    "seeds": ([1, 2, 10, 26, 100], ListOf(SEED, distinct=True)),
    "checkpoint": (None, STRING_OR_NULL),
    "out_dir": ("pactune-out", PATH),
    # task name -> partial config, checked by _check and as the task's view
    "task_overrides": ({}, Leaf("an object", lambda v: isinstance(v, dict))),
}

# a task's view takes these from the base config: an override would be ignored
BASE_ONLY = {"seeds", "methods", "method", "tasks", "out_dir", "checkpoint",
             "task_overrides", "task.name", "task.source", "task.target"}


def _nest(flat: dict) -> dict:
    """``{"a.b": v}`` -> ``{"a": {"b": v}}``."""
    tree: dict = {}
    for dotted, value in flat.items():
        *sections, leaf = dotted.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    return tree


DEFAULT_CONFIG = _nest({leaf: default for leaf, (default, _) in SCHEMA.items()})
_TREE = _nest({leaf: kind for leaf, (_, kind) in SCHEMA.items()})


def _walk(node, tree: dict, path: str, required=None) -> None:
    """Check an object against ``tree`` (name -> kind or subtree), naming keys
    after ``path``; only names in ``required`` (by default all) must be present."""
    if not isinstance(node, dict):
        raise ConfigError(f"'{path[:-1]}' must be an object, got {node!r}")
    for name in node:
        if name not in tree:
            raise ConfigError(f"unknown config key '{path}{name}'")
    for name, kind in tree.items():
        if name not in node:
            if required is None or name in required:
                raise ConfigError(f"'{path}{name}' is missing")
        elif isinstance(kind, dict):
            _walk(node[name], kind, f"{path}{name}.")
        else:
            kind.check(node[name], path + name)


def _check(config: dict, prefix: str = "") -> None:
    """Walk a config against the table, then apply the rules that join leaves."""
    _walk(config, _TREE, prefix)
    task = config["task"]
    explicit = [side for side in ("source", "target") if task[side] is not None]
    for side in explicit:
        try:
            datasets.DatasetSpec(**task[side])
        except ValueError as e:
            raise ConfigError(f"'{prefix}task.{side}' is invalid: {e}") from e
    try:
        pair = resolve_task(config)
    except ValueError as e:
        where = "task" if explicit else "task.name"
        raise ConfigError(f"'{prefix}{where}' is invalid: {e}") from e
    # a CSV target's size is checked when a command reads it: see load_task_data
    if pair.target.generator != "csv":
        _check_n_shot(config, pair.target.n, prefix)
    gamma = config["bound"]["gamma"]
    if gamma["kind"] == "auto" and gamma["low"] > gamma["high"]:
        raise ConfigError(f"'{prefix}bound.gamma' needs low <= high, got {gamma!r}")
    for task_name, override in config["task_overrides"].items():
        at = f"{prefix}task_overrides.{task_name}"
        if task_name not in config["tasks"]:
            raise ConfigError(f"'{at}' names a task not in 'tasks'")
        if not isinstance(override, dict) \
                or not isinstance(override.get("task", {}), dict):
            raise ConfigError(f"'{at}' must be an object of config sections")
        ignored = BASE_ONLY & {*override, *(f"task.{k}" for k in override.get("task", {}))}
        if ignored:
            raise ConfigError(f"'{at}.{min(ignored)}' cannot be set per task")


def _check_n_shot(config: dict, n_target: int, prefix: str) -> None:
    n_shot = config["task"]["n_shot"]
    if n_shot >= n_target:
        raise ConfigError(f"'{prefix}task.n_shot' must be below {n_target}, the size "
                          f"of the target task, got {n_shot!r}")


def _view_prefix(config: dict, task_name: str) -> str:
    """How errors in a task's view name its keys: under its override, if any."""
    return f"task_overrides.{task_name}." if task_name in config["task_overrides"] else ""


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
        value = json.loads(raw, object_pairs_hook=models.unique_keys)
    except json.JSONDecodeError:
        value = raw
    except ValueError as e:  # a repeated key
        raise ConfigError(f"--set '{key}': {e}") from e
    return key.split("."), value


def _apply_set(config: dict, dotted: list[str], value) -> None:
    """Place one leaf or object; the walk then checks its path like a file's key."""
    node = config
    for part in dotted[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path '{'.'.join(dotted)}' crosses a non-object")
    node[dotted[-1]] = value


def _json_object(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"),
                     object_pairs_hook=models.unique_keys)
    if not isinstance(doc, dict):
        raise ValueError("the root is not a JSON object")
    return doc


def load_config(path: str | None, sets=()) -> dict:
    user = {} if path is None else _read("config file", path, lambda: _json_object(path))
    config = _deep_merge(DEFAULT_CONFIG, user)
    for entry in sets:
        _apply_set(config, *_parse_set(entry))
    _check(config)
    for task_name in config["tasks"]:
        task_config(config, task_name)
    return config


# --- config -> domain objects ---------------------------------------------------
# Each builder takes a view that task_config has checked, so it only builds.


def resolve_task(config: dict) -> datasets.TransferPair:
    task = config["task"]
    specs = [task["source"], task["target"]]
    if specs == [None, None]:
        return datasets.builtin_task(task["name"])
    if None in specs:
        raise ValueError("explicit tasks need both task.source and task.target")
    return datasets.TransferPair(*(datasets.DatasetSpec(**spec) for spec in specs))


def build_stage1(config: dict) -> pipeline.Stage1Config:
    c = config["stage1"]
    schedule = SCHEMA["stage1.lr_noise_head"][1].build(c["lr_noise_head"])
    return pipeline.Stage1Config(**dict(c, lr_noise_head=schedule))


def build_stage2(config: dict) -> pipeline.Stage2Config:
    return pipeline.Stage2Config(**config["stage2"])


def build_bound(config: dict, m: int) -> bound.BoundConfig:
    c = config["bound"]
    return bound.BoundConfig(m=m, delta=c["delta"],
                             gamma=SCHEMA["bound.gamma"][1].build(c["gamma"]),
                             k=SCHEMA["bound.k"][1].build(c["k"]))


# --- run assembly ---------------------------------------------------------------


def task_config(config: dict, task_name: str | None = None) -> dict:
    """A task's view of the config: its overrides applied, and checked, so every
    config a command runs has been. A named task is that built-in task, as the
    benchmark runs it; by default the view keeps the config's own task, explicit
    source and target included."""
    name = task_name or config["task"]["name"]
    merged = _deep_merge(config, config["task_overrides"].get(name, {}))
    if task_name is not None:
        merged["task"] = dict(merged["task"], name=task_name, source=None, target=None)
    _check(merged, _view_prefix(config, name))
    return merged


def load_task_data(config: dict, side: str) -> datasets.Dataset:
    """One side of the config's task, read or generated once. A CSV file that
    cannot be used, or a target no larger than 'task.n_shot', is a config error."""
    spec = getattr(resolve_task(config), side)

    def read():
        data = datasets.generate(spec)
        if side == "target" and spec.generator == "csv":  # task_config checked the others
            _check_n_shot(config, len(data), _view_prefix(config, config["task"]["name"]))
        return data

    return _read(f"'task.{side}' file", spec.path, read) \
        if spec.generator == "csv" else read()


def pretrain_for_task(config: dict, source: datasets.Dataset) -> models.MLPClassifier:
    """Pretrain on ``source``, the generated source task of ``config``."""
    sizes = [source.dim, *config["model"]["hidden"], source.n_classes]
    try:
        return pipeline.pretrain_model(source, sizes, **config["pretrain"],
                                       activation=config["model"]["activation"])
    except pipeline.DivergenceError as e:  # name the run, as run_single does
        raise pipeline.DivergenceError(f"{config['task']['name']} pretraining seed "
                                       f"{config['pretrain']['seed']}: {e}") from e


def run_single(config: dict, pretrained: models.MLPClassifier, target: datasets.Dataset,
               seed: int, method: str) -> tuple[pipeline.RunRecord, models.MLPClassifier,
                                                bound.NoiseState | None]:
    """Fine-tune on a few-shot sample of ``target``, the generated target task."""
    train, dev = datasets.few_shot_sample(target, config["task"]["n_shot"], seed)
    try:
        return pipeline.run_finetune(
            pretrained, train, dev, method, seed,
            stage1=build_stage1(config), stage2=build_stage2(config),
            bound_cfg=build_bound(config, m=len(train)),
            freeze_first_layer=config["model"]["freeze_first_layer"],
            noise_sigma=config["noise_injection"]["sigma"],
            config_echo=config)
    except pipeline.DivergenceError as e:  # name the run
        raise pipeline.DivergenceError(
            f"{config['task']['name']} {method} seed {seed}: {e}") from e


def _benchmark_run(payload) -> pipeline.RunRecord:
    """One benchmark run, named by its record's ``final``; module-level so
    worker processes can receive it."""
    view, pretrained, target, method, seed = payload
    record, _, _ = run_single(view, pretrained, target, seed, method)
    record.final["task"] = view["task"]["name"]
    return record


def run_benchmark(config: dict, workers: int = 1):
    """All tasks x methods x seeds; returns (report, run records).

    Workers run fully isolated; records come back in run order so the
    report and the per-run JSONL files are deterministic for a fixed config.
    """
    runs = []
    for task_name in config["tasks"]:
        view = task_config(config, task_name)
        pretrained = pretrain_for_task(view, load_task_data(view, "source"))
        target = load_task_data(view, "target")
        runs += [(view, pretrained, target, method, seed)
                 for method in config["methods"] for seed in config["seeds"]]

    # a fork pool starts all its workers at its first submit: none beyond the runs
    workers = min(workers, len(runs))
    if workers > 1:
        from concurrent.futures.process import BrokenProcessPool
        try:  # the class as the module holds it now, which a test or tracer may replace
            with sys.modules[__name__].ProcessPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(_benchmark_run, runs))
        except BrokenProcessPool as e:  # no exception of the worker's own to name
            raise WorkerError("a benchmark worker ended abruptly") from e
    else:
        records = [_benchmark_run(run) for run in runs]

    report: dict = {"config": config, "results": {}, "runs": []}
    for final in (record.final for record in records):
        report["runs"].append({"task": final["task"], "method": final["method"],
                               "seed": final["seed"], "final": final})
        report["results"].setdefault(final["task"], {}).setdefault(
            final["method"], []).append(final)
    for by_method in report["results"].values():
        for method, finals in by_method.items():
            acc, mcc = (np.asarray([f[key] for f in finals])
                        for key in ("dev_accuracy", "dev_mcc"))
            by_method[method] = {
                "mean_accuracy": float(acc.mean()), "std_accuracy": float(acc.std()),
                "mean_mcc": float(mcc.mean()), "std_mcc": float(mcc.std()),
                "per_seed_accuracy": acc.tolist(), "per_seed_mcc": mcc.tolist()}
    return report, records


# --- commands -------------------------------------------------------------------


def _say(text: str) -> None:
    """Print ``text`` and flush it. If stdout cannot take it (a pipe whose reader
    has gone, say), point fd 1 at the null device, so that the interpreter's
    flush at exit fails on nothing, and raise the ``OSError``."""
    try:
        print(text, flush=True)
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        raise


def _write_outputs(writers, summary: str) -> None:
    """Run (path, fn) pairs, each after making its path's missing directories,
    then print the command's ``summary``. If one fails, the summary included,
    remove every file written or begun and every directory made, newest first:
    a failed command leaves no output. No other code makes any."""
    made = []
    try:
        for path, fn in writers:
            for parent in reversed(Path(path).parents):
                if not parent.exists():
                    parent.mkdir()
                    made.append(parent.rmdir)
            made.append(Path(path).unlink)
            fn(path)
        _say(summary)
    except BaseException:
        for undo in reversed(made):
            with contextlib.suppress(OSError):
                undo()
        raise


def cmd_generate_data(config: dict) -> int:
    source, target = (load_task_data(config, side) for side in ("source", "target"))
    out = Path(config["out_dir"])
    _write_outputs([
        (out / "source.csv", lambda p: datasets.export_csv(source, p)),
        (out / "target.csv", lambda p: datasets.export_csv(target, p)),
    ], f"wrote {out / 'source.csv'} ({len(source)} rows) and "
       f"{out / 'target.csv'} ({len(target)} rows)")
    return EXIT_OK


def cmd_pretrain(config: dict) -> int:
    source = load_task_data(config, "source")
    model = pretrain_for_task(config, source)
    provenance = {"seed": config["pretrain"]["seed"],
                  "task": config["task"]["name"],
                  "epoch": config["pretrain"]["epochs"]}
    path = Path(config["out_dir"]) / "pretrained.json"
    acc = pipeline.evaluate(model, source)["accuracy"]
    _write_outputs([(path, lambda p: models.save_checkpoint(model, p, provenance))],
                   f"wrote {path} (source accuracy {acc:.3f})")
    return EXIT_OK


def cmd_finetune(config: dict) -> int:
    target = load_task_data(config, "target")
    if not config.get("checkpoint"):
        raise ConfigError("finetune needs config key 'checkpoint' "
                          "(path to a pretraining checkpoint)")
    path = config["checkpoint"]

    def read():  # a checkpoint that does not fit the task or the config is unusable
        activation = config["model"]["activation"]
        model = models.load_checkpoint(path, activation=activation)
        if model.activation != activation:
            raise ValueError(f"it was pretrained with {model.activation}, but "
                             f"'model.activation' is {activation}")
        if model.input_dim != target.dim:
            raise ValueError(f"it takes inputs of size {model.input_dim}, but the target "
                             f"task's inputs have size {target.dim}")
        if model.layer_sizes[1:-1] != config["model"]["hidden"]:
            raise ValueError(f"it has hidden layers {model.layer_sizes[1:-1]}, but "
                             f"'model.hidden' is {config['model']['hidden']}")
        return model

    pretrained = _read("checkpoint", path, read)
    out = Path(config["out_dir"])
    seed = config["seeds"][0]
    method = config["method"]
    record, model, noise = run_single(config, pretrained, target, seed, method)
    stem = RUN_STEM.format(task=config["task"]["name"], method=method, seed=seed)
    provenance = {"seed": seed, "task": config["task"]["name"],
                  "epoch": record.final["epochs"]}
    writers = [
        (out / f"{stem}.jsonl", lambda p: record.to_jsonl(p)),
        (out / f"{stem}__model.json",
         lambda p: models.save_checkpoint(model, p, provenance)),
    ]
    if noise is not None:
        writers.append((out / f"{stem}__noise.json",
                        lambda p: bound.save_noise_state(noise, p, path)))
    _write_outputs(writers, f"{stem}: dev accuracy {record.final['dev_accuracy']:.3f}, "
                            f"dev mcc {record.final['dev_mcc']:.3f}")
    return EXIT_OK


def cmd_benchmark(config: dict, workers: int = 1) -> int:
    out = Path(config["out_dir"])
    report, records = run_benchmark(config, workers=workers)
    writers = [(out / "runs" / f"{RUN_STEM.format(**r.final)}.jsonl",
                lambda p, r=r: r.to_jsonl(p)) for r in records]
    writers.append((out / "benchmark_report.json",
                    lambda p: Path(p).write_text(
                        json.dumps(report, sort_keys=True, indent=1) + "\n",
                        encoding="utf-8")))
    lines = [f"{'task':<16} {'method':<16} {'acc':>7} {'std':>7} {'mcc':>7}"]
    for task_name in config["tasks"]:
        for method in config["methods"]:
            r = report["results"][task_name][method]
            lines.append(f"{task_name:<16} {method:<16} {r['mean_accuracy']:>7.3f} "
                         f"{r['std_accuracy']:>7.3f} {r['mean_mcc']:>7.3f}")
    lines.append(f"report: {out / 'benchmark_report.json'}")
    _write_outputs(writers, "\n".join(lines))
    return EXIT_OK


def cmd_gradcheck() -> int:
    """Acceptance criterion 1's suite (``autodiff.gradcheck_suite``) as a
    pass/fail table. The one command that loads the tape autodiff."""
    from . import autodiff
    failed = False
    _say(f"{'check':<36} {'worst error':>12}  status")
    for name, err, tolerance in autodiff.gradcheck_suite():
        ok = err < tolerance
        failed |= not ok
        _say(f"{name:<36} {err:>12.3e}  {'pass' if ok else 'FAIL'}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_inspect_noise(config: dict, noise_path: str) -> int:
    noise = _read("noise file", noise_path, lambda: bound.load_noise_state(noise_path))
    out_path = Path(config["out_dir"]) / "noise_ranking.csv"
    variances = noise.variances()
    groups = [g.value for g in models.ParamGroup for _ in range(noise.size(g))]
    order = pipeline.importance_ranking(variances)
    rank = np.empty(variances.size, dtype=np.int64)
    rank[order] = np.arange(1, variances.size + 1)

    def write(p):
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("index,group,variance,rank\n")
            for i in range(variances.size):
                fh.write(f"{i},{groups[i]},{float(variances[i])!r},{rank[i]}\n")

    _write_outputs([(out_path, write)], f"wrote {out_path} ({variances.size} parameters)")
    return EXIT_OK


# --- argument parsing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flags are spelled out, not abbreviated, and a bad command line is a
    config error: one line from ``main``, exit 2."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


FLAGS = {
    "--config": {"help": "path to a JSON config document"},
    "--set": {"action": "append", "default": [], "metavar": "KEY=VALUE",
              "help": "override a config leaf via its dotted path"},
    "--out": {"help": 'output directory: --set out_dir="OUT", applied last'},
    "--seed": {"type": int, "help": "--set seeds=[SEED], applied last"},
    "--workers": {"type": int, "default": 1, "help": "parallel benchmark runs, at least 1"},
}
CONFIG_FLAGS = ["--config", "--set", "--out"]
SEED_FLAGS = CONFIG_FLAGS + ["--seed"]
COMMANDS = {  # each command's help and the only flags it takes, the ones it reads
    "generate-data": ("write the task's source/target datasets as CSV", CONFIG_FLAGS),
    "pretrain": ("train on the source task and write a checkpoint", CONFIG_FLAGS),
    "finetune": ("fine-tune from a checkpoint with the configured method", SEED_FLAGS),
    "benchmark": ("run all tasks x methods x seeds and write a report",
                  SEED_FLAGS + ["--workers"]),
    "gradcheck": ("check the ops, the objective and the training gradients", []),
    "inspect-noise": ("export an importance ranking from a noise file", CONFIG_FLAGS),
}


def make_parser() -> argparse.ArgumentParser:
    """Each command takes the flags ``COMMANDS`` gives it."""
    parser = _Parser(prog="pactune",
                     description="Two-stage bound-minimizing fine-tuning and its baselines.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        for flag in flags:
            command.add_argument(flag, **FLAGS[flag])
    sub.choices["inspect-noise"].add_argument("noise_file", help="noise-state JSON file")
    return parser


def main(argv=None) -> int:
    try:
        args, extra = make_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"{args.command} does not take {' '.join(extra)}; it takes "
                              f"{', '.join(COMMANDS[args.command][1]) or 'no flags'}")
        if args.command == "gradcheck":
            return cmd_gradcheck()
        workers = getattr(args, "workers", 1)
        if workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {workers}")
        # --seed N and --out D are the --set entries they stand for, applied last
        seed, out = getattr(args, "seed", None), args.out
        shorthands = [f"seeds=[{seed}]"] if seed is not None else []
        shorthands += [f"out_dir={json.dumps(out)}"] if out is not None else []
        config = load_config(args.config, args.set + shorthands)
        single_task = {"generate-data": cmd_generate_data, "pretrain": cmd_pretrain,
                       "finetune": cmd_finetune}
        if args.command in single_task:  # each runs on its task's view of the config
            return single_task[args.command](task_config(config))
        if args.command == "benchmark":
            return cmd_benchmark(config, workers=workers)
        return cmd_inspect_noise(config, args.noise_file)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except pipeline.DivergenceError as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except MemoryError as e:  # numpy's, for sizes no address space can map
        print(f"config error: the configured sizes do not fit in memory: {e}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except WorkerError as e:
        print(f"worker error: {e}", file=sys.stderr)
        return EXIT_WORKER
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130  # 128 + SIGINT, as a shell reports a process that SIGINT ended


if __name__ == "__main__":
    sys.exit(main())
