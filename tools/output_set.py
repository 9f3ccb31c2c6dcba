"""Write the byte-identity output set of one checkout into a directory.

    python tools/output_set.py OUT [--repo CHECKOUT]

Runs each row of ``CASES`` in order, in OUT, with the package from CHECKOUT's
``src`` (by default this script's checkout). A row holds a case's name, its
expected exit code, its ``pactune`` arguments (or a ``-c`` program) and any
input file, written into OUT first; an input whose source cannot be read is
recorded as one line of stderr and exit 1. ``--out NAME`` is added unless the
arguments choose the output directory or the command writes no files.
A case leaves ``OUT/NAME/`` (unless it fails) and its stdout, stderr and exit
code in ``OUT/NAME.stdout``, ``.stderr`` and ``.exit``. Paths are relative to
OUT, so two sets compare with ``diff -r``. The tool exits 1 naming each case
whose exit code differs from its row. A set takes 30-60 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

CHECKPOINT = "pretrain/pretrained.json"
NOISE = "finetune-pac-tuning/blobs-rotate__pac-tuning__seed1__noise.json"
PRINT_CONFIG = ("import json; from pactune import cli; "
                "print(json.dumps(cli.load_config(None), sort_keys=True, indent=1))")


class Case(NamedTuple):
    name: str
    exit: int
    args: list[str]
    # (file, text), or (file, JSON file in OUT, path of a leaf, new value of it)
    input: tuple | None = None


def sets(*entries: str) -> list[str]:
    return [arg for entry in entries for arg in ("--set", entry)]


def finetune(*entries: str, checkpoint: str = CHECKPOINT, seed: str = "1") -> list[str]:
    return ["finetune", "--seed", seed, *sets(f"checkpoint={checkpoint}", *entries)]


CSV_TASK = [*(f'task.{side}={{"generator": "csv", "path": "generate-data/{side}.csv"}}'
              for side in ("source", "target")), "task.name=csv"]
OVERRIDE = ('task_overrides={"blobs-rotate": {"pretrain": {"epochs": 20}, '
            '"stage1": {"epochs": 30}, "stage2": {"epochs": 10}}}')
ONE_EPOCH = ("stage1.epochs=1", "stage2.epochs=1")
OVERFLOW_CSV = json.dumps({"generator": "csv", "path": "overflow.csv"})
FIRST_WEIGHT = ("params", 0, "w", 0)

CASES = [
    Case("config", 0, ["-c", PRINT_CONFIG]),
    Case("pretrain", 0, ["pretrain"]),
    *(Case(f"finetune-{m}", 0, finetune(f"method={m}"))
      for m in ("pac-tuning", "vanilla", "noise-injection")),
    *(Case(f"finetune-{m}-no-decay", 0, finetune(
        f"method={m}", "stage1.decay_weights=false", "stage2.weight_decay=false"))
      for m in ("pac-tuning", "vanilla")),
    Case("finetune-fixed-k", 0, finetune('bound.k={"kind":"fixed","value":0.5}',
                                         'bound.gamma.kind="auto"')),
    Case("finetune-one-row", 0, finetune("task.n_shot=97")),  # last batches of 1 row
    Case("inspect-noise", 0, ["inspect-noise", NOISE]),
    Case("gradcheck", 0, ["gradcheck"]),
    *(Case(f"benchmark-w{n}", 0, ["benchmark", "--workers", str(n)]) for n in (1, 2)),
    # a CSV round trip: training on the task files that generate-data writes
    Case("generate-data", 0, ["generate-data"]),
    Case("csv-pretrain", 0, ["pretrain", *sets(*CSV_TASK)]),
    Case("csv-finetune", 0, finetune(*CSV_TASK, checkpoint="csv-pretrain/pretrained.json")),
    # the single-task commands on a task with fewer epochs in its task_overrides
    Case("pretrain-override", 0, ["pretrain", *sets(OVERRIDE)]),
    Case("finetune-override", 0, finetune(
        OVERRIDE, checkpoint="pretrain-override/pretrained.json")),
    Case("error-batch-size", 2, ["pretrain", *sets("pretrain.batch_size=0")]),
    Case("error-divergence", 3, finetune("stage1.lr_head=1e308", seed="2")),  # in stage 1
    Case("error-unknown-set", 2, ["pretrain", *sets("stage1.nope=1")]),
    Case("error-nonfinite-checkpoint", 2, finetune(checkpoint="nonfinite.json"),
         ("nonfinite.json", CHECKPOINT, FIRST_WEIGHT, float("nan"))),
    # finite cells whose column sum overflows, as both task files
    Case("error-csv-overflow", 2, ["generate-data", *sets(
        f"task.source={OVERFLOW_CSV}", f"task.target={OVERFLOW_CSV}", "task.n_shot=1")],
         ("overflow.csv", "a,b,label\n1e308,1,0\n1e308,2,1\n-1e308,3,0\n2,4,1\n")),
    Case("error-pretrain-divergence", 3, ["pretrain", *sets("pretrain.lr_head=1e308")]),
    # a task name that is no file name; it must follow the CSV task's own name
    Case("error-task-name", 2, finetune(
        *CSV_TASK, 'task.name="a/b"', checkpoint="csv-pretrain/pretrained.json")),
    # a model too large for memory
    Case("error-memory", 2, ["pretrain", *sets("model.hidden=[10000000000000000]")]),
    Case("error-flag", 2, ["pretrain", "--seed", "3"]),  # a flag pretrain does not read
    # stage 2's KL overflows while its outputs stay finite
    Case("error-stage2-record", 3, finetune("stage2.weight_decay=false",
                                            "stage2.lr_head=1e154")),
    # every epoch is one update at rates of 1e308, so the last update is checked
    Case("error-pretrain-last-update", 3, ["pretrain", *sets(
        "pretrain.epochs=1", "pretrain.batch_size=5000", "pretrain.lr_backbone=1e308",
        "pretrain.lr_head=1e308")]),
    Case("error-finetune-last-update", 3, finetune(
        "method=vanilla", "task.n_shot=32", "stage2.lr_backbone=1e308",
        "stage2.lr_head=1e308")),
    # the learned noise variances leave the finite range
    Case("error-noise-variance", 3, finetune("stage1.lr_noise_head=1e10")),
    # a prior variance of exp(800) = inf
    Case("error-nonfinite-noise", 2, ["inspect-noise", "nonfinite-noise.json"],
         ("nonfinite-noise.json", NOISE, ("log_lambda",), 800.0)),
    # stage 1's one update overflows the KL
    Case("error-stage1-last-update", 3, finetune("task.n_shot=32", *ONE_EPOCH,
                                                 "stage1.lr_head=1e154")),
    # the task's view is checked: its override asks 500 shots of a 200-row target
    Case("error-override-n-shot", 2, finetune(
        'task.source={"generator": "blobs", "n": 300, "dim": 6, "seed": 11}',
        'task.target={"generator": "blobs", "n": 200, "dim": 6, "classes": 3, "seed": 12}',
        "task.n_shot=100", 'task_overrides={"blobs-rotate": {"task": {"n_shot": 500}}}')),
    # a checkpoint's activation must match the config
    Case("error-activation", 2, finetune('model.activation="relu"')),
    # a checkpoint holds JSON numbers
    Case("error-checkpoint-string", 2, finetune(checkpoint="string-checkpoint.json"),
         ("string-checkpoint.json", CHECKPOINT, FIRST_WEIGHT, "0.5")),
    # a JSON input rejects a repeated key
    Case("error-duplicate-key", 2, ["pretrain", "--config", "duplicate-key.json"],
         ("duplicate-key.json", '{"task": {"n_shot": 100, "n_shot": 500}}')),
    # the power overflows at stage 1's 3rd update; the rate, ~5e76, trips the variance guard
    Case("error-schedule-overflow", 3, finetune(*ONE_EPOCH, (
        'stage1.lr_noise_head={"kind":"step-decay","init":5e-324,"factor":1e200,'
        '"every":1,"floor":5e-324}'))),
    # a leaf that becomes part of an output name is checked before any work: a long
    # seed, a lone surrogate, and 17 parts of 250 bytes, longer than a path may be
    Case("error-long-seed", 2, finetune(seed="9" * 240)),
    Case("error-surrogate-out-dir", 2, ["pretrain", *sets('out_dir="o\\ud800"')]),
    Case("error-long-out-dir", 2, ["pretrain", *sets("pretrain.epochs=1"),
                                   "--out", "/".join(["d" * 250] * 17)]),
]


def python_args(case: Case) -> list[str]:
    """The interpreter's arguments for a case, ``--out NAME`` added by the rule."""
    if case.args[0] == "-c":
        return case.args
    own = case.args[0] == "gradcheck" or any(
        arg == "--out" or arg.startswith("out_dir=") for arg in case.args)
    return ["-m", "pactune.cli", *case.args, *([] if own else ["--out", case.name])]


def write_input(out: Path, file: str, source: str, keys=(), value=None) -> None:
    """Write ``source`` into ``OUT/file``, or with ``keys`` the JSON file
    ``OUT/source`` with that leaf set to ``value``."""
    text = source
    if keys:
        doc = node = json.loads((out / source).read_text())
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        text = json.dumps(doc)
    (out / file).write_text(text)


def run(case: Case, out: Path, env: dict) -> int:
    """Run one case and record its stdout, stderr and exit code."""
    with open(out / f"{case.name}.stdout", "wb") as stdout, \
            open(out / f"{case.name}.stderr", "wb") as stderr:
        try:
            if case.input:
                write_input(out, *case.input)
        except (OSError, ValueError, LookupError, TypeError) as e:
            stderr.write(f"input {case.input[0]}: {type(e).__name__}: {e}\n".encode())
            code = 1
        else:
            code = subprocess.run([sys.executable, *python_args(case)], cwd=out, env=env,
                                  stdout=stdout, stderr=stderr).returncode
    (out / f"{case.name}.exit").write_text(f"{code}\n", encoding="utf-8")
    print(f"{case.name}: exit {code}", flush=True)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the set; must not exist")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/pactune runs (default: this one)")
    args = parser.parse_args(argv)
    src = args.repo.resolve() / "src"
    if not (src / "pactune" / "__init__.py").is_file():
        parser.error(f"no pactune package under {src}")
    if args.out.exists():
        parser.error(f"{args.out} exists")
    args.out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    wrong = [case.name for case in CASES if run(case, args.out, env) != case.exit]
    if wrong:
        print(f"output_set: unexpected exit code in {', '.join(wrong)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
