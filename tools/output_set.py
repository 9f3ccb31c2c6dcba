"""Write the byte-identity output set of one checkout into a directory.

    python tools/output_set.py OUT [--repo CHECKOUT]

Runs, inside OUT and with the package from CHECKOUT's ``src`` (by default
the checkout that holds this script):

- ``load_config(None)``, printed as sorted JSON;
- ``pactune pretrain`` on the default config;
- ``pactune finetune --seed 1`` from that checkpoint, once per method,
  once each for ``pac-tuning`` and ``vanilla`` without weight decay
  (``stage1.decay_weights=false``, ``stage2.weight_decay=false``), and
  ``finetune-fixed-k``, ``pac-tuning`` with a fixed K
  (``bound.k={"kind":"fixed","value":0.5}``) and auto gamma, and
  ``finetune-one-row``, ``pac-tuning`` on 97 training rows
  (``task.n_shot=97``), so each epoch's last batch holds 1 row;
- ``pactune inspect-noise`` on the pac-tuning run's noise file;
- ``pactune gradcheck``;
- ``pactune benchmark`` with ``--workers 1`` and with ``--workers 2``;
- a CSV round trip: ``pactune generate-data``, then ``pactune pretrain`` and
  ``pactune finetune --seed 1`` on the two CSV files it wrote;
- the single-task commands on a task with overrides (``task_overrides`` for
  ``blobs-rotate`` setting fewer pretrain, stage-1 and stage-2 epochs):
  ``pretrain-override`` runs ``pactune pretrain``, and ``finetune-override``
  runs ``pactune finetune --seed 1`` from that checkpoint;
- sixteen error paths and their one-line stderr: ``pactune pretrain`` with
  ``pretrain.batch_size=0`` (exit 2), ``pactune finetune --seed 2`` from
  the pretrain checkpoint with ``stage1.lr_head=1e308``, which diverges in
  stage 1 (exit 3), ``error-unknown-set``, ``pactune pretrain`` with
  ``--set stage1.nope=1`` (exit 2), ``error-nonfinite-checkpoint``,
  ``pactune finetune --seed 1`` from a copy of the pretrain checkpoint,
  ``nonfinite.json``, whose first weight is ``NaN`` (exit 2),
  ``error-csv-overflow``, ``pactune generate-data`` with both task files
  ``overflow.csv``, whose column ``a`` holds ``1e308, 1e308, -1e308, 2``
  (``task.n_shot=1``; exit 2), ``error-pretrain-divergence``,
  ``pactune pretrain`` with ``pretrain.lr_head=1e308`` (exit 3),
  ``error-task-name``, ``pactune finetune --seed 1`` on the CSV task with
  ``task.name="a/b"``, no file name (exit 2), ``error-memory``,
  ``pactune pretrain`` with ``model.hidden=[10000000000000000]``, a model
  too large for memory (exit 2), ``error-flag``, ``pactune pretrain
  --seed 3``, a flag that ``pretrain`` does not read (exit 2),
  ``error-stage2-record``, ``pactune finetune --seed 1`` from the pretrain
  checkpoint with ``stage2.weight_decay=false`` and ``stage2.lr_head=1e154``,
  whose stage-2 KL overflows while the outputs stay finite (exit 3), and two
  runs whose every epoch is one update at learning rates of ``1e308``:
  ``error-pretrain-last-update``, ``pactune pretrain`` with one epoch of
  ``pretrain.batch_size=5000`` (exit 3), and ``error-finetune-last-update``,
  ``pactune finetune --seed 1``, ``vanilla`` on ``task.n_shot=32`` rows
  (exit 3). Three more pin the noise state's variance rule and stage 1's own
  last update: ``error-noise-variance``, ``pactune finetune --seed 1`` with
  ``stage1.lr_noise_head=1e10``, whose learned variances leave the finite
  range (exit 3), ``error-nonfinite-noise``, ``pactune inspect-noise`` on a
  copy of the pac-tuning run's noise file, ``nonfinite-noise.json``, whose
  ``log_lambda`` is 800 (exit 2), and ``error-stage1-last-update``,
  ``pactune finetune --seed 1`` on ``task.n_shot=32`` rows with one-epoch
  stages and ``stage1.lr_head=1e154``, whose one stage-1 update overflows the
  KL (exit 3). ``error-override-n-shot``, ``pactune finetune --seed 1`` from
  the pretrain checkpoint on explicit blobs tasks (a source of 300 rows,
  seed 11, and a 3-class target of 200 rows, seed 12, both of dimension 6)
  whose ``task_overrides`` give ``blobs-rotate`` a ``task.n_shot`` of 500, pins
  that the view a single-task command runs is checked (exit 2). A failed
  command leaves no ``OUT/<name>/``.

Each command writes into ``OUT/<name>/`` and leaves its stdout, stderr and
exit code in ``OUT/<name>.stdout``, ``.stderr`` and ``.exit``. Every path a
command sees is relative to OUT, so the sets of two checkouts compare with
``diff -r OUT_A OUT_B``. A set takes about 50 s on a 2-vCPU machine, most of
it in the two default benchmarks.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

METHODS = ("pac-tuning", "vanilla", "noise-injection")
CHECKPOINT = "pretrain/pretrained.json"
NOISE = "finetune-pac-tuning/blobs-rotate__pac-tuning__seed1__noise.json"
CSV_TASK = [f'task.{side}={{"generator": "csv", "path": "generate-data/{side}.csv"}}'
            for side in ("source", "target")] + ["task.name=csv"]
NO_DECAY = ["--set", "stage1.decay_weights=false", "--set", "stage2.weight_decay=false"]
OVERRIDE = ["--set", 'task_overrides={"blobs-rotate": {"pretrain": {"epochs": 20}, '
            '"stage1": {"epochs": 30}, "stage2": {"epochs": 10}}}']
OVERRIDE_N_SHOT = [
    "--set", 'task.source={"generator": "blobs", "n": 300, "dim": 6, "seed": 11}',
    "--set", 'task.target={"generator": "blobs", "n": 200, "dim": 6, "classes": 3, '
    '"seed": 12}',
    "--set", "task.n_shot=100",
    "--set", 'task_overrides={"blobs-rotate": {"task": {"n_shot": 500}}}']
PRINT_CONFIG = ("import json; from pactune import cli; "
                "print(json.dumps(cli.load_config(None), sort_keys=True, indent=1))")
# the pretrain checkpoint with its first weight NaN, then finetune from it
NONFINITE_FINETUNE = (
    "import json, sys; from pathlib import Path; from pactune import cli; "
    f"doc = json.loads(Path({CHECKPOINT!r}).read_text()); "
    "doc['params'][0]['w'][0] = float('nan'); "
    "Path('nonfinite.json').write_text(json.dumps(doc)); "
    "sys.exit(cli.main(['finetune', '--seed', '1', '--set', 'checkpoint=nonfinite.json', "
    "'--out', 'error-nonfinite-checkpoint']))")
# the pac-tuning run's noise file with a prior variance exp(800) = inf, then inspect it
NONFINITE_NOISE = (
    "import json, sys; from pathlib import Path; from pactune import cli; "
    f"doc = json.loads(Path({NOISE!r}).read_text()); doc['log_lambda'] = 800.0; "
    "Path('nonfinite-noise.json').write_text(json.dumps(doc)); "
    "sys.exit(cli.main(['inspect-noise', 'nonfinite-noise.json', "
    "'--out', 'error-nonfinite-noise']))")
# finite cells whose column sum overflows, as both task files of generate-data
CSV_OVERFLOW = (
    "import json, sys; from pathlib import Path; from pactune import cli; "
    r"Path('overflow.csv').write_text('a,b,label\n1e308,1,0\n1e308,2,1\n-1e308,3,0\n"
    r"2,4,1\n'); "
    "spec = json.dumps({'generator': 'csv', 'path': 'overflow.csv'}); "
    "sys.exit(cli.main(['generate-data', '--set', 'task.source=' + spec, '--set', "
    "'task.target=' + spec, '--set', 'task.n_shot=1', '--out', 'error-csv-overflow']))")


def commands() -> list[tuple[str, list[str]]]:
    """(name, python arguments) of every command, in the order they run."""
    cli = ["-m", "pactune.cli"]
    runs = [("config", ["-c", PRINT_CONFIG]),
            ("pretrain", cli + ["pretrain", "--out", "pretrain"])]
    runs += [(f"finetune-{m}", cli + ["finetune", "--seed", "1", "--set", f"method={m}",
                                      "--set", f"checkpoint={CHECKPOINT}",
                                      "--out", f"finetune-{m}"]) for m in METHODS]
    runs += [(f"finetune-{m}-no-decay",
              cli + ["finetune", "--seed", "1", "--set", f"method={m}",
                     "--set", f"checkpoint={CHECKPOINT}", *NO_DECAY,
                     "--out", f"finetune-{m}-no-decay"]) for m in ("pac-tuning", "vanilla")]
    runs += [("finetune-fixed-k",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", 'bound.k={"kind":"fixed","value":0.5}',
                     "--set", 'bound.gamma.kind="auto"', "--out", "finetune-fixed-k"]),
             ("finetune-one-row",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", "task.n_shot=97", "--out", "finetune-one-row"])]
    runs += [("inspect-noise", cli + ["inspect-noise", NOISE, "--out", "inspect-noise"]),
             ("gradcheck", cli + ["gradcheck"])]
    runs += [(f"benchmark-w{n}", cli + ["benchmark", "--workers", str(n),
                                        "--out", f"benchmark-w{n}"]) for n in (1, 2)]
    csv_task = [a for s in CSV_TASK for a in ("--set", s)]
    runs += [("generate-data", cli + ["generate-data", "--out", "generate-data"]),
             ("csv-pretrain", cli + ["pretrain", *csv_task, "--out", "csv-pretrain"]),
             ("csv-finetune", cli + ["finetune", "--seed", "1", *csv_task, "--set",
                                     "checkpoint=csv-pretrain/pretrained.json",
                                     "--out", "csv-finetune"])]
    runs += [("pretrain-override", cli + ["pretrain", *OVERRIDE,
                                          "--out", "pretrain-override"]),
             ("finetune-override", cli + ["finetune", "--seed", "1", *OVERRIDE, "--set",
                                          "checkpoint=pretrain-override/pretrained.json",
                                          "--out", "finetune-override"])]
    runs += [("error-batch-size", cli + ["pretrain", "--set", "pretrain.batch_size=0",
                                         "--out", "error-batch-size"]),
             ("error-divergence", cli + ["finetune", "--seed", "2", "--set",
                                         "stage1.lr_head=1e308", "--set",
                                         f"checkpoint={CHECKPOINT}",
                                         "--out", "error-divergence"]),
             ("error-unknown-set", cli + ["pretrain", "--set", "stage1.nope=1",
                                          "--out", "error-unknown-set"]),
             ("error-nonfinite-checkpoint", ["-c", NONFINITE_FINETUNE]),
             ("error-csv-overflow", ["-c", CSV_OVERFLOW]),
             ("error-pretrain-divergence",
              cli + ["pretrain", "--set", "pretrain.lr_head=1e308",
                     "--out", "error-pretrain-divergence"]),
             ("error-task-name", cli + ["finetune", "--seed", "1", *csv_task, "--set",
                                        'task.name="a/b"', "--set",
                                        "checkpoint=csv-pretrain/pretrained.json",
                                        "--out", "error-task-name"]),
             ("error-memory", cli + ["pretrain", "--set",
                                     "model.hidden=[10000000000000000]",
                                     "--out", "error-memory"]),
             ("error-flag", cli + ["pretrain", "--seed", "3", "--out", "error-flag"]),
             ("error-stage2-record",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", "stage2.weight_decay=false", "--set", "stage2.lr_head=1e154",
                     "--out", "error-stage2-record"]),
             ("error-pretrain-last-update",
              cli + ["pretrain", "--set", "pretrain.epochs=1", "--set",
                     "pretrain.batch_size=5000", "--set", "pretrain.lr_backbone=1e308",
                     "--set", "pretrain.lr_head=1e308", "--out", "error-pretrain-last-update"]),
             ("error-finetune-last-update",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", "method=vanilla", "--set", "task.n_shot=32",
                     "--set", "stage2.lr_backbone=1e308", "--set", "stage2.lr_head=1e308",
                     "--out", "error-finetune-last-update"]),
             ("error-noise-variance",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", "stage1.lr_noise_head=1e10", "--out", "error-noise-variance"]),
             ("error-nonfinite-noise", ["-c", NONFINITE_NOISE]),
             ("error-stage1-last-update",
              cli + ["finetune", "--seed", "1", "--set", f"checkpoint={CHECKPOINT}",
                     "--set", "task.n_shot=32", "--set", "stage1.epochs=1",
                     "--set", "stage2.epochs=1", "--set", "stage1.lr_head=1e154",
                     "--out", "error-stage1-last-update"]),
             ("error-override-n-shot",
              cli + ["finetune", "--seed", "1", *OVERRIDE_N_SHOT, "--set",
                     f"checkpoint={CHECKPOINT}", "--out", "error-override-n-shot"])]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="directory for the set; must not exist")
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/pactune runs (default: this one)")
    args = parser.parse_args(argv)
    src = args.repo.resolve() / "src"
    if not (src / "pactune" / "__init__.py").is_file():
        parser.error(f"no pactune package under {src}")
    args.out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, cmd in commands():
        with open(args.out / f"{name}.stdout", "wb") as out, \
                open(args.out / f"{name}.stderr", "wb") as err:
            code = subprocess.run([sys.executable, *cmd], cwd=args.out, env=env,
                                  stdout=out, stderr=err).returncode
        (args.out / f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")
        print(f"{name}: exit {code}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
