"""Write the byte-identity output set of one checkout into a directory.

    python tools/output_set.py OUT [--repo CHECKOUT]

Runs, inside OUT and with the package from CHECKOUT's ``src`` (by default
the checkout that holds this script):

- ``load_config(None)``, printed as sorted JSON;
- ``pactune pretrain`` on the default config;
- ``pactune finetune --seed 1`` from that checkpoint, once per method;
- ``pactune inspect-noise`` on the pac-tuning run's noise file;
- ``pactune gradcheck``;
- ``pactune benchmark`` with ``--workers 1`` and with ``--workers 2``;
- a CSV round trip: ``pactune generate-data``, then ``pactune pretrain`` and
  ``pactune finetune --seed 1`` on the two CSV files it wrote.

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
PRINT_CONFIG = ("import json; from pactune import cli; "
                "print(json.dumps(cli.load_config(None), sort_keys=True, indent=1))")


def commands() -> list[tuple[str, list[str]]]:
    """(name, python arguments) of every command, in the order they run."""
    cli = ["-m", "pactune.cli"]
    runs = [("config", ["-c", PRINT_CONFIG]),
            ("pretrain", cli + ["pretrain", "--out", "pretrain"])]
    runs += [(f"finetune-{m}", cli + ["finetune", "--seed", "1", "--set", f"method={m}",
                                      "--set", f"checkpoint={CHECKPOINT}",
                                      "--out", f"finetune-{m}"]) for m in METHODS]
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
