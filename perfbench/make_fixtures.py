#!/usr/bin/env python3
"""Regenerate the benchmark's fixed inputs and its default-seed references.

    python3 perfbench/make_fixtures.py

1. ``pactune pretrain`` on the default config writes the blobs-rotate
   checkpoint that the ``finetune`` workload starts from; it is kept in
   ``fixtures/`` with its SHA-256, which ``finetune`` set-up checks.
2. One pass of each workload on the default seed (0) records the accuracies
   the output checks compare against, and the digests of each model file,
   run JSONL and report.

Run it only when the program's outputs change on purpose, and say why in
CHANGES.md: a benchmark that moves its references hides regressions.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import (CHECKPOINT, DEFAULT_SEED, REFERENCES, WORKLOADS,  # noqa: E402
                       sha256_file)

OUT = Path(".perfbench")  # the same relative root as run.py, so report digests agree


def main() -> int:
    os.chdir(ROOT)
    pretrain_out = OUT / "fixtures"
    shutil.rmtree(pretrain_out, ignore_errors=True)
    command = [sys.executable, "-m", "pactune.cli", "pretrain", "--out", str(pretrain_out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(command, env=env, check=True)
    CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(pretrain_out / "pretrained.json", CHECKPOINT)
    references = {
        "checkpoint_command": "pactune pretrain  (default config)",
        "checkpoint_sha256": sha256_file(CHECKPOINT),
        "digests": {},
    }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, OUT)
        wl.setup()
        references[name] = {}
        for op in wl.run_pass():
            wl.check(op)
            if op.error or op.failures:
                raise SystemExit(f"{op.key}: {op.error or op.failures}")
            references[name].update(op.accuracies)
            references["digests"][op.key] = op.digest
        print(f"{name}: {len(references[name])} reference accuracies")
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
