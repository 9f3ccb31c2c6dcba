"""Paired benchmark passes of a parent commit and of this checkout, in one BENCH file.

    python tools/paired.py PARENT_REV --out BENCH.json [--pairs N] [--seconds S]

The change side is the checkout that holds this tool. The parent side is a
``git worktree add --detach`` of ``PARENT_REV`` in a temporary directory,
removed on every exit. Pair k, for k = 1 .. N, uses workload seed k on both
sides; the parent runs first in odd pairs and the change in even ones, so a
drift in the machine's speed falls on both sides alike.

A side's pass runs, from that side's root, ``perfbench/run.py --workload W
--seed k --seconds S --results <side>.jsonl`` for each workload, then ``pytest
tests/test_acceptance.py`` with a junit file of its own and that side's ``src``
on ``PYTHONPATH``. A non-zero exit, or a record whose ``correct`` is false,
stops the run with exit 1 and names the side, the pair and the step. At the
end the change's ``tools/bench_file.py`` condenses every record and junit file
into the BENCH file. One pass takes about 3 S + 60 s on 2 vCPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
WORKLOADS = ("pretrain", "finetune", "sweep")


class PassFailed(Exception):
    """A step of one side's pass exited non-zero or wrote an incorrect record."""


def run(argv: list[str], cwd: Path, what: str, env: dict | None = None) -> str:
    """Run a step, named on stderr first; returns its stdout."""
    print(f"paired: {what}", file=sys.stderr, flush=True)
    done = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        tail = (done.stdout + done.stderr).strip().splitlines()[-5:]
        raise PassFailed(f"{what} exited {done.returncode}" +
                         "".join(f"\n  {line}" for line in tail))
    return done.stdout


def side_pass(side: str, root: Path, k: int, seconds: float, work: Path) -> None:
    """One pass of ``side``, whose checkout is ``root``, at workload seed ``k``."""
    where = f"{side} side, pair {k}"
    results = work / f"{side}.jsonl"
    for workload in WORKLOADS:
        what = f"{where}, perfbench/run.py --workload {workload}"
        run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(k),
             "--seconds", str(seconds), "--results", str(results)], root, what)
        record = json.loads(results.read_text(encoding="utf-8").splitlines()[-1])
        if record["workload"] != workload or not record["correct"]:
            raise PassFailed(f"{what}: its record is not correct: {record['failures'][:3]}")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run([sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-q", "-p",
         "no:cacheprovider", "--junitxml", str(work / f"{side}-{k}.xml")], root,
        f"{where}, pytest tests/test_acceptance.py", env)


def paired(parent_rev: str, out: Path, pairs: int, seconds: float, work: Path) -> str:
    """Every pair's passes, then the BENCH file; returns bench_file's summary.
    The parent's checkout lives in ``work`` and is removed, whatever happens."""
    parent = work / "parent"
    try:
        run(["git", "worktree", "add", "--detach", str(parent), parent_rev], CHANGE,
            f"git worktree add {parent_rev}")
        roots = {"parent": parent, "change": CHANGE}
        for k in range(1, pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                side_pass(side, roots[side], k, seconds, work)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent)], cwd=CHANGE,
                       capture_output=True)
    files = {side: [str(work / f"{side}.jsonl"),
                    *(str(work / f"{side}-{k}.xml") for k in range(1, pairs + 1))]
             for side in ("parent", "change")}
    return run([sys.executable, "tools/bench_file.py", "--parent", *files["parent"],
                "--change", *files["change"], "--out", str(out)], CHANGE,
               "tools/bench_file.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_rev", help="the parent commit, as git names it")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of passes (10)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="perfbench --seconds of each workload run (20)")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds above 0")
    with tempfile.TemporaryDirectory(prefix="paired-") as work:
        try:
            print(paired(args.parent_rev, args.out.resolve(), args.pairs, args.seconds,
                         Path(work)), end="")
        except PassFailed as e:
            print(f"paired: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
