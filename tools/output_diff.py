"""Fail on a difference between two output sets that a change does not declare.

    git diff BASE -- CHANGES.md | python tools/output_diff.py SET_BASE SET_HEAD

A change declares the output paths it changes on purpose on ``OUTPUT-DIFF:``
lines that it adds to CHANGES.md, for example
``OUTPUT-DIFF: error-nonfinite-checkpoint.stderr``. A path is relative to a
set's root; one line may hold several, separated by spaces or commas, and
backticks are ignored. A declared directory covers every path below it. The
declarations are read from the added lines of the diff on stdin only, so an
older entry declares nothing. The two sets are compared as ``diff -rq``
compares them: a file whose bytes differ is a difference, and so is a file or
directory that only one set holds (a directory once, as diff's ``Only in``
line). Every difference is printed, an undeclared one marked ``UNDECLARED``,
and the exit code is 1 if there is one.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

MARK = "OUTPUT-DIFF:"


def declared(diff_text: str) -> set[str]:
    """The paths on the ``OUTPUT-DIFF:`` lines that a unified diff adds."""
    paths = set()
    for line in diff_text.splitlines():
        if line.startswith("+") and not line.startswith("+++") and MARK in line:
            rest = line.split(MARK, 1)[1].replace("`", "")
            paths.update(p.strip("/") for p in re.split(r"[\s,]+", rest) if p)
    return paths


def differences(base: Path, head: Path) -> list[str]:
    """Relative paths whose bytes differ, or that one set holds and the other not."""
    found = []

    def walk(rel: str) -> None:
        a, b = base / rel, head / rel
        for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
            pa, pb, path = a / name, b / name, rel + name
            if not (pa.exists() and pb.exists()) or pa.is_dir() != pb.is_dir():
                found.append(path)
            elif pa.is_dir():
                walk(path + "/")
            elif pa.read_bytes() != pb.read_bytes():
                found.append(path)

    walk("")
    return found


def covered(path: str, paths: set[str]) -> bool:
    return any(path == p or path.startswith(p + "/") for p in paths)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="the base commit's output set")
    parser.add_argument("head", type=Path, help="the change's output set")
    args = parser.parse_args(argv)
    paths = declared(sys.stdin.read())
    undeclared = 0
    for path in differences(args.base, args.head):
        ok = covered(path, paths)
        undeclared += not ok
        print(f"{'declared' if ok else 'UNDECLARED'}  {path}")
    print(f"{undeclared} undeclared difference(s); declared: {sorted(paths) or 'none'}")
    return 1 if undeclared else 0


if __name__ == "__main__":
    sys.exit(main())
