"""Condense perfbench records of a parent and a change into one BENCH file.

    python tools/bench_file.py --parent PARENT.jsonl [P1.xml ...] \\
        --change CHANGE.jsonl [C1.xml ...] --out BENCH_<n>.json [--traced]

Each ``.jsonl`` input holds the records ``perfbench/run.py --results FILE``
appends, one per run; a side's files are read in order. Untraced runs are
used, or only traced ones with ``--traced``. The k-th run of a workload in the
parent's records pairs with the k-th run of that workload in the change's,
and both must have the same workload seed, so runs made alternately (parent,
change, parent, change, ...) pair up in time.

Each ``.xml`` input is a pytest junit file, one Tier-1 pass, and the k-th of
the parent pairs with the k-th of the change. They fill the ``tier1`` block:
a row per ``tests.test_acceptance`` testcase, its time, and ``total``, the
sum of every testcase's time in the file. A side with another number of XML
files, or a testcase that one file lacks, is an error (exit 2).

The file holds the machine block (identical on every run, else an error),
each side's commit and source digest, and per workload and end-to-end metric:
each side's median, quartiles, run count and untraced pass count, the
per-pair ratios ``change / parent``, their median (null when no pair has a
ratio), ``ratio_ci``, a bootstrap 95% interval of that median (null below two
ratios), and how many pairs the change won (ties count for neither side).
A ``tier1`` row has the same fields, in seconds, without the bound and the
pass count. Without ``--parent`` only the change's figures are written.

With a parent, each row also holds ``sign_p``, the exact two-sided sign-test
p-value of its wins and losses with ties dropped (1 when every pair ties), and
``holm``: true where Holm's step-down at a family-wise 0.05 over every row of
the file, workloads and ``tier1`` alike, still tells the two sides apart. A
row's interval alone does not: an A/A run of 27 rows can exclude 1.0 on some.
With 10 pairs the smallest ``sign_p`` is 2/1024, above 0.05/27, so a 27-row
file needs 11 pairs before any row can be ``holm``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

PER_RUN = ("git_commit", "source_sha256", "workload_seed")
ACCEPTANCE = ["tests", "test_acceptance"]
ALPHA = 0.05  # the family-wise level of ``holm``


def load(paths: list[Path], traced: bool) -> list[dict]:
    records = [json.loads(line) for path in paths
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [r for r in records if bool(r["trace"]) == traced]


def junit_times(path: Path) -> dict[str, float]:
    """The time of each ``tests.test_acceptance`` testcase of a junit file, by
    name (a test class's name first, if any), and ``total``, the sum of every
    testcase's time."""
    try:
        root = ET.parse(path)
    except ET.ParseError as e:
        raise ValueError(f"tier1: {path} is not a junit file: {e}") from None
    times, every = {}, []
    for case in root.iter("testcase"):
        every.append(float(case.get("time", 0.0)))
        module = case.get("classname", "").split(".")
        if module[:2] == ACCEPTANCE:
            times["::".join(module[2:] + [case.get("name")])] = every[-1]
    return {**times, "total": math.fsum(every)}


def machine(records: list[dict]) -> dict:
    blocks = [{k: v for k, v in r["machine"].items() if k not in PER_RUN}
              for r in records]
    for block in blocks[1:]:
        if block != blocks[0]:
            raise ValueError(f"records come from different machines: {blocks[0]} "
                             f"and {block}")
    return blocks[0]


def source(records: list[dict]) -> dict:
    """The commit and source digest of one side's runs; they must agree."""
    ids = {tuple(r["machine"][k] for k in PER_RUN[:2]) for r in records}
    if len(ids) != 1:
        raise ValueError(f"one side's records come from {len(ids)} sources: {sorted(ids)}")
    return dict(zip(PER_RUN[:2], ids.pop()))


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(values)}


def won(better: str, parent: float, change: float) -> bool:
    return change < parent if better == "lower" else change > parent


def ratio(parent: float, change: float) -> float | None:
    return change / parent if parent else None


def ratio_ci(ratios: list[float]) -> list[float] | None:
    """The 2.5th and 97.5th percentiles of the medians of 10,000 resamples of
    ``ratios``, with replacement, drawn from a generator seeded with 0."""
    if len(ratios) < 2:
        return None
    resamples = np.random.default_rng(0).choice(ratios, size=(10_000, len(ratios)))
    return [float(q) for q in np.percentile(np.median(resamples, axis=1), [2.5, 97.5])]


def sign_p(wins: int, losses: int) -> float:
    """The exact two-sided sign-test p-value of ``wins`` against ``losses``,
    ties dropped: twice the chance of a split at least as uneven, at most 1."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def holm(rows: list[dict]) -> None:
    """Set each row's ``holm``: taken in ascending ``sign_p``, the i-th of m
    rows (from 0) passes while its p is at most ALPHA / (m - i); the first that
    fails, and every row after it, do not."""
    passing = True
    for i, row in enumerate(sorted(rows, key=lambda r: r["sign_p"])):
        passing = passing and row["sign_p"] <= ALPHA / (len(rows) - i)
        row["holm"] = passing


def compare(metric: dict, change: list[float], parent: list[float] | None = None) -> dict:
    """``metric`` with each side's summary of its values and, with a parent,
    the figures of the pairs: the k-th value of each side make the k-th."""
    metric["change"] = summary(change)
    if parent is not None:
        pairs = list(zip(parent, change))
        metric["parent"] = summary(parent)
        metric["ratios"] = [ratio(p, c) for p, c in pairs]
        ratios = [r for r in metric["ratios"] if r is not None]
        metric["median_ratio"] = statistics.median(ratios) if ratios else None
        metric["ratio_ci"] = ratio_ci(ratios)
        metric["change_won"] = sum(won(metric["better"], p, c) for p, c in pairs)
        metric["parent_won"] = sum(won(metric["better"], c, p) for p, c in pairs)
        metric["sign_p"] = sign_p(metric["change_won"], metric["parent_won"])
    return metric


def condense(change: list[dict], parent: list[dict] | None) -> dict:
    workloads = sorted({r["workload"] for r in change})
    out = {"machine": machine(change + (parent or [])), "change": source(change),
           "workloads": {}}
    if parent is not None:
        out["parent"] = source(parent)
    for workload in workloads:
        runs = [r for r in change if r["workload"] == workload]
        entry = {"seeds": [r["seed"] for r in runs], "metrics": {}}
        base = None
        if parent is not None:
            base = [r for r in parent if r["workload"] == workload]
            if [r["seed"] for r in base] != entry["seeds"]:
                raise ValueError(f"{workload}: parent seeds {[r['seed'] for r in base]} "
                                 f"do not pair with change seeds {entry['seeds']}")
        sides = {"change": runs} if base is None else {"change": runs, "parent": base}
        for name, meta in runs[0]["metrics"].items():
            metric = compare({"unit": meta["unit"], "better": meta["better"],
                              "bound": meta["bound"]},
                             *([r["metrics"][name]["value"] for r in side]
                               for side in sides.values()))
            for side, side_runs in sides.items():
                metric[side]["passes"] = sum(len(r["pass_seconds"]) for r in side_runs)
            entry["metrics"][name] = metric
        out["workloads"][workload] = entry
    return out


def tier1(change: list[Path], parent: list[Path] | None) -> dict:
    """The ``tier1`` block: a row per testcase of ``junit_times``, the k-th
    junit file of the parent paired with the k-th of the change."""
    if parent is not None and len(parent) != len(change):
        raise ValueError(f"tier1: {len(change)} junit files of the change do not pair "
                         f"with {len(parent)} of the parent")
    files = change + (parent or [])
    times = [junit_times(path) for path in files]
    names = sorted(set().union(*times))
    for path, cases in zip(files, times):
        missing = [name for name in names if name not in cases]
        if missing:
            raise ValueError(f"tier1: {path} has no testcase {missing[0]}")
    k = len(change)
    return {name: compare({"unit": "s", "better": "lower"}, [t[name] for t in times[:k]],
                          None if parent is None else [t[name] for t in times[k:]])
            for name in names}


def describe(group: str, name: str, m: dict) -> str:
    """One printed line of a metric or a ``tier1`` row."""
    line = f"{group:<9} {name:<22} change {m['change']['median']:.6g}"
    if "parent" in m:
        mid, lo, hi = (float("nan") if x is None else x for x in
                       [m["median_ratio"], *(m["ratio_ci"] or [None] * 2)])
        line += (f"  parent {m['parent']['median']:.6g}  median ratio "
                 f"{mid:.4g} [{lo:.4g}, {hi:.4g}]"
                 f"  change won {m['change_won']} of {len(m['ratios'])}"
                 f"  sign p {m['sign_p']:.3g}  holm {'yes' if m['holm'] else 'no'}")
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", required=True, type=Path, nargs="+",
                        help="records of the change (perfbench/run.py --results) "
                             "and its pytest junit files (.xml)")
    parser.add_argument("--parent", type=Path, nargs="+",
                        help="records and junit files of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--traced", action="store_true",
                        help="use the traced runs instead of the untraced ones")
    args = parser.parse_args(argv)

    def split(paths):  # a side's record files, then its junit XML files
        return ([p for p in paths if p.suffix != ".xml"],
                [p for p in paths if p.suffix == ".xml"])

    change_files, change_xml = split(args.change)
    parent_files, parent_xml = split(args.parent) if args.parent else (None, None)
    change = load(change_files, args.traced)
    parent = None if parent_files is None else load(parent_files, args.traced)
    if not change or parent == []:
        parser.error("no records of the requested kind in an input file")
    try:
        bench = condense(change, parent)
        if change_xml or parent_xml:
            bench["tier1"] = tier1(change_xml, parent_xml)
    except ValueError as e:
        print(f"bench_file: {e}", file=sys.stderr)
        return 2
    rows = [*(m for entry in bench["workloads"].values() for m in entry["metrics"].values()),
            *bench.get("tier1", {}).values()]
    holm([m for m in rows if "sign_p" in m])
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    for workload, entry in bench["workloads"].items():
        for name, m in entry["metrics"].items():
            print(describe(workload, name, m))
    for name, m in bench.get("tier1", {}).items():
        print(describe("tier1", name, m))
    return 0


if __name__ == "__main__":
    sys.exit(main())
