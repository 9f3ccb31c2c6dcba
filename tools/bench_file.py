"""Condense perfbench records of a parent and a change into one BENCH file.

    python tools/bench_file.py --parent PARENT.jsonl --change CHANGE.jsonl \\
        --out BENCH_<n>.json [--traced]

Each input holds the records ``perfbench/run.py --results FILE`` appends,
one per run. Untraced runs are used, or only traced ones with ``--traced``.
The k-th run of a workload in the parent file pairs with the k-th run of that
workload in the change file, and both must have the same workload seed, so
runs made alternately (parent, change, parent, change, ...) pair up in time.

The file holds the machine block (identical on every run, else an error),
each side's commit and source digest, and per workload and end-to-end metric:
each side's median, quartiles, run count and untraced pass count, the
per-pair ratios ``change / parent``, their median (null when no pair has a
ratio) and how many pairs the change won (ties count for neither side).
Without ``--parent`` only the change's figures are written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

PER_RUN = ("git_commit", "source_sha256", "workload_seed")


def load(path, traced: bool) -> list[dict]:
    records = [json.loads(line) for line in
               Path(path).read_text(encoding="utf-8").splitlines() if line.strip()]
    return [r for r in records if bool(r["trace"]) == traced]


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


def summary(runs: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in runs]
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": len(runs),
            "passes": sum(len(r["pass_seconds"]) for r in runs)}


def won(better: str, parent: float, change: float) -> bool:
    return change < parent if better == "lower" else change > parent


def ratio(parent: float, change: float) -> float | None:
    return change / parent if parent else None


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
        for name, meta in runs[0]["metrics"].items():
            metric = {"unit": meta["unit"], "better": meta["better"],
                      "bound": meta["bound"], "change": summary(runs, name)}
            if base is not None:
                pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in zip(base, runs)]
                metric["parent"] = summary(base, name)
                metric["ratios"] = [ratio(p, c) for p, c in pairs]
                ratios = [r for r in metric["ratios"] if r is not None]
                metric["median_ratio"] = statistics.median(ratios) if ratios else None
                metric["change_won"] = sum(won(meta["better"], p, c) for p, c in pairs)
                metric["parent_won"] = sum(won(meta["better"], c, p) for p, c in pairs)
            entry["metrics"][name] = metric
        out["workloads"][workload] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--change", required=True, type=Path,
                        help="records of the change (perfbench/run.py --results)")
    parser.add_argument("--parent", type=Path, help="records of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    parser.add_argument("--traced", action="store_true",
                        help="use the traced runs instead of the untraced ones")
    args = parser.parse_args(argv)
    change = load(args.change, args.traced)
    parent = load(args.parent, args.traced) if args.parent else None
    if not change or parent == []:
        parser.error("no records of the requested kind in an input file")
    try:
        bench = condense(change, parent)
    except ValueError as e:
        print(f"bench_file: {e}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    for workload, entry in bench["workloads"].items():
        for name, m in entry["metrics"].items():
            line = f"{workload:<9} {name:<22} change {m['change']['median']:.6g}"
            if "parent" in m:
                mid = m["median_ratio"]
                line += (f"  parent {m['parent']['median']:.6g}  median ratio "
                         f"{float('nan') if mid is None else mid:.4g}"
                         f"  change won {m['change_won']} of {len(m['ratios'])}")
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
