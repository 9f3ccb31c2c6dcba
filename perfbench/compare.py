#!/usr/bin/env python3
"""Diff two sets of benchmark results, one row per workload x end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records ``run.py`` appends (``--results``); untraced runs
are grouped by workload. For every metric a row gives each side's median and
quartiles, the bound, and a verdict:

- ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, unless every change run reads better than every base
  run;
- ``better``: at least ten runs pair up by seed, the change wins at least nine
  tenths of the pairs (ties count for neither), and the medians differ by more
  than the base's quartile distance;
- ``worse``: the change's median is worse than the base's by more than the
  bound, as a share of the base median; for a metric with bound 0 (the
  failure share), any run worse than every base run;
- ``unchanged``: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path) -> dict:
    """workload -> metric -> {"values": {seed: [value...]}, "unit", "better", "bound"}."""
    out: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec["trace"]:
            continue
        for name, m in rec["metrics"].items():
            entry = out.setdefault(rec["workload"], {}).setdefault(
                name, {"values": {}, "unit": m["unit"], "better": m["better"],
                       "bound": m["bound"]})
            entry["values"].setdefault(rec["seed"], []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q: tuple[float, float, float]) -> float:
    width = q[2] - q[0]
    if q[1] == 0:
        return 0.0 if width == 0 else float("inf")
    return width / abs(q[1])


def verdict(base: dict, change: dict) -> tuple[str, float]:
    """(verdict, relative change of the median, positive when worse)."""
    sign = 1.0 if base["better"] == "lower" else -1.0
    bound = base["bound"]
    a = [v for vs in base["values"].values() for v in vs]
    b = [v for vs in change["values"].values() for v in vs]
    qa, qb = quartiles(a), quartiles(b)
    diff = sign * (qb[1] - qa[1])  # > 0: the change is worse
    if qa[1] != 0:
        worse_by = diff / abs(qa[1])
    else:
        worse_by = 0.0 if diff == 0 else (float("inf") if diff > 0 else float("-inf"))
    if bound == 0:  # an exact metric, such as the failure share: any rise is worse
        worst_a, worst_b = (max(a), max(b)) if sign > 0 else (min(a), min(b))
        return ("worse" if sign * (worst_b - worst_a) > 0 else "unchanged"), worse_by
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if max(spread(qa), spread(qb)) > bound and not all_better:
        return "unresolved", worse_by
    pairs = [(x, y) for seed in sorted(set(base["values"]) & set(change["values"]))
             for x, y in zip(base["values"][seed], change["values"][seed])]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) \
            and -diff > qa[2] - qa[0]:
        return "better", worse_by
    if worse_by > bound:
        return "worse", worse_by
    return "unchanged", worse_by


def fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<10} {'metric':<22} {'unit':<9} {'base median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'bound':>6} {'worse by':>9}  verdict")
    worse = 0
    for workload in sorted(set(base) & set(change)):
        for name, b in base[workload].items():
            c = change[workload].get(name)
            if c is None:
                continue
            v, worse_by = verdict(b, c)
            worse += v == "worse"
            qa = quartiles([x for xs in b["values"].values() for x in xs])
            qb = quartiles([x for xs in c["values"].values() for x in xs])
            print(f"{workload:<10} {name:<22} {b['unit']:<9} {fmt(qa):<30} {fmt(qb):<30} "
                  f"{b['bound']:>6.2f} {100 * worse_by + 0.0:>8.1f}%  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
