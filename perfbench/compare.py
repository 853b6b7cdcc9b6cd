#!/usr/bin/env python3
"""Summarise or compare result sets written by ``run.py --record``.

    python3 perfbench/compare.py RUNS.jsonl
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With one file: per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over the median) against
the metric's bound.  With two: one row per workload and a verdict per
end-to-end metric, by the rules below.  Runs pair up in file order within a workload, so record them
alternating which side runs first.

- improved: at least 10 pairs, the change wins at least 9/10 of them
  (ties count for neither side), and the medians differ, in the
  change's favour, by more than the parent's quartile distance.
- unresolved: the parent's spread is wider than the bound and not every
  change run beats every parent run.
- worse: the change's median is worse than the parent's by more than
  the bound.
- no worse: otherwise.

A change with more failed commands than the parent gets no "improved".
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["trace"] == 0:
                runs[rec["workload"]].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def series(runs, name):
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def verdict(parent, change, better, bound, no_more_failures=True):
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    gain = sign * (mc - mp)
    if (no_more_failures and len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > q3 - q1):
        return "improved"
    if sign > 0:
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if q3 - q1 > bound * abs(mp) and not every_run_better:
        return "unresolved"
    if gain < -bound * abs(mp):
        return "worse"
    return "no worse"


def metric_specs(runs):
    specs = {}
    for rec in runs:
        for name, m in rec["metrics"].items():
            specs.setdefault(name, m)
    return specs


def summarise(path):
    for workload, runs in load(path).items():
        print(f"{workload}  ({len(runs)} runs, failed commands "
              f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)})")
        for name, m in metric_specs(runs).items():
            values = series(runs, name)
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else 0.0
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"  {name:<20} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:6.3f}  bound {m['bound']}{flag}")


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: missing on one side, unresolved")
            continue
        failed_p = sum(r["failed"] for r in p_runs)
        failed_c = sum(r["failed"] for r in c_runs)
        cells = []
        for name, m in metric_specs(p_runs).items():
            p, c = series(p_runs, name), series(c_runs, name)
            if not c:
                cells.append(f"{name}: unresolved (absent)")
                continue
            v = verdict(p, c, m["better"], m["bound"], failed_c <= failed_p)
            cells.append(f"{name}: {v} ({statistics.median(p):.4g} -> "
                         f"{statistics.median(c):.4g} {m['unit']})")
        print(f"{workload}  pairs {min(len(p_runs), len(c_runs))}  "
              f"failed {failed_p} -> {failed_c}  |  " + "  |  ".join(cells))


def main(argv):
    if len(argv) == 1:
        summarise(argv[0])
    elif len(argv) == 2:
        compare(*argv)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
