"""Summarise or compare benchmark result files.

Usage, from the root of a checkout:

  python3 perfbench/compare.py RESULTS.jsonl
      one row per (metric, workload): median, quartiles, and the spread
      (quartile distance over median) against the metric's bound.
  python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
      one row per (metric, workload) with each side's median and quartiles
      and a verdict against the bound: improved, no worse, worse, or
      unresolved (spread wider than the bound).

Result files are the JSON-lines files perfbench/run.py appends to.  Only
untraced runs (--trace 0) are read.  Metrics with a bound come from
BENCHMARK.json; op_p50_s, op_tail_s and trials_per_s (mc-* only) are judged
against the bound of op_p50_ref.  Exit code 1 when a row reads "worse".
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXTRA = {"op_p50_s": "lower", "op_tail_s": "lower", "trials_per_s": "higher"}


def load(path):
    """{workload: {metric: [(seed, value), ...]}} over untraced runs."""
    out = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace"):
                continue
            per = out.setdefault(rec["workload"], {})
            for metric, value in rec["end_to_end"].items():
                if value is not None:  # op_tail_s when a run has too few ops
                    per.setdefault(metric, []).append((rec["seed"], value))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def metric_specs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: (m["better"], m["bound"], "") for m in bench["end_to_end"]}
    bound = specs["op_p50_ref"][1]
    for name, better in EXTRA.items():
        specs[name] = (better, bound, " (bound of op_p50_ref)")
    return specs


def verdict(parent, change, better, bound):
    """parent, change: lists of (seed, value)."""
    pv = [v for _, v in parent]
    cv = [v for _, v in change]
    sign = 1 if better == "lower" else -1
    pm, cm = statistics.median(pv), statistics.median(cv)
    worse_by = sign * (cm - pm) / pm
    if max(sign * x for x in cv) < min(sign * x for x in pv):
        return "improved"  # every change run beats every parent run
    if max(spread(pv), spread(cv)) > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    # a gain needs nine tenths of the seed-paired runs and a median shift
    # larger than the parent's own quartile distance
    pd, cd = dict(parent), dict(change)
    seeds = sorted(set(pd) & set(cd))
    wins = sum(1 for s in seeds if sign * cd[s] < sign * pd[s])
    if seeds and wins >= 0.9 * len(seeds) and -worse_by > spread(pv):
        return "improved"
    return "no worse"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs()
    runs = [load(p) for p in argv]
    bad = False
    if len(runs) == 1:
        print(f"{'workload':<10} {'metric':<14} {'n':>3} {'median [q1, q3]':>32} "
              f"{'spread':>7} {'bound':>6}  steady")
    else:
        print(f"{'workload':<10} {'metric':<14} {'parent median [q1, q3]':>32} "
              f"{'change median [q1, q3]':>32}  verdict")
    for wl in sorted(runs[0]):
        for metric, (better, bound, note) in specs.items():
            if metric not in runs[0][wl]:
                continue
            if len(runs) == 1:
                vals = [v for _, v in runs[0][wl][metric]]
                sp = spread(vals)
                steady = "yes" if sp < bound / 3 else ("within bound" if sp <= bound else "NO")
                print(f"{wl:<10} {metric:<14} {len(vals):>3} {fmt(vals):>32} "
                      f"{sp:7.3f} {bound:6.2f}  {steady}{note}")
                continue
            change = runs[1].get(wl, {}).get(metric)
            if not change:
                print(f"{wl:<10} {metric:<14} missing in {argv[1]}")
                continue
            parent = runs[0][wl][metric]
            v = verdict(parent, change, better, bound)
            bad |= v == "worse"
            print(f"{wl:<10} {metric:<14} {fmt([x for _, x in parent]):>32} "
                  f"{fmt([x for _, x in change]):>32}  {v}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
