#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark.

Usage:

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]
                                 [--json OUT]

PARENT and CHANGE are result sets: a directory of the records
perfbench/run.py stores under <build>/perfbench/results/, or a file of
such records, one JSON object per line.  Each record carries its
workload, seed, trace flag and metrics.

One row per (metric, workload), end-to-end metrics from untraced runs
and per-layer metrics from traced runs.  Runs are paired by seed where
both sides ran the same seeds, else in order.  Verdicts:

  gain         the change is better in at least 9 of 10 pairs (ties
               count for neither side) and the medians differ by more
               than the parent's interquartile range;
  regression   the change's median is worse than the parent's by more
               than the metric's bound;
  unresolved   either side's spread (IQR / median) exceeds the bound,
               unless every change run is better than every parent run;
  same         none of the above;
  changed      an exact count (unit "count" or "B") that differs.

Every ratio is printed with its base: change median / parent median,
and the parent median it divides by.  Per-layer metrics have no bound;
their rows use only the gain rule, and a count must repeat exactly.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "B")


def load(path):
    records = []
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            if name.endswith(".json"):
                with open(os.path.join(path, name)) as f:
                    records.append(json.load(f))
    else:
        with open(path) as f:
            records = [json.loads(line) for line in f if line.strip()]
    return records


def spread(values):
    """IQR as a share of the median (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def series(records, trace, workload, metric):
    """Values by seed, in record order."""
    out = []
    for r in records:
        if r.get("trace") == trace and r.get("workload") == workload:
            m = r["metrics"].get(metric)
            if m is not None:
                out.append((r.get("seed"), m["value"]))
    return out


def pairs(p, c):
    pseeds = [s for s, _ in p]
    cseeds = [s for s, _ in c]
    if sorted(pseeds) == sorted(cseeds) and len(set(pseeds)) == len(pseeds):
        cv = dict(c)
        return [(v, cv[s]) for s, v in p]
    return list(zip([v for _, v in p], [v for _, v in c]))


def verdict(meta, pv, cv, prs):
    better = (lambda a, b: a > b) if meta["better"] == "higher" \
        else (lambda a, b: a < b)
    pm, cm = statistics.median(pv), statistics.median(cv)
    if meta["unit"] in EXACT_UNITS and "bound" not in meta:
        return "same" if set(pv) == set(cv) and len(set(pv)) == 1 \
            else "changed"
    wins = sum(1 for a, b in prs if better(b, a))
    gain = (prs and wins >= 0.9 * len(prs) and better(cm, pm)
            and abs(cm - pm) > iqr(pv))
    bound = meta.get("bound")
    if bound is None:
        return "gain" if gain else "same"
    if spread(pv) > bound or spread(cv) > bound:
        if all(better(c, p) for c in cv for p in pv):
            return "gain"
        return "unresolved"
    if gain:
        return "gain"
    worse = (pm - cm) / pm if meta["better"] == "higher" else (cm - pm) / pm
    return "regression" if worse > bound else "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    ap.add_argument("--json", help="also write the rows here")
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)
    rows = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for meta in bench[key]:
            for w in bench["workloads"]:
                p = series(parent, trace, w["name"], meta["name"])
                c = series(change, trace, w["name"], meta["name"])
                if not p or not c:
                    continue
                pv = [v for _, v in p]
                cv = [v for _, v in c]
                prs = pairs(p, c)
                pm, cm = statistics.median(pv), statistics.median(cv)
                rows.append({
                    "metric": meta["name"], "workload": w["name"],
                    "unit": meta["unit"], "better": meta["better"],
                    "bound": meta.get("bound"),
                    "parent_median": pm, "change_median": cm,
                    "ratio": cm / pm if pm else None,
                    "parent_spread": spread(pv),
                    "change_spread": spread(cv),
                    "pairs": len(prs),
                    "change_wins": sum(
                        1 for a, b in prs
                        if (b > a if meta["better"] == "higher" else b < a)),
                    "runs": [len(pv), len(cv)],
                    "verdict": verdict(meta, pv, cv, prs),
                })
    if not rows:
        sys.exit("compare: no (metric, workload) present in both sets")

    print("%-36s %-12s %-11s %10s %s" % ("metric", "workload", "verdict",
                                         "ratio", "base / spreads / wins"))
    for r in rows:
        ratio = "%.4f" % r["ratio"] if r["ratio"] is not None else "-"
        print("%-36s %-12s %-11s %10s parent median %.6g %s; IQR/median "
              "%.3f -> %.3f; change wins %d/%d"
              % (r["metric"], r["workload"], r["verdict"], ratio,
                 r["parent_median"], r["unit"], r["parent_spread"],
                 r["change_spread"], r["change_wins"], r["pairs"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(rows, f, indent=1)
    bad = [r for r in rows if r["verdict"] in ("regression", "changed")]
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
