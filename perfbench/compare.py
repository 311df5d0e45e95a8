#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds the records `perfbench/run.py --out FILE` appends, one
per run. For every workload and every end-to-end metric of
BENCHMARK.json it prints both sides' median, quartiles and run count,
the gain (the median gap as a share of the parent's median, positive
when the change is better), the paired wins, and a verdict:

- better: the change wins at least 9 in 10 of the paired runs (pairs
  match by seed, else by order; ties count for neither side; at least
  10 pairs), and the medians differ, in the metric's good direction, by
  more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than
  the metric's bound, and either the parent's own spread is within the
  bound or every change run is worse than every parent run;
- unresolved: anything else.

`within_bound` says whether the change's median is no worse than the
parent's by more than the bound, the test every other workload and
metric of a change must pass. Quartiles follow Python's
`statistics.quantiles(n=4)`. Traced records (per-layer metrics, no
bounds) are listed as medians for locating a change. Exits 1 if any
verdict is worse.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def series(records, workload, metric, trace):
    """(seed, value) of each correct run of `workload` that has `metric`."""
    out = []
    for r in records:
        m = r["result"]["metrics"]
        if r["workload"] == workload and r["trace"] == trace and metric in m:
            if r["result"]["correct"]:
                out.append((r["seed"], m[metric]["value"]))
    return out


def pairs(a, b):
    """Pairs runs by seed when the two sides share seeds, else by order."""
    bs = dict(b)
    common = [(v, bs[s]) for s, v in a if s in bs]
    if common:
        return common
    return list(zip([v for _, v in a], [v for _, v in b]))


def classify(a_runs, b_runs, better, bound):
    """Verdict of the change runs `b_runs` against the parent runs `a_runs`."""
    a = [v for _, v in a_runs]
    b = [v for _, v in b_runs]
    q1a, meda, q3a = quartiles(a)
    sign = -1.0 if better == "lower" else 1.0
    gain = sign * (statistics.median(b) - meda)  # > 0: the change is better
    worse_share = -gain / abs(meda) if meda else 0.0
    within = worse_share <= bound
    ps = pairs(a_runs, b_runs)
    wins = sum(1 for x, y in ps if sign * (y - x) > 0)
    spread_a = (q3a - q1a) / abs(meda) if meda else 0.0
    if len(ps) >= 10 and wins >= 0.9 * len(ps) and gain > (q3a - q1a):
        v = "better"
    elif not within and (spread_a <= bound or all(sign * (y - x) < 0 for x in a for y in b)):
        v = "worse"
    else:
        v = "unresolved"
    return v, wins, len(ps), worse_share, within


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    parent, change = load(args.parent), load(args.change)

    # Gated workloads first, then any other workload the records hold.
    names = [w["name"] for w in bench["workloads"]]
    names += sorted({r["workload"] for r in parent + change} - set(names))
    any_worse = False
    print(f"{'workload':14} {'metric':20} {'parent median [q1, q3]':44} "
          f"{'change median [q1, q3]':44} {'gain':>8} {'wins':>7}  verdict     within_bound")
    for w in names:
        for m in bench["end_to_end"]:
            a = series(parent, w, m["name"], 0)
            b = series(change, w, m["name"], 0)
            if not a and not b:
                continue
            if not a or not b:
                print(f"{w:14} {m['name']:20} missing runs (parent {len(a)}, change {len(b)})")
                continue
            v, wins, npairs, worse_share, within = classify(a, b, m["better"], m["bound"])
            any_worse |= v == "worse"
            print(f"{w:14} {m['name']:20} "
                  f"{fmt([x for _, x in a]):44} {fmt([x for _, x in b]):44} "
                  f"{-100 * worse_share:+7.2f}% {wins:>3}/{npairs:<3}  {v:11} "
                  f"{'yes' if within else 'no'} (bound {100 * m['bound']:.0f}%)")

    layer = [m["name"] for m in bench.get("per_layer", [])]
    traced = [(w, n) for w in names for n in layer]
    rows = [(w, n, series(parent, w, n, 1), series(change, w, n, 1)) for w, n in traced]
    rows = [r for r in rows if r[2] and r[3]]
    if rows:
        print("\nper-layer medians (traced runs; no bounds)")
        for w, n, a, b in rows:
            ma = statistics.median([x for _, x in a])
            mb = statistics.median([x for _, x in b])
            ratio = f"{mb / ma:8.3f}x" if ma else "        -"
            print(f"{w:14} {n:28} {ma:14.6g} {mb:14.6g} {ratio}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
