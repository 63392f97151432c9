#!/usr/bin/env python3
"""Compares two sets of benchmark runs (standard library only).

    python3 perfbench/compare.py PARENT.jsonl [CHANGE.jsonl]

Each file holds one JSON result per line, as `run.py --record FILE` writes
them (the result plus "workload", "seed" and "trace"). With one file, prints
each workload's metrics: median, quartiles and spread (IQR / median). With
two, prints one row per workload and metric: both medians and quartiles, the
change in the median, the wins of the change out of the pairs (i-th parent
run against i-th change run, in file order, so alternate the two sides when
you record them), and a verdict:

  unresolved  the parent's own spread is wider than the metric's bound
  worse       the change's median is worse than the parent's by more than
              the bound
  better      the change wins at least 9 of 10 pairs and its median moved by
              more than the parent's spread
  same        anything else

Bounds and better directions come from BENCHMARK.json at the repository
root; per-layer metrics have no bound and are only ever "better"/"same"/
"worse" by the same pair rule.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            result = json.loads(line)
            key = (result["workload"], int(result.get("trace", 0)))
            runs.setdefault(key, []).append(result)
    return runs


def load_specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = (m["better"], m["bound"])
    for m in bench["per_layer"]:
        specs[m["name"]] = (m["better"], None)
    return specs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def metric_values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def fmt(x):
    return "%.6g" % x


def summarize(runs, specs):
    print("%-12s %-32s %12s %12s %12s %8s %6s %s" %
          ("workload", "metric", "q1", "median", "q3", "spread", "bound",
           "failed/attempted"))
    for (workload, trace), results in sorted(runs.items()):
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        for name in results[0]["metrics"]:
            values = metric_values(results, name)
            q1, med, q3 = quartiles(values)
            bound = specs.get(name, (None, None))[1]
            flag = ""
            if bound is not None and spread(values) > bound / 3:
                flag = "  > bound/3"
            print("%-12s %-32s %12s %12s %12s %7.1f%% %6s %d/%d%s" %
                  (workload + ("*" if trace else ""), name, fmt(q1), fmt(med),
                   fmt(q3), 100 * spread(values),
                   "-" if bound is None else bound, failed, attempted, flag))


def compare(parent, change, specs):
    print("%-12s %-32s %24s %24s %8s %7s %s" %
          ("workload", "metric", "parent median [q1,q3]",
           "change median [q1,q3]", "delta", "wins", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_runs, c_runs = parent[key], change[key]
        for name in p_runs[0]["metrics"]:
            better, bound = specs.get(name, ("lower", None))
            p = metric_values(p_runs, name)
            c = metric_values(c_runs, name)
            if not p or not c:
                continue
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            sign = 1 if better == "higher" else -1
            pairs = list(zip(p, c))
            wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
            delta = (cmed - pmed) / pmed if pmed else 0.0
            p_spread = spread(p)
            if bound is not None and p_spread > bound:
                verdict = "unresolved"
            elif bound is not None and sign * delta < -bound:
                verdict = "worse"
            elif (wins >= 0.9 * len(pairs) and
                  abs(cmed - pmed) > (pq3 - pq1)):
                verdict = "better"
            elif (bound is None and len(pairs) - wins >= 0.9 * len(pairs)
                  and abs(cmed - pmed) > (pq3 - pq1) and cmed != pmed):
                verdict = "worse"
            else:
                verdict = "same"
            print("%-12s %-32s %24s %24s %+7.1f%% %3d/%-3d %s" %
                  (workload + ("*" if trace else ""), name,
                   "%s [%s,%s]" % (fmt(pmed), fmt(pq1), fmt(pq3)),
                   "%s [%s,%s]" % (fmt(cmed), fmt(cq1), fmt(cq3)),
                   100 * delta, wins, len(pairs), verdict))


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    specs = load_specs()
    parent = load_runs(argv[1])
    if len(argv) == 2:
        summarize(parent, specs)
    else:
        compare(parent, load_runs(argv[2]), specs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
