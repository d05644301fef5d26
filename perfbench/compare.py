#!/usr/bin/env python3
"""Compare two perfbench result sets, workload by workload, metric by metric.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the result files perfbench/run.py writes (one per
run). Runs are paired by (workload, seed, trace); unpaired runs still count
toward medians and quartiles. For every workload x metric it prints each
side's median and quartiles, the change's win share over the pairs, and a
verdict:

  worse          (checked first, per workload) a change's run answered
                 wrongly (correct = false), or the change failed a larger
                 share of its attempted requests than the parent did; an
                 "improved" metric on that workload then reads "void";
  improved       the change wins at least 9/10 of the pairs (ties count
                 for neither) AND the medians differ, in the better
                 direction, by more than the parent's own spread (the
                 distance between its quartiles);
  worse          the change's median is worse than the parent's by more
                 than the metric's bound in BENCHMARK.json (per-layer
                 metrics have no bound: the improved rule, mirrored);
  unresolved     the parent's spread is wider than the bound and neither
                 side reads better in every run, so "no worse" cannot be
                 shown;
  no-regression  none of the above: worse by no more than the bound.

Exit code 1 when any workload's answers, or any end-to-end metric on any
workload, are "worse".
"""

import argparse
import glob
import json
import os
import statistics
import sys


def load_set(path):
    runs = {}
    for f in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(f) as fh:
            doc = json.load(fh)
        if "meta" not in doc or "result" not in doc:
            continue
        m = doc["meta"]
        runs[(m["workload"], m["seed"], m["trace"])] = doc["result"]
    return runs


def answers(runs, wl):
    """(runs with correct = false, failed, attempted) over a workload."""
    rs = [r for k, r in runs.items() if k[0] == wl]
    return (sum(1 for r in rs if not r["correct"]),
            sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))


def answers_verdict(a_runs, b_runs, wl):
    """"worse" when the change answered wrongly or failed a larger share."""
    _, a_failed, a_tried = answers(a_runs, wl)
    b_wrong, b_failed, b_tried = answers(b_runs, wl)
    a_rate = a_failed / a_tried if a_tried else 0.0
    b_rate = b_failed / b_tried if b_tried else 0.0
    worse = b_wrong > 0 or b_rate > a_rate
    line = (f"wrong runs {b_wrong}, failed {a_failed}/{a_tried} -> "
            f"{b_failed}/{b_tried}")
    return ("worse" if worse else "ok"), line


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def verdict(a, b, pairs, better, bound):
    """a, b: value lists; pairs: [(a, b)]; better: "lower"|"higher"."""
    sign = 1.0 if better == "higher" else -1.0
    qa1, ma, qa3 = quartiles(a)
    _, mb, _ = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) < 0)
    share = wins / len(pairs) if pairs else float("nan")
    spread = qa3 - qa1
    gain = sign * (mb - ma)
    if pairs and wins >= 0.9 * len(pairs) and gain > spread:
        return "improved", share
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > spread:
            return "worse", share
        return "unresolved", share
    worse_by = -gain / abs(ma) if ma else 0.0
    if worse_by > bound:
        return "worse", share
    if ma and spread / abs(ma) > bound:
        if min(sign * y for y in b) > max(sign * x for x in a):
            return "improved", share
        return "unresolved", share
    return "no-regression", share


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(
                        os.path.dirname(os.path.abspath(__file__))),
                        "BENCHMARK.json"))
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound"), True)
            for m in bench["end_to_end"]}
    spec.update({m["name"]: (m["better"], None, False)
                 for m in bench["per_layer"]})

    a_runs, b_runs = load_set(args.parent), load_set(args.change)
    if not a_runs or not b_runs:
        sys.exit("compare: a result set is empty")
    regressions = 0
    print(f"{'workload':12} {'metric':32} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'win':>5}  verdict")
    for wl in sorted({k[0] for k in a_runs} | {k[0] for k in b_runs}):
        answered, line = answers_verdict(a_runs, b_runs, wl)
        if answered == "worse":
            regressions += 1
        print(f"{wl:12} {'answers':32} {line:>61} {'':>5}  {answered}")
        for name, (better, bound, e2e) in spec.items():
            trace = 0 if e2e else 1
            a = {k[1]: r["metrics"][name]["value"] for k, r in a_runs.items()
                 if k[0] == wl and k[2] == trace and name in r["metrics"]}
            b = {k[1]: r["metrics"][name]["value"] for k, r in b_runs.items()
                 if k[0] == wl and k[2] == trace and name in r["metrics"]}
            if not a or not b:
                continue
            pairs = [(a[s], b[s]) for s in sorted(set(a) & set(b))]
            v, share = verdict(list(a.values()), list(b.values()), pairs,
                               better, bound)
            if e2e and v == "worse":
                regressions += 1
            if answered == "worse" and v == "improved":
                v = "void (answers worse)"
            fa = "/".join(f"{x:.4g}" for x in quartiles(list(a.values())))
            fb = "/".join(f"{x:.4g}" for x in quartiles(list(b.values())))
            print(f"{wl:12} {name:32} {fa:>30} {fb:>30} {share:5.2f}  {v}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
