#!/usr/bin/env python3
"""Compare two sets of perfbench results, like for like.

    python3 perfbench/compare.py BASE CAND [--bounds BENCHMARK.json]

BASE and CAND are results directories (such as .perfbench/results) or
single result files. Untraced results are grouped by workload; within a
workload, the two sides are compared only when every result on both sides
has the same machine block apart from seed and commit. Otherwise the
workload is printed as "not comparable". For each end-to-end metric the
script prints both medians with their quartiles, the change, and whether
the change stays within the metric's bound (read from BENCHMARK.json,
looked up beside perfbench/ when not given).
"""

import argparse
import glob
import json
import os
import statistics
import sys

COMPARED = ("num_cpus", "rayon_threads", "workers", "features")


def load(path):
    files = sorted(glob.glob(os.path.join(path, "*.json"))) if os.path.isdir(path) else [path]
    out = []
    for f in files:
        with open(f) as fh:
            r = json.load(fh)
        if r.get("trace") == 0:
            out.append(r)
    return out


def machine_key(r):
    m = r["machine"]
    return tuple(json.dumps(m.get(k), sort_keys=True) for k in COMPARED)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base")
    ap.add_argument("cand")
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    ap.add_argument("--bounds", default=default)
    args = ap.parse_args()

    bounds, better = {}, {}
    if os.path.exists(args.bounds):
        with open(args.bounds) as fh:
            spec = json.load(fh)
        for m in spec.get("end_to_end", []):
            bounds[m["name"]] = m["bound"]
            better[m["name"]] = m["better"]

    base, cand = load(args.base), load(args.cand)
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in cand})
    worst = 0
    for w in workloads:
        b = [r for r in base if r["workload"] == w]
        c = [r for r in cand if r["workload"] == w]
        print(f"== {w}: {len(b)} base runs, {len(c)} candidate runs")
        keys = {machine_key(r) for r in b + c}
        if not b or not c:
            print("   missing on one side")
            continue
        if len(keys) != 1:
            print("   not comparable: machine blocks differ")
            for key in sorted(keys):
                print("     ", dict(zip(COMPARED, key)))
            continue
        for name in sorted(b[0]["e2e"]):
            bv = [r["e2e"][name]["value"] for r in b if name in r["e2e"]]
            cv = [r["e2e"][name]["value"] for r in c if name in r["e2e"]]
            if not bv or not cv:
                continue
            bq, cq = quartiles(bv), quartiles(cv)
            change = (cq[1] - bq[1]) / bq[1]
            worse = change if better.get(name, "lower") == "lower" else -change
            verdict = "ok"
            if name in bounds and worse > bounds[name]:
                verdict = "REGRESSED"
                worst = 1
            unit = b[0]["e2e"][name]["unit"]
            print(f"   {name:18s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                  f"cand {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {unit:5s} "
                  f"{100 * change:+.2f}%  bound {bounds.get(name, float('nan')):.2f}  {verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
