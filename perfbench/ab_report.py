#!/usr/bin/env python3
"""Summarises an A/B results file written by perfbench/ab.sh.

    python3 perfbench/ab_report.py BENCHMARK.json results.jsonl

For each workload and end-to-end metric: each side's median and quartiles
(statistics.quantiles, n=4), the head/base ratio of medians, the fraction of
pairs the head wins (ties count for neither side) and a verdict:

  gain         head wins >= 9/10 of the pairs and the medians differ by
               more than the base's own quartile spread; it reads "no gain:
               head fails more" when the head fails more runs or
               operations than the base;
  regression   head's median is worse than base's by more than the bound;
  unresolved   base's quartile spread is wider than the bound and not every
               head run reads better than every base run;
  no change    otherwise.

A run that printed no result or reported correct=false is a failed run; its
metrics are left out of the statistics. Each workload's last line gives the
failed runs and the failed / attempted operations of each side.
"""

import json
import statistics
import sys
from collections import defaultdict


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(spec, base, head, wins, pairs, head_fails_more):
    lower = spec["better"] == "lower"
    b1, bmed, b3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    worse_by = (hmed - bmed) / bmed if lower else (bmed - hmed) / bmed
    spread = (b3 - b1) / bmed if bmed else 0.0
    head_better = hmed < bmed if lower else hmed > bmed
    every_run_better = (max(head) < min(base) if lower
                        else min(head) > max(base))
    if head_better and wins >= 0.9 * pairs and abs(hmed - bmed) > b3 - b1:
        return "no gain: head fails more" if head_fails_more else "gain"
    if worse_by > spec["bound"]:
        return "regression"
    if spread > spec["bound"] and not every_run_better:
        return "unresolved"
    return "no change"


def main(bench_path, results_path):
    spec = json.load(open(bench_path))
    runs = defaultdict(dict)  # (workload, pair) -> side -> metrics
    # (workload, side) -> [failed runs, failed operations, attempted]
    counts = defaultdict(lambda: [0, 0, 0])
    for line in open(results_path):
        row = json.loads(line)
        result = row["result"]
        count = counts[(row["workload"], row["side"])]
        if not result or not result.get("correct"):
            count[0] += 1
            continue
        count[1] += result["failed"]
        count[2] += result["attempted"]
        runs[(row["workload"], row["pair"])][row["side"]] = result["metrics"]

    header = (f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':>30} "
              f"{'head median [q1, q3]':>30} {'head/base':>9} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    ran = {workload for workload, _ in counts}
    for workload in [w["name"] for w in spec["workloads"] if w["name"] in ran]:
        base_count = counts[(workload, "base")]
        head_count = counts[(workload, "head")]
        head_fails_more = (head_count[0] > base_count[0] or
                           head_count[1] > base_count[1])
        pairs = [sides for (w, _), sides in sorted(runs.items())
                 if w == workload and "base" in sides and "head" in sides]
        for metric in spec["end_to_end"] if pairs else []:
            name = metric["name"]
            base = [p["base"][name]["value"] for p in pairs]
            head = [p["head"][name]["value"] for p in pairs]
            lower = metric["better"] == "lower"
            wins = sum(1 for b, h in zip(base, head)
                       if (h < b if lower else h > b))
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            print(f"{workload:<15} {name:<12} "
                  f"{f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':>30} "
                  f"{f'{hm:.6g} [{h1:.6g}, {h3:.6g}]':>30} "
                  f"{hm / bm if bm else float('nan'):>9.4f} "
                  f"{wins:>3}/{len(pairs):<2}  "
                  f"{verdict(metric, base, head, wins, len(pairs), head_fails_more)}")
        print(f"{workload:<15} failed runs: base {base_count[0]}, head "
              f"{head_count[0]}; failed/attempted operations: base "
              f"{base_count[1]}/{base_count[2]}, head "
              f"{head_count[1]}/{head_count[2]}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
