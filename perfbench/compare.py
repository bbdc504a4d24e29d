#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a results.jsonl that perfbench/run.py appends to (one line
per run). Results stamped with different host fingerprints are never
compared: the script refuses and exits 2. For every workload and metric
it prints both medians, the base's quartile spread and the change; a
metric worse than the base by more than its BENCHMARK.json bound is
flagged and the exit code is 1. Latency tails measured at different
percentile levels (job_latency_tail_level) are refused too, and then the
exit code is 2. Medians and quartiles are nearest-rank, the benchmark's
one percentile definition.
"""

import json
import math
import os
import sys


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = min(max(math.ceil(p * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def load(path):
    with open(path, encoding="utf-8") as results:
        return [json.loads(line) for line in results if line.strip()]


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    fingerprints = {json.dumps(r["fingerprint"], sort_keys=True)
                    for r in base + new}
    if len(fingerprints) != 1:
        print("compare: refusing to compare results from different hosts "
              "or builds:", file=sys.stderr)
        for fingerprint in sorted(fingerprints):
            print(f"  {fingerprint}", file=sys.stderr)
        return 2
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json")
    with open(spec_path, encoding="utf-8") as spec_file:
        spec = json.load(spec_file)

    regressions = refusals = 0
    print(f"{'workload':12} {'metric':26} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7}")
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            sides = [[r["metrics"][name]["value"] for r in results
                      if r["workload"] == workload and name in r["metrics"]]
                     for results in (base, new)]
            if not sides[0] or not sides[1]:
                continue
            if name == "job_latency_tail_s":
                levels = {r["counters"]["job_latency_tail_level"]
                          for r in base + new if r["workload"] == workload
                          and name in r["metrics"]}
                if len(levels) != 1:
                    print(f"{workload:12} {name:26} refused: measured at "
                          f"levels {sorted(levels)}")
                    refusals += 1
                    continue
            base_median = nearest_rank(sides[0], 0.5)
            new_median = nearest_rank(sides[1], 0.5)
            if base_median == 0:
                change, spread = math.nan, math.nan
            else:
                change = (new_median - base_median) / base_median
                spread = (nearest_rank(sides[0], 0.75) -
                          nearest_rank(sides[0], 0.25)) / base_median
            worse = change if metric["better"] == "lower" else -change
            flag = ""
            if "bound" in metric and worse > metric["bound"]:
                flag = "  REGRESSION"
                regressions += 1
            print(f"{workload:12} {name:26} {base_median:12.6g} "
                  f"{new_median:12.6g} {change:+8.1%} {spread:7.1%}{flag}")
    if refusals:
        return 2
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
