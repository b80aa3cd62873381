#!/usr/bin/env python3
"""Compare two qbench result records of one workload.

    python3 qbench/compare.py OLD.json NEW.json

Records are the files qbench/run.py saves under <build>/results/. The
comparison is refused (exit 2) when the two were measured in different
machine contexts: another CPU count, SIMD engine or build type makes the
numbers incomparable. Otherwise every metric present in both is printed with
its relative change, flagged against the bound BENCHMARK.json fixes for it.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONTEXT_KEYS = ("nproc", "simd_engine", "build_type")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        old = json.load(f)
    with open(argv[2]) as f:
        new = json.load(f)
    if old["workload"] != new["workload"] or old["trace"] != new["trace"]:
        print("refused: records are of different workloads or trace modes",
              file=sys.stderr)
        return 2
    for key in CONTEXT_KEYS:
        a, b = old["context"].get(key), new["context"].get(key)
        if a != b:
            print("refused: %s differs (%s vs %s)" % (key, a, b), file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    section = "per_layer" if new["trace"] else "end_to_end"
    print("%s: %s -> %s" % (new["workload"], old["context"].get("git_rev"),
                            new["context"].get("git_rev")))
    worse_than_bound = False
    for name, metric in new[section].items():
        if name not in old[section]:
            continue
        a, b = old[section][name]["value"], metric["value"]
        change = (b - a) / a if a else 0.0
        spec_entry = bounds.get(name, {})
        worse = change > 0 if spec_entry.get("better") == "lower" else change < 0
        flag = ""
        if "bound" in spec_entry and worse and abs(change) > spec_entry["bound"]:
            flag = "  WORSE than bound %.2f" % spec_entry["bound"]
            worse_than_bound = True
        print("  %-36s %14.6g -> %14.6g %s  %+7.2f%%%s" % (
            name, a, b, metric["unit"], 100 * change, flag))
    return 1 if worse_than_bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
