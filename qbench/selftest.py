#!/usr/bin/env python3
"""Reduced-length self-test of the qsyn benchmark.

    python3 qbench/selftest.py [--seconds S]

Runs every workload through qbench/run.py on two seeds, untraced and traced,
for a few seconds each, and fails (exit 1) on any output-check error. It
also checks that
  * the exact counts of a traced run (fmcf.frontier_rows.k7, fmcf.seen_rows,
    spill.frontier_rows.k3) match the paper's closure and repeat across
    seeds, and search.nodes_per_query repeats for one seed;
  * automata_serve's per-tenant outcome digest repeats for one seed;
and prints the tracing overhead per workload: the traced minus the untraced
ops_per_s and p50_us.
"""
import argparse
import json
import os
import subprocess
import sys

QBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(QBENCH_DIR)
WORKLOADS = ("paper_pipeline", "synth_queries", "automata_serve", "closure_spill")
SEEDS = (1, 2)
EXACT = {"fmcf.frontier_rows.k7": 538191, "fmcf.seen_rows": 689402,
         "spill.frontier_rows.k3": 44350}
EXACT_BY_WORKLOAD = {"paper_pipeline": ("fmcf.frontier_rows.k7", "fmcf.seen_rows"),
                     "closure_spill": ("spill.frontier_rows.k3",)}


def run(workload, seed, seconds, trace):
    """Runs one workload; returns the saved full record."""
    done = subprocess.run(
        [sys.executable, os.path.join(QBENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s" % (
            workload, seed, trace, done.returncode, done.stderr[-3000:]))
    last = json.loads(done.stdout.strip().splitlines()[-1])
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.join(ROOT, base, "qbench", "results",
                        "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path) as f:
        record = json.load(f)
    if not last["correct"] or last["failed"] != 0:
        failed = [c for c in record["checks"] if not c["ok"]]
        raise RuntimeError("%s seed %d trace %d: output checks failed: %s" % (
            workload, seed, trace, failed))
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)
            print("  FAIL " + message)

    for workload in WORKLOADS:
        print(workload)
        records = {}
        for seed in SEEDS:
            for trace in (0, 1):
                try:
                    records[seed, trace] = run(workload, seed, args.seconds, trace)
                except RuntimeError as e:
                    expect(False, str(e))
                    continue
                print("  seed %d trace %d ok: %d ops" % (
                    seed, trace, records[seed, trace]["attempted"]))
        for seed in SEEDS:
            plain, traced = records.get((seed, 0)), records.get((seed, 1))
            if plain and traced:
                for name in ("ops_per_s", "p50_us"):
                    a = plain["end_to_end"][name]["value"]
                    b = traced["end_to_end"][name]["value"]
                    print("  seed %d tracing overhead %-9s %+12.5g (%+.1f%%)" % (
                        seed, name, b - a, 100 * (b - a) / a if a else 0.0))
            if traced:
                layer = traced["per_layer"]
                for name in EXACT_BY_WORKLOAD.get(workload, ()):
                    expect(layer[name]["value"] == EXACT[name],
                           "%s %s = %s, expected %d" % (
                               workload, name, layer[name]["value"], EXACT[name]))
        if workload == "synth_queries" and (SEEDS[0], 1) in records:
            again = run(workload, SEEDS[0], args.seconds, 1)
            a = records[SEEDS[0], 1]["per_layer"]["search.nodes_per_query"]["value"]
            b = again["per_layer"]["search.nodes_per_query"]["value"]
            expect(a == b, "search.nodes_per_query differs for one seed: %s vs %s" % (a, b))
        if workload == "automata_serve" and (SEEDS[0], 0) in records:
            again = run(workload, SEEDS[0], args.seconds, 0)
            a = records[SEEDS[0], 0]["params"]["outcome_digest"]
            b = again["params"]["outcome_digest"]
            expect(a == b, "outcome digest differs for one seed: %s vs %s" % (a, b))
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
