#!/usr/bin/env python3
"""Run one workload of the qsyn benchmark and print its result.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qsyn checkout. The first run configures and builds
the `qbench` binary (qbench/CMakeLists.txt, Release) under
$CARGO_TARGET_DIR/qbench, default .bench_build/qbench; later runs rebuild
incrementally. The binary generates the workload's inputs from the seed,
measures for the given seconds and checks every output.

Output: a human-readable report (machine context, workload parameters,
output checks and every metric with its unit), then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics named in BENCHMARK.json; with --trace 1
the per-layer metrics of a traced run, whose spans are written to
<build>/traces/. The full record (context included) is saved under
<build>/results/ for qbench/compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

QBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(QBENCH_DIR)
WORKLOADS = ("paper_pipeline", "synth_queries", "automata_serve", "closure_spill")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "qbench")


def build(out):
    """Configures (once) and builds the qbench binary; returns its path."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", QBENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "qbench", "-j",
                    str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=900)
    return os.path.join(out, "qbench")


def git_rev():
    """The checkout's commit, or "unknown" outside a git work tree (only the
    checkout's own .git is consulted)."""
    git_dir = os.path.join(ROOT, ".git")
    if not os.path.exists(git_dir):
        return "unknown"
    try:
        result = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() or "unknown"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(record):
    ctx = record["context"]
    log("qbench %s  seed=%d  seconds=%s  trace=%d" % (
        record["workload"], record["seed"], record["seconds"], record["trace"]))
    log("  context: " + ", ".join("%s=%s" % kv for kv in sorted(ctx.items())))
    log("  params:  " + ", ".join("%s=%s" % kv for kv in sorted(record["params"].items())))
    for check in record["checks"]:
        log("  check %-4s %s%s" % ("ok" if check["ok"] else "FAIL", check["name"],
                                   (": " + check["detail"]) if check["detail"] else ""))
    log("  %d ops attempted, %d failed, %d latency samples; setup reps %s s" % (
        record["attempted"], record["failed"], record["samples"],
        ", ".join("%.3f" % s for s in record["setup_reps_s"])))
    section = "per_layer" if record["trace"] else "end_to_end"
    for name, metric in record[section].items():
        log("  %-36s %14.6g %s" % (name, metric["value"], metric["unit"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    scratch = os.path.join(out, "runs", "%s-%d" % (args.workload, os.getpid()))
    traces = os.path.join(out, "traces")
    results = os.path.join(out, "results")
    for d in (traces, results):
        os.makedirs(d, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--git-rev", git_rev()]
    if args.trace:
        command += ["--trace-out", os.path.join(traces, tag + ".json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if done.returncode != 0:
        log("qbench exited with code %d" % done.returncode)
        return 1
    record = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    report(record)

    section = record["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for name in declared_metrics(args.trace):
        if name not in section:
            log("metric %s missing from the %s record" % (name, args.workload))
            return 1
        metrics[name] = section[name]
    print(json.dumps({"correct": bool(record["correct"]),
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
