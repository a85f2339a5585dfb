#!/usr/bin/env python3
"""Builds and runs the layered benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the npad
library and the benchmark binary under .bench_build/ (several minutes);
later runs only re-check the build. An untraced run measures in several
processes and pools their samples; a traced run is one process. With --trace 0 the last line of
standard output is one JSON object carrying every end-to-end metric of
BENCHMARK.json; with --trace 1 it carries every per-layer metric, and the
run also writes a Chrome trace-event file and a self-time table under
.bench_build/traces/. Earlier lines are the machine fingerprint. Build and
progress messages go to standard error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Untraced runs split their measuring time over this many processes and pool
# the samples. The machine's speed shifts from process to process, and not
# by the same factor for an npad op and its reference, so a run that pools
# many processes repeats better than one process. Each process sets up once,
# with cold caches; setup_s is the mean of their set-up times, not the
# median, because process speed falls into two modes about 30% apart, and
# the median of a two-mode sample jumps between them.
PROCESSES = 20

COMPUTE = ("kmeans_hvp", "lstm_grad", "adbench_jac")
# Per-layer metrics a workload has no layer for; reported as 0.
COMPUTE_ONLY = {"core.ad_ms", "core.stms", "opt.optimize_ms", "opt.stms", "opt.fused",
                "opt.flattened", "runtime.cold_run_ms", "runtime.resolve_x_ref",
                "runtime.run_x_ref", "wall.op_ms", "wall.ref_ms", "trace.op_span_coverage",
                "trace.op_x_ref"}


def not_applicable(workload, name):
    if workload in COMPUTE:
        return name.startswith("serve.")
    return name in COMPUTE_ONLY


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]):
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(args, timeout):
    """Runs the benchmark binary; returns (earlier stdout lines, result dict)."""
    try:
        r = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: perfbench " + " ".join(args))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("perfbench %s exited with %d" % (" ".join(args), r.returncode))
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + a.workload)
    build()

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        trace = os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))
        runs = [run_binary(common + ["--seconds", str(a.seconds), "--trace", "1",
                                     "--trace-out", trace], a.seconds + 150)]
        got = runs[0][1]["metrics"]
    else:
        per = a.seconds / PROCESSES
        runs = [run_binary(common + ["--seconds", repr(per), "--trace", "0"], per + 150)
                for _ in range(PROCESSES)]
        ratios = [x for _, r in runs for x in r["samples"]["op_x_ref"]]
        got = {"setup_s": {"value": statistics.fmean(r["metrics"]["setup_s"]["value"]
                                                     for _, r in runs)},
               "peak_rss_mb": {"value": statistics.median(r["metrics"]["peak_rss_mb"]["value"]
                                                          for _, r in runs)}}
        got["op_x_ref"] = {"value": statistics.median(ratios)}
    for head, res in runs:
        for line in head:
            print(line)
        for note in res.get("notes", []):
            print("run.py: " + note, file=sys.stderr)

    metrics = {}
    for m in spec["per_layer" if a.trace else "end_to_end"]:
        name = m["name"]
        if name in got:
            metrics[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif a.trace and not_applicable(a.workload, name):
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            fail("metric %s missing from %s" % (name, a.workload))
    print(json.dumps({"correct": all(r["correct"] for _, r in runs),
                      "attempted": sum(r["attempted"] for _, r in runs),
                      "failed": sum(r["failed"] for _, r in runs),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
