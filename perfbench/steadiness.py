#!/usr/bin/env python3
"""Steadiness check for the layered benchmark.

Run one set (each workload N times, a different seed per run, untraced):

    python3 perfbench/steadiness.py run --runs 10 --seed-base 1 --out .bench_build/set1.json

Compare two sets against the bounds of BENCHMARK.json:

    python3 perfbench/steadiness.py compare .bench_build/set1.json .bench_build/set2.json

For every end-to-end metric `run` prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound.
`compare` also checks that the second set's median is not worse than the
first's by more than the bound, and that both sets fail the same share of
operations. It exits 1 when a check fails. Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_set(args, spec):
    out = {}
    for w in [wl["name"] for wl in spec["workloads"]]:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               text=True)
            if r.returncode != 0:
                sys.exit("run failed: " + " ".join(cmd))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            runs.append(res)
            print("%-12s seed %-4d %s" % (w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
        out[w] = runs
    print_set(out, spec)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    return out


def print_set(runs_by_wl, spec):
    ok = True
    print("\n%-12s %-15s %10s %10s %10s %7s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w, runs in runs_by_wl.items():
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, spread = summarize(vals)
            flag = "" if spread <= m["bound"] / 3 else (" (> bound/3)" if spread <= m["bound"]
                                                          else " (> bound)")
            if spread > m["bound"]:
                ok = False
            print("%-12s %-15s %10.4g %10.4g %10.4g %7.3f %6.2f%s" %
                  (w, m["name"], med, q1, q3, spread, m["bound"], flag))
        att = sum(r["attempted"] for r in runs)
        fail = sum(r["failed"] for r in runs)
        print("%-12s %d attempted, %d failed, correct=%s" %
              (w, att, fail, all(r["correct"] for r in runs)))
    return ok


def compare(a_path, b_path, spec):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = print_set(a, spec) & print_set(b, spec)
    print("\n%-12s %-15s %10s %10s %8s %6s" % ("workload", "metric", "median1", "median2",
                                                 "change", "bound"))
    for w in a:
        for m in spec["end_to_end"]:
            m1 = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            m2 = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            bad = worse > m["bound"]
            ok = ok and not bad
            print("%-12s %-15s %10.4g %10.4g %+8.3f %6.2f%s" %
                  (w, m["name"], m1, m2, worse, m["bound"], " WORSE" if bad else ""))
        share = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                 for s in (a, b)]
        if share[0] != share[1]:
            ok = False
            print("%-12s failed share differs: %r vs %r" % (w, share[0], share[1]))
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main():
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed-base", type=int, default=1)
    r.add_argument("--out", default="")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        run_set(args, spec)
    else:
        sys.exit(0 if compare(args.first, args.second, spec) else 1)


if __name__ == "__main__":
    main()
