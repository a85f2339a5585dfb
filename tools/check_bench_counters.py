#!/usr/bin/env python3
"""Counter regression guard over BENCH_*.json counter snapshots.

Every bench binary writes BENCH_<name>.json (bench/common.hpp) with the
interpreter's cumulative stats counters. This script enforces checked-in
ceilings on the launch counters that the execution-plan + inlined-SOAC work
drove down, and on the program lookups that compute a structural signature,
so a regression that quietly reintroduces per-row or per-gate kernel
launches, or per-run program hashing, fails CI instead of only showing up in
the perf trajectory.

Counters are cumulative over the whole binary run and google-benchmark picks
iteration counts from wall-clock (--benchmark_min_time), so absolute counter
values scale with machine speed. The ceilings are therefore *per measured
benchmark iteration*: total counter value divided by the summed iteration
count of the interpreter-driven benchmarks (matched by name substring).
Setup work (program optimization, warm-up runs) folds into the numerator, so
ceilings carry generous headroom over the measured steady-state rate — they
are meant to catch order-of-magnitude regressions, not noise.

Usage: check_bench_counters.py [dir-with-BENCH-json-files]   (default: .)
"""

import json
import os
import sys

# (json file, counter, name substrings of interpreter-driven benchmarks,
#  per-iteration ceiling, measured per-iteration rate when the ceiling was
#  checked in).
#
# table6_lstm: before compiled execution plans + inlined inner SOACs, one
# objective+gradient evaluation issued ~60k batched spans per iteration pair
# (535k per smoke run); measured now ~680/iter. Ceiling 2000 keeps >10x of
# the win locked in.
#
# table3_kmeans: the AD grad/hvp programs used to issue ~120k spans per
# iteration at smoke scale — one launch per (point, centroid) pair inside
# the general per-point gradient lambdas. Row-stream kernel params plus
# virtual value-maps and multi-accumulator inline folds now compile those
# lambdas whole (the hvp's (primal, tangent) reduce pairs included), so the
# per-point SOAC nests run as single kernel launches: measured ~770/iter.
# Ceiling 10000 locks in >12x of the win while leaving headroom for
# slow-machine iteration-count effects. general_maps tracks the per-point
# lambdas the kernel tier deliberately leaves general (the argmin-driven
# scatter body): measured ~1/iter; ceiling 50 fails CI if whole-lambda
# kernelization silently regresses to per-point general maps.
#
# table5_gmm: the GMM objective+gradient pair used to issue ~14.1k batched
# spans per measured iteration (per-(shape, K) launches of the log-sum-exp
# rows); inline SOAC kernelization brings it to ~430/iter. Ceiling 5000
# keeps >3x of the win locked in.
#
# table1_adbench/prog_hashes: program lookups that computed a structural
# signature (ProgCache::get, runtime/resolve.hpp). The interpreter-driven
# rows ("/obj", "/jac") rerun the same ten Prog objects, so after each
# program's first lookup the per-thread identity memo answers every repeat.
# Without the memo every Interp::run hashed its program: measured 1.50/iter
# (21151 over 14073 iterations, one per objective and 15-26 per Jacobian
# iteration); with it 0.0004/iter (10 over 25503). Ceiling 0.1 fails CI if
# per-run hashing comes back, with room for 25x slower machines (fewer
# iterations over the same ten first lookups).
CEILINGS = [
    ("BENCH_table6_lstm.json", "batched_launches", ["npad_"], 2000, 680),
    ("BENCH_table3_kmeans.json", "batched_launches", ["ad_"], 10000, 770),
    ("BENCH_table3_kmeans.json", "general_maps", ["ad_"], 50, 1),
    ("BENCH_table5_gmm.json", "batched_launches", ["npad_"], 5000, 430),
    ("BENCH_table1_adbench.json", "prog_hashes", ["/obj", "/jac"], 0.1, 0.0004),
]

# Counter-over-counter ceilings: (json file, numerator counters (summed),
# denominator counter, ceiling, measured ratio when checked in). Used where
# the natural per-unit denominator is itself a counter rather than benchmark
# iterations — for the serving snapshot, "per served request".
#
# serving/serve_batches: executed groups per request. Cross-request batching
# is the whole point of the serving tier — a lone closed-loop client runs at
# 1.0 (every request its own group), the 8- and 64-client levels fill
# max_batch-sized groups, and the measured blend sits near 0.23. A ratio
# drifting toward 1.0 means stacking silently stopped grouping (key
# mismatch, window regression), so 0.7 fails CI well before that.
#
# serving/launches: execution-tier span launches per request (vexec when the
# SIMD tier is on, the scalar batched kernel machine when it is off — one of
# the two is always zero). Measured ~28/request on the 3:1 objective:
# jacobian gmm mix; 500 guards against per-row launches sneaking into the
# stacked lowering while staying insensitive to the client-mix blend.
RATIO_CEILINGS = [
    (
        "BENCH_serving.json",
        ["serve_batches"],
        "serve_requests",
        0.7,
        0.23,
    ),
    (
        "BENCH_serving.json",
        ["vexec_launches", "batched_launches"],
        "serve_requests",
        500,
        28,
    ),
]


def main() -> int:
    bench_dir = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = []
    for fname, counter, name_subs, ceiling, measured in CEILINGS:
        path = os.path.join(bench_dir, fname)
        if not os.path.exists(path):
            failures.append(f"{fname}: missing (bench smoke did not produce it)")
            continue
        with open(path) as f:
            data = json.load(f)
        value = data.get("counters", {}).get(counter)
        if value is None:
            failures.append(f"{fname}: counter {counter!r} absent from JSON")
            continue
        iters = sum(
            r["n"]
            for r in data.get("results", [])
            if any(sub in r["name"] for sub in name_subs)
        )
        if iters <= 0:
            failures.append(
                f"{fname}: no benchmark matching {name_subs} reported iterations"
            )
            continue
        per_iter = value / iters
        status = "OK" if per_iter <= ceiling else "FAIL"
        print(
            f"{status:4} {fname}: {counter}={value} over {iters} iter(s) -> "
            f"{per_iter:.4g}/iter (ceiling {ceiling}, was {measured} when checked in)"
        )
        if per_iter > ceiling:
            failures.append(
                f"{fname}: {counter} at {per_iter:.4g}/iter exceeds ceiling {ceiling} "
                f"— a per-iteration counter regression (per-row launches or per-run "
                f"program hashing reintroduced?)"
            )
    for fname, num_counters, den_counter, ceiling, measured in RATIO_CEILINGS:
        path = os.path.join(bench_dir, fname)
        if not os.path.exists(path):
            failures.append(f"{fname}: missing (bench smoke did not produce it)")
            continue
        with open(path) as f:
            counters = json.load(f).get("counters", {})
        missing = [c for c in num_counters + [den_counter] if c not in counters]
        if missing:
            failures.append(f"{fname}: counter(s) {missing} absent from JSON")
            continue
        den = counters[den_counter]
        if den <= 0:
            failures.append(f"{fname}: denominator {den_counter!r} is zero")
            continue
        num = sum(counters[c] for c in num_counters)
        rate = num / den
        status = "OK" if rate <= ceiling else "FAIL"
        print(
            f"{status:4} {fname}: {'+'.join(num_counters)}={num} / {den_counter}={den} "
            f"-> {rate:.2f}/request (ceiling {ceiling}, was {measured} when checked in)"
        )
        if rate > ceiling:
            failures.append(
                f"{fname}: {'+'.join(num_counters)} at {rate:.2f} per {den_counter} "
                f"exceeds ceiling {ceiling} — the serving batcher stopped amortizing"
            )
    if failures:
        print("\ncounter regression guard failed:", file=sys.stderr)
        for msg in failures:
            print(f"  - {msg}", file=sys.stderr)
        return 1
    print("counter regression guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
