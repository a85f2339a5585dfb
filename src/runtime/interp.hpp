#pragma once

// Parallel interpreter for npad IR: the execution substrate standing in for
// the paper's GPU backend. SOACs execute on the global thread pool; scalar
// map lambdas take the kernel-compiled fast path (runtime/kernel.hpp), with
// compiled kernels cached process-wide (runtime/kernel_cache.hpp); regular
// nested SOACs annotated by opt/flatten.cpp run as single collapsed or
// segmented launches instead of one inner launch per row; variable
// environments are slot-resolved flat frames (runtime/resolve.hpp); and
// accumulator updates are privatized into per-worker buffers when profitable,
// falling back to atomic adds. See src/runtime/README.md.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/value.hpp"

namespace npad::rt {

// Default eval recursion-depth limit: NPAD_MAX_EVAL_DEPTH if set, else 512 —
// deep enough for any real program the front end emits, shallow enough that a
// runaway recursive structure throws npad::ResourceError long before the C++
// stack overflows.
int default_max_eval_depth();

// Vectorized-tier defaults from the environment: NPAD_VEXEC=0 disables the
// tier (register machine everywhere), NPAD_VEXEC=portable keeps it on but
// pins the portable (non-AVX2) handler build. Unset/any other value: on,
// with runtime CPU detection choosing the ISA.
bool default_use_vexec();
bool default_vexec_portable();

// Execution-plan default from the environment: NPAD_USE_PLANS=0 disables
// compiled execution plans (per-statement eval dispatch everywhere). Unset
// or any other value: on.
bool default_use_plans();

struct InterpOptions {
  bool parallel = true;         // use the thread pool for SOACs
  bool use_kernels = true;      // enable the kernel-compiled map fast path
  bool privatize_accs = true;   // per-worker accumulator buffers + merge
  // Compiled execution plans (runtime/plan.hpp): run the top-level body,
  // plannable OpLoop bodies and OpIf arms, and applied lambda bodies from
  // cached step schedules (pre-bound kernels, folded scalar glue, hoisted
  // loop buffers, liveness releases). Requires use_kernels; anything
  // non-plannable evaluates exactly as with plans off.
  // NPAD_USE_PLANS=0 disables the default.
  bool use_plans = default_use_plans();
  // Kernel lane width W: compiled maps execute in batches of W iterations
  // over an SoA register file (amortized dispatch, contiguous element
  // loads/stores), with a scalar tail loop. 1 = scalar execution.
  int kernel_lanes = 8;
  int64_t grain = 2048;         // minimum elements per parallel chunk
  // Privatization threshold: an accumulator is privatized only while the
  // total private footprint of the launch (sum over privatized accumulators
  // of elems x chunks) stays within this many f64 elements.
  int64_t privatize_budget = int64_t{1} << 22;
  // Minimum map extent before privatization is considered; smaller launches
  // keep atomic updates (contention is bounded by the extent anyway).
  int64_t privatize_min_iters = 4096;
  // Resource governance: maximum nesting depth of lambda/loop-body frames
  // before evaluation aborts with npad::ResourceError (<= 0 disables).
  int max_eval_depth = default_max_eval_depth();
  // Vectorized execution tier (runtime/vexec.hpp): lower cached kernels to
  // pre-decoded SIMD schedules and dispatch launches through them. Bit-exact
  // vs the register machine by contract; the register machine remains the
  // fallback for kernels that do not lower.
  bool use_vexec = default_use_vexec();
  // Pin the portable (auto-vectorized, no AVX2) vexec handler build even
  // when the CPU supports AVX2 — conformance coverage for non-SIMD hosts.
  bool vexec_portable = default_vexec_portable();
};

struct InterpStats {
  std::atomic<uint64_t> kernel_maps{0};          // maps run through compiled kernels
  std::atomic<uint64_t> general_maps{0};         // maps run through the interpreter
  std::atomic<uint64_t> kernel_cache_hits{0};    // launches that skipped compilation
  std::atomic<uint64_t> kernel_cache_misses{0};  // launches that compiled (or analyzed)
  std::atomic<uint64_t> privatized_updates{0};   // non-atomic accumulator updates
  std::atomic<uint64_t> atomic_updates{0};       // atomic RMW accumulator updates
  std::atomic<uint64_t> privatized_launches{0};  // launches that privatized >=1 acc
  std::atomic<uint64_t> pool_hits{0};            // launch buffers recycled from the pool
  std::atomic<uint64_t> pool_misses{0};          // launch buffers freshly heap-allocated
  std::atomic<uint64_t> fused_maps{0};           // producer maps eliminated by fusion (per launch)
  std::atomic<uint64_t> batched_launches{0};     // kernel spans that ran >=1 full lane batch
  std::atomic<uint64_t> kernel_reduces{0};       // reduces run through compiled kernels
  std::atomic<uint64_t> hand_reduces{0};         // reduces run through the hand binop loop
  std::atomic<uint64_t> general_reduces{0};      // reduces run through the interpreter
  std::atomic<uint64_t> fused_reduces{0};        // producer maps folded into reduce launches
  std::atomic<uint64_t> kernel_scans{0};         // scans run through compiled kernels
  std::atomic<uint64_t> general_scans{0};        // scans run through the interpreter
  std::atomic<uint64_t> fused_scans{0};          // producer maps folded into scan launches
  std::atomic<uint64_t> flattened_maps{0};       // nested maps run as one collapsed launch
  std::atomic<uint64_t> segred_launches{0};      // map-of-reduce nests run segmented
  std::atomic<uint64_t> segred_segments{0};      // total segments folded by segred launches
  std::atomic<uint64_t> kernel_hists{0};         // hists run through compiled kernels
  std::atomic<uint64_t> general_hists{0};        // hists run through the interpreter
  std::atomic<uint64_t> fused_hists{0};          // producer maps folded into hist launches
  std::atomic<uint64_t> privatized_hist_updates{0};  // non-atomic hist bin updates
  std::atomic<uint64_t> atomic_hist_updates{0};      // atomic RMW hist bin updates
  std::atomic<uint64_t> plans_compiled{0};       // execution plans lowered (incl. loop bodies)
  std::atomic<uint64_t> plan_launches{0};        // SOAC launches issued from plan steps
  std::atomic<uint64_t> plan_scalar_blocks{0};   // kernelized scalar-glue block executions
  std::atomic<uint64_t> plan_hoisted_buffers{0}; // launch buffers reused via loop hoisting
  std::atomic<uint64_t> plan_lambda_bodies{0};   // apply() calls routed through lambda-body plans
  std::atomic<uint64_t> plan_if_arms{0};         // OpIf arms executed as nested plan steps
  std::atomic<uint64_t> arena_reuses{0};         // launch buffers recycled by arenas outside hoisted loops
  std::atomic<uint64_t> vexec_launches{0};       // spans dispatched through the vexec tier
  std::atomic<uint64_t> vexec_superinstrs{0};    // fused superinstrs in programs bound to launches
  std::atomic<uint64_t> batched_prog_runs{0};    // stacked multi-request runs (run_batched, B>1)
  std::atomic<uint64_t> batched_prog_requests{0};// requests entering run_batched (any B)
  std::atomic<uint64_t> prog_hashes{0};          // program lookups that computed a structural signature

  // Snapshot for machine-readable reporting (bench JSON).
  std::map<std::string, uint64_t> counters() const {
    return {
        {"kernel_maps", kernel_maps.load()},
        {"general_maps", general_maps.load()},
        {"kernel_cache_hits", kernel_cache_hits.load()},
        {"kernel_cache_misses", kernel_cache_misses.load()},
        {"privatized_updates", privatized_updates.load()},
        {"atomic_updates", atomic_updates.load()},
        {"privatized_launches", privatized_launches.load()},
        {"pool_hits", pool_hits.load()},
        {"pool_misses", pool_misses.load()},
        {"fused_maps", fused_maps.load()},
        {"batched_launches", batched_launches.load()},
        {"kernel_reduces", kernel_reduces.load()},
        {"hand_reduces", hand_reduces.load()},
        {"general_reduces", general_reduces.load()},
        {"fused_reduces", fused_reduces.load()},
        {"kernel_scans", kernel_scans.load()},
        {"general_scans", general_scans.load()},
        {"fused_scans", fused_scans.load()},
        {"flattened_maps", flattened_maps.load()},
        {"segred_launches", segred_launches.load()},
        {"segred_segments", segred_segments.load()},
        {"kernel_hists", kernel_hists.load()},
        {"general_hists", general_hists.load()},
        {"fused_hists", fused_hists.load()},
        {"privatized_hist_updates", privatized_hist_updates.load()},
        {"atomic_hist_updates", atomic_hist_updates.load()},
        {"plans_compiled", plans_compiled.load()},
        {"plan_launches", plan_launches.load()},
        {"plan_scalar_blocks", plan_scalar_blocks.load()},
        {"plan_hoisted_buffers", plan_hoisted_buffers.load()},
        {"plan_lambda_bodies", plan_lambda_bodies.load()},
        {"plan_if_arms", plan_if_arms.load()},
        {"arena_reuses", arena_reuses.load()},
        {"vexec_launches", vexec_launches.load()},
        {"vexec_superinstrs", vexec_superinstrs.load()},
        {"batched_prog_runs", batched_prog_runs.load()},
        {"batched_prog_requests", batched_prog_requests.load()},
        {"prog_hashes", prog_hashes.load()},
    };
  }
};

struct ResolvedProg;  // runtime/resolve.hpp

class Interp {
public:
  explicit Interp(InterpOptions opts = {}) : opts_(opts) {}

  std::vector<Value> run(const ir::Prog& p, const std::vector<Value>& args) const;

  // Batched entry point (runtime/batch.cpp): executes B same-program request
  // argument lists as one launch of the program's batched form — every param
  // lifted one rank and the original body mapped over the stacked axis — and
  // de-stacks the results back into per-request vectors. B == 1 passes
  // through to run(). With parallelism off this is bit-exact against running
  // the B requests sequentially through run().
  std::vector<std::vector<Value>> run_batched(
      const ir::Prog& p, const std::vector<std::vector<Value>>& batch) const;

  const InterpStats& stats() const { return stats_; }
  const InterpOptions& options() const { return opts_; }

private:
  friend class EvalCtx;
  // Throws npad::TypeError unless `nargs` matches the arity of `fn`.
  static void check_arg_count(const ir::Function& fn, size_t nargs);
  // The ProgCache entry (runtime/resolve.hpp) of `p`; counts a lookup that
  // computed a structural signature in prog_hashes.
  std::shared_ptr<const ResolvedProg> lookup(const ir::Prog& p) const;
  // Evaluates a ProgCache entry on `args`; shared by run() and
  // run_batched(), which each look up their entry once.
  std::vector<Value> run_resolved(const ResolvedProg& rp, const std::vector<Value>& args) const;

  InterpOptions opts_;
  mutable InterpStats stats_;
};

// One-shot convenience entry point.
std::vector<Value> run_prog(const ir::Prog& p, const std::vector<Value>& args,
                            InterpOptions opts = {});

} // namespace npad::rt
