#pragma once

// Compiled execution plans: the whole-program analogue of the kernel cache.
//
// Between slot resolution (runtime/resolve.hpp) and evaluation, the plan
// compiler lowers a resolved program's top-level body — and, transitively,
// each plannable OpLoop body and OpIf arm — ONCE into a straight-line
// schedule with one step per statement, except that a run of >= 2
// consecutive pure scalar bindings folds into a single *Scalars* step: an
// extent-1 kernel program (runtime/kernel.hpp) executed allocation-free with
// results written straight back to slots.
//
// Every other step runs its statement through the ordinary evaluator
// (exec_stm), with whatever the plan pre-built for it attached:
//
//   kernel     a kernelizable rank-1 OpMap's kernel, pre-bound from the
//              process-wide KernelCache at plan time — steady-state loop
//              iterations re-bind arguments but never re-derive the kernel;
//   loop_body  a for-loop whose body extents are provably loop-invariant
//              (ir::loop_extents_invariant): the body runs its own nested
//              plan, and the outermost planned loop installs a per-thread
//              loop-buffer ring so launch scratch is acquired once and
//              recycled across iterations (double-buffered across the carry)
//              instead of round-tripping the global pool;
//   if_true/   an OpIf whose arms carry plannable structure: the taken arm
//   if_false   runs its own nested plan in the enclosing frame (if-arms are
//              not activations), so planned regions no longer shatter at
//              every branch.
//
// A step with nothing attached evaluates its statement exactly as the
// unplanned evaluator would (while loops, data-dependent extents,
// reduces/scans/hists, ...). There is one code path per statement kind, so
// planned and unplanned runs share error frames, fault sites and counters.
//
// Beyond the top-level body, plans are also compiled for every lambda body
// the evaluator enters through EvalCtx::apply() (general-path map elements,
// reduce/scan operators, withacc bodies, ...): ProgPlans carries an
// immutable pointer-keyed table of lambda-body plans built eagerly alongside
// the top-level plan, so apply() routes hot inner bodies through the same
// compiled schedule. Only lambdas whose plan earns its keep (a step with
// something attached, or a nonempty release list) are tabled; everything
// else stays on plain eval_body.
//
// Each step additionally carries a *release list* (ir/liveness.hpp): the
// variables bound by the planned body whose last use falls inside the step's
// statement range. The evaluator clears their frame slots after the step
// completes, dropping the frame's reference so sole-owner (use_count()==1)
// launch buffers become reclaimable by the per-thread launch arena while the
// plan is still running — the memory-planning half of this layer. Releases
// are plan metadata only: the plan-disabled path never sees them, and
// clearing a slot is unobservable to a correct program (liveness proves no
// later read).
//
// Plans never change results: a pre-bound kernel is the identical kernel the
// evaluator would look up, Scalars blocks compute the identical
// double-precision values the scalar evaluator produces for the folded ops,
// and planned loops execute iterations in the same order over the same
// frames — planned vs. plan-disabled execution is bit-exact
// (tests/test_plan.cpp). If a pre-bound kernel does not bind at runtime (an
// unexpected binding shape), the map takes the evaluator's general path; a
// Scalars block whose free variable is not scalar evaluates its statements
// one by one.
//
// Plans are built once per resolved program, inside its ProgCache entry
// (plans_of below), so they are immortal like the entry itself. Lambda keys
// are pointers into that entry's alpha-renamed function.

#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/ast.hpp"
#include "runtime/kernel.hpp"
#include "runtime/resolve.hpp"

namespace npad::rt {

struct Plan;

struct PlanStep {
  uint32_t stm = 0;    // index into the planned body's stms
  uint32_t count = 1;  // Scalars: number of statements folded

  // Scalars (set exactly for a folded block): the extent-1 kernel program
  // plus writeback slots. Free scalars are read from the environment in
  // kernel free_scalars order; result j is converted with out_types[j] and
  // bound to out_vars[j].
  std::shared_ptr<const Kernel> scalars;
  std::vector<ir::Var> out_vars;
  std::vector<ScalarType> out_types;

  // OpMap: the pre-bound map kernel, pinned by the process-wide kernel
  // cache (immortal).
  const Kernel* kernel = nullptr;

  // OpLoop: the nested body plan; its extents are loop-invariant, so the
  // loop runs under the loop-buffer ring.
  std::unique_ptr<const Plan> loop_body;

  // OpIf: per-arm nested plans, run in the enclosing frame.
  std::unique_ptr<const Plan> if_true, if_false;

  // Liveness release list (ir/liveness.hpp): vars bound by the planned body
  // whose last use falls in this step's statement range; the evaluator
  // clears their slots after the step completes.
  std::vector<ir::Var> releases;
};

struct Plan {
  std::vector<PlanStep> steps;
};

// The compiled schedule for one resolved program: the top-level body plan
// plus the eagerly-built, immutable table of lambda-body plans reached via
// EvalCtx::apply() (see file comment). Lookups are lock-free once published.
struct ProgPlans {
  std::unique_ptr<const Plan> top;
  std::unordered_map<const ir::Lambda*, std::unique_ptr<const Plan>> lambdas;
};

// Returns the compiled schedule for `rp` (top-level body plan + lambda
// table), compiling it inside the entry on first use. `compiled`, when set,
// receives the number of plan objects compiled by the call that builds them;
// later calls leave it untouched.
// Carries the fault site "plan.compile" (FaultKind::Alloc), crossed on every
// call so the sweep exercises the acquisition path deterministically.
const ProgPlans& plans_of(const ResolvedProg& rp, uint64_t* compiled = nullptr);

} // namespace npad::rt
