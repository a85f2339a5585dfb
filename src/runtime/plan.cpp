#include "runtime/plan.hpp"

#include "ir/analysis.hpp"
#include "ir/liveness.hpp"
#include "ir/visit.hpp"
#include "runtime/kernel_cache.hpp"
#include "support/fault.hpp"

namespace npad::rt {

namespace {

using namespace ir;
using support::FaultKind;

// A statement foldable into a scalar-glue block: binds exactly one scalar
// (non-acc) result through a pure scalar operation. OpIndex is deliberately
// excluded — its bounds check must keep throwing ShapeError with the exact
// general-path message, and a Gather in a folded block would bypass it.
bool scalar_glue(const Stm& st) {
  if (st.vars.size() != 1) return false;
  const Type& t = st.types[0];
  if (t.rank != 0 || t.is_acc) return false;
  return std::holds_alternative<OpAtom>(st.e) || std::holds_alternative<OpBin>(st.e) ||
         std::holds_alternative<OpUn>(st.e) || std::holds_alternative<OpSelect>(st.e);
}

// Lowers `body` into a plan (recursing into plannable loop bodies and OpIf
// arms). `nplans`, when set, is incremented once per plan object compiled —
// the InterpStats::plans_compiled feed.
std::unique_ptr<const Plan> compile_body_plan(const Body& body, uint64_t* nplans);

// A plan worth routing through the planned evaluator: it either compiled
// real structure (a step with something attached) or its release lists
// reclaim frame slots mid-body. Bare, release-free plans behave exactly like
// eval_body and are not worth the indirection.
bool plan_earns_keep(const Plan& plan) {
  for (const PlanStep& s : plan.steps) {
    if (s.scalars || s.kernel || s.loop_body || s.if_true || !s.releases.empty()) return true;
  }
  return false;
}

// Attaches the liveness release lists of stms [begin, end) to `step`.
void attach_releases(const ir::BodyLiveness& lv, size_t begin, size_t end, PlanStep& step) {
  for (size_t i = begin; i < end && i < lv.releases.size(); ++i) {
    step.releases.insert(step.releases.end(), lv.releases[i].begin(), lv.releases[i].end());
  }
}

// Folds stms [begin, end) — a run of >= 2 scalar-glue bindings — into one
// extent-1 kernel step. Falls back to one bare step per statement when the
// kernel compiler rejects the synthetic lambda (it never should for the ops
// scalar_glue admits, but plans must not be load-bearing for correctness).
void add_scalar_run(const Body& body, const ir::BodyLiveness& lv, size_t begin, size_t end,
                    Plan& plan) {
  Lambda glue;
  glue.body.stms.assign(body.stms.begin() + static_cast<ptrdiff_t>(begin),
                        body.stms.begin() + static_cast<ptrdiff_t>(end));
  // Every binding in the run is an output: later statements (and the body
  // result) may consume any of them.
  for (size_t i = begin; i < end; ++i) {
    glue.body.result.emplace_back(body.stms[i].vars[0]);
    glue.rets.push_back(body.stms[i].types[0]);
  }
  auto kopt = compile_kernel(glue);
  if (!kopt || !kopt->accs.empty() || kopt->num_inputs != 0 || !kopt->free_arrays.empty()) {
    for (size_t i = begin; i < end; ++i) {
      PlanStep s;
      s.stm = static_cast<uint32_t>(i);
      attach_releases(lv, i, i + 1, s);
      plan.steps.push_back(std::move(s));
    }
    return;
  }
  PlanStep s;
  s.stm = static_cast<uint32_t>(begin);
  s.count = static_cast<uint32_t>(end - begin);
  s.scalars = std::make_shared<const Kernel>(std::move(*kopt));
  for (size_t i = begin; i < end; ++i) {
    s.out_vars.push_back(body.stms[i].vars[0]);
    s.out_types.push_back(body.stms[i].types[0].elem);
  }
  attach_releases(lv, begin, end, s);
  plan.steps.push_back(std::move(s));
}

// Attaches what the plan pre-builds for one statement (see plan.hpp).
void attach_prebuilt(const Exp& e, PlanStep& s, uint64_t* nplans) {
  // Kernelizable rank-1 maps pre-resolve their kernel from the immortal
  // process-wide cache; steady-state iterations skip the lookup entirely.
  // A map whose lambda takes array rows (rank > 0 non-acc params) can never
  // launch over rank-1 inputs, so it gets no kernel — no point re-attempting
  // the kernel binding every iteration.
  if (const auto* m = std::get_if<OpMap>(&e)) {
    bool scalar_params = true;
    for (const auto& p : m->f->params) {
      if (!p.type.is_acc && p.type.rank != 0) scalar_params = false;
    }
    if (m->flat == FlatForm::None && scalar_params) s.kernel = KernelCache::global().get(m->f);
  }
  // For-loops with provably loop-invariant body extents get a nested plan
  // and the hoisted loop-buffer ring. While-loops and data-dependent
  // extents stay on the general evaluator.
  if (const auto* lp = std::get_if<OpLoop>(&e)) {
    if (!lp->while_cond && loop_extents_invariant(*lp)) {
      s.loop_body = compile_body_plan(*lp->body, nplans);
    }
  }
  // OpIf arms get nested plans run in the enclosing frame when at least
  // one arm carries structure worth planning; trivial scalar ifs stay on
  // the general evaluator (same results, less indirection).
  if (const auto* br = std::get_if<OpIf>(&e)) {
    auto tb = compile_body_plan(*br->tb, nplans);
    auto fb = compile_body_plan(*br->fb, nplans);
    if (plan_earns_keep(*tb) || plan_earns_keep(*fb)) {
      s.if_true = std::move(tb);
      s.if_false = std::move(fb);
    }
  }
}

std::unique_ptr<const Plan> compile_body_plan(const Body& body, uint64_t* nplans) {
  auto plan = std::make_unique<Plan>();
  const ir::BodyLiveness lv = ir::body_liveness(body);
  const auto& stms = body.stms;
  size_t i = 0;
  while (i < stms.size()) {
    // Runs of scalar glue fold into one kernelized block.
    if (scalar_glue(stms[i])) {
      size_t j = i + 1;
      while (j < stms.size() && scalar_glue(stms[j])) ++j;
      if (j - i >= 2) {
        add_scalar_run(body, lv, i, j, *plan);
        i = j;
        continue;
      }
    }
    PlanStep s;
    s.stm = static_cast<uint32_t>(i);
    attach_prebuilt(stms[i].e, s, nplans);
    attach_releases(lv, i, i + 1, s);
    plan->steps.push_back(std::move(s));
    ++i;
  }
  if (nplans != nullptr) ++*nplans;
  return plan;
}

// Collects every lambda reachable from `b` (SOAC lambdas, redomap
// pre-lambdas, while conditions), recursing through nested bodies and the
// collected lambdas' own bodies. Pointer identity dedups shared subtrees.
void collect_lambdas(const Body& b, std::vector<const Lambda*>& out);

void collect_lambdas_exp(const Exp& e, std::vector<const Lambda*>& out) {
  auto lam = [&](const LambdaPtr& l) {
    if (!l) return;
    out.push_back(l.get());
    collect_lambdas(l->body, out);
  };
  std::visit(Overload{
                 [&](const OpIf& o) {
                   collect_lambdas(*o.tb, out);
                   collect_lambdas(*o.fb, out);
                 },
                 [&](const OpLoop& o) {
                   collect_lambdas(*o.body, out);
                   lam(o.while_cond);
                 },
                 [&](const OpMap& o) { lam(o.f); },
                 [&](const OpReduce& o) { lam(o.op); lam(o.pre); },
                 [&](const OpScan& o) { lam(o.op); lam(o.pre); },
                 [&](const OpHist& o) { lam(o.op); lam(o.pre); },
                 [&](const OpWithAcc& o) { lam(o.f); },
                 [&](const auto&) {},
             },
             e);
}

void collect_lambdas(const Body& b, std::vector<const Lambda*>& out) {
  for (const Stm& st : b.stms) collect_lambdas_exp(st.e, out);
}

} // namespace

const ProgPlans& plans_of(const ResolvedProg& rp, uint64_t* compiled) {
  // Crossed on every call (not just the compiling one) so the fault sweep
  // exercises the acquisition path deterministically despite the entry being
  // immortal: the site's crossing count is per run, not per process.
  NPAD_FAULT_SITE("plan.compile", FaultKind::Alloc);
  return rp.plans.get([&] {
    uint64_t n = 0;
    auto plans = std::make_shared<ProgPlans>();
    plans->top = compile_body_plan(rp.fn.body, &n);
    // Lambda bodies entered via apply() compile alongside the top-level plan;
    // only plans that earn their keep are tabled (see plan.hpp).
    std::vector<const ir::Lambda*> lams;
    collect_lambdas(rp.fn.body, lams);
    for (const ir::Lambda* l : lams) {
      if (plans->lambdas.count(l)) continue;
      auto lp = compile_body_plan(l->body, &n);
      if (plan_earns_keep(*lp)) plans->lambdas.emplace(l, std::move(lp));
    }
    if (compiled != nullptr) *compiled = n;
    return plans;
  });
}

} // namespace npad::rt
