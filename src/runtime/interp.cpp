#include "runtime/interp.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "ir/patterns.hpp"
#include "ir/visit.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/kernel.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/plan.hpp"
#include "runtime/resolve.hpp"
#include "runtime/vexec.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/thread_pool.hpp"

namespace npad::rt {

int default_max_eval_depth() {
  static const int depth = [] {
    if (const char* env = std::getenv("NPAD_MAX_EVAL_DEPTH")) {
      const int v = std::atoi(env);
      if (v > 0) return v;
    }
    return 512;
  }();
  return depth;
}

bool default_use_vexec() {
  static const bool on = [] {
    if (const char* env = std::getenv("NPAD_VEXEC")) {
      if (std::strcmp(env, "0") == 0) return false;
    }
    return true;
  }();
  return on;
}

bool default_vexec_portable() {
  static const bool portable = [] {
    const char* env = std::getenv("NPAD_VEXEC");
    return env != nullptr && std::strcmp(env, "portable") == 0;
  }();
  return portable;
}

bool default_use_plans() {
  static const bool on = [] {
    if (const char* env = std::getenv("NPAD_USE_PLANS")) {
      if (std::strcmp(env, "0") == 0) return false;
    }
    return true;
  }();
  return on;
}

namespace {
using namespace ir;
using support::FaultKind;

// Current lambda/loop-frame nesting depth on this thread, bounded by
// InterpOptions::max_eval_depth so runaway recursion surfaces as a typed
// ResourceError long before the C++ stack overflows. Thread-local because
// parallel workers evaluate lambda bodies concurrently.
thread_local int tl_eval_depth = 0;

struct EvalDepthGuard {
  explicit EvalDepthGuard(int limit) {
    if (++tl_eval_depth > limit && limit > 0) {
      --tl_eval_depth;  // ctor throws -> dtor never runs; rebalance here
      throw ResourceError("evaluation depth limit exceeded (NPAD_MAX_EVAL_DEPTH=" +
                          std::to_string(limit) + ")");
    }
  }
  ~EvalDepthGuard() { --tl_eval_depth; }
  EvalDepthGuard(const EvalDepthGuard&) = delete;
  EvalDepthGuard& operator=(const EvalDepthGuard&) = delete;
};

// Statement-kind tag for error context frames ("in map binding %ys_12").
const char* exp_kind(const Exp& e) {
  return std::visit(
      Overload{
          [](const OpAtom&) { return "atom"; }, [](const OpBin&) { return "binop"; },
          [](const OpUn&) { return "unop"; }, [](const OpSelect&) { return "select"; },
          [](const OpIndex&) { return "index"; }, [](const OpUpdate&) { return "update"; },
          [](const OpUpdAcc&) { return "upd_acc"; }, [](const OpIota&) { return "iota"; },
          [](const OpReplicate&) { return "replicate"; },
          [](const OpZerosLike&) { return "zeros_like"; },
          [](const OpScratch&) { return "scratch"; }, [](const OpLength&) { return "length"; },
          [](const OpReverse&) { return "reverse"; },
          [](const OpTranspose&) { return "transpose"; }, [](const OpCopy&) { return "copy"; },
          [](const OpIf&) { return "if"; }, [](const OpLoop&) { return "loop"; },
          [](const OpMap&) { return "map"; }, [](const OpReduce&) { return "reduce"; },
          [](const OpScan&) { return "scan"; }, [](const OpHist&) { return "hist"; },
          [](const OpScatter&) { return "scatter"; },
          [](const OpWithAcc&) { return "with_acc"; },
      },
      e);
}

double digamma_approx(double x) {
  double result = 0.0;
  while (x < 6.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  const double inv = 1.0 / x, inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12 - inv2 * (1.0 / 120 - inv2 * (1.0 / 252 - inv2 / 240)));
  return result;
}

// The recognized-binop fast paths of reduce, segmented reduce and hist share
// one combine helper. Only the four operators with useful scalar identities
// are combinable; everything else goes through the kernel or general paths.
inline bool combinable_f64(BinOp op) {
  return op == BinOp::Add || op == BinOp::Mul || op == BinOp::Min || op == BinOp::Max;
}

inline double combine_f64(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Mul: return a * b;
    case BinOp::Min: return std::min(a, b);
    case BinOp::Max: return std::max(a, b);
    default: return a + b;  // unreachable for combinable_f64 operators
  }
}

// Atomic *p = combine(*p, v) for the combinable binops: Add lowers to the
// native fetch_add, the rest run a relaxed CAS loop. All four operators are
// commutative and associative, so concurrent updates in any interleaving
// converge to the same bins (float adds/muls regroup — tolerance, not
// bitwise; min/max are exact).
inline void atomic_combine_f64(BinOp op, double* p, double v) {
  std::atomic_ref<double> ref(*p);
  if (op == BinOp::Add) {
    ref.fetch_add(v, std::memory_order_relaxed);
    return;
  }
  double cur = ref.load(std::memory_order_relaxed);
  while (!ref.compare_exchange_weak(cur, combine_f64(op, cur, v),
                                    std::memory_order_relaxed)) {
  }
}

// Tree-merges per-chunk private accumulator buffers (pairwise, levels in
// parallel when the pool allows), then adds the surviving buffer into the
// destination element-parallel.
void merge_private(std::vector<ArrayVal>& bufs, ArrayVal& dst, int64_t grain) {
  NPAD_FAULT_SITE("acc.merge", FaultKind::Chunk);
  const int64_t m = dst.elems();
  for (size_t stride = 1; stride < bufs.size(); stride *= 2) {
    const auto pairs = static_cast<int64_t>((bufs.size() + 2 * stride - 1) / (2 * stride));
    support::parallel_for(pairs, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t p = lo; p < hi; ++p) {
        const size_t i = static_cast<size_t>(p) * 2 * stride;
        if (i + stride >= bufs.size()) continue;
        double* d = bufs[i].buf->f64() + bufs[i].offset;
        const double* s = bufs[i + stride].buf->f64() + bufs[i + stride].offset;
        for (int64_t j = 0; j < m; ++j) d[j] += s[j];
      }
    });
  }
  double* d = dst.buf->f64() + dst.offset;
  const double* s = bufs[0].buf->f64() + bufs[0].offset;
  support::parallel_for(m, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) d[j] += s[j];
  });
}

// Loop-buffer ring (execution plans, runtime/plan.hpp): the outermost planned
// loop with loop-invariant body extents installs a per-thread ring of parked
// launch buffers. alloc_launch_buf hands a parked buffer back out whenever it
// is the sole owner (use_count 1: every evaluator reference was dropped) and
// the requested element type and shape match — steady-state iterations then
// acquire all their scratch from the ring with zero pool traffic. A buffer
// still referenced by the environment (a carried array, or last iteration's
// value feeding this one) has use_count > 1 and is never handed out, which is
// exactly the double-buffering the loop carry needs. The ring's own reference
// is inert (never read or written through), and the ring dies with the loop —
// on completion or unwind its buffers release to the global pool, restoring
// the pre-loop pool footprint (the fault-injection retry contract).
//
// The same structure doubles as the plan-scoped *launch arena* (ISSUE 10):
// planned runs install an `arena` ring around the whole top-level body, and
// the general map path installs one per parallel chunk, so straight-line and
// branchy plan regions recycle their non-escaping launch intermediates too —
// the liveness release lists (runtime/plan.hpp) are what drop the frame
// references that make use_count()==1 reuse possible mid-body. The `arena`
// flag only affects stats attribution (arena_reuses vs plan_hoisted_buffers)
// and the buffer pool's parked-bytes gauge; the reuse discipline is
// identical.
struct LoopBufRing {
  std::vector<ArrayVal> bufs;
  bool arena = false;
};

thread_local LoopBufRing* tl_loop_ring = nullptr;

// Dynamic extent of a planned hoisted loop on this thread: ring handouts
// inside it count as plan_hoisted_buffers (the PR 7 loop-ring contract);
// handouts outside it came from a plan arena and count as arena_reuses.
thread_local int tl_hoisted_loop_depth = 0;

struct HoistedLoopScope {
  bool on;
  explicit HoistedLoopScope(bool enable) : on(enable) {
    if (on) ++tl_hoisted_loop_depth;
  }
  ~HoistedLoopScope() {
    if (on) --tl_hoisted_loop_depth;
  }
  HoistedLoopScope(const HoistedLoopScope&) = delete;
  HoistedLoopScope& operator=(const HoistedLoopScope&) = delete;
};

// Number of inert ring references on `a`'s buffer (0 or 1). The in-place
// consumption tests (update/hist/scatter/with_acc destinations) budget their
// use_count threshold for real consumers only; a parked ring reference must
// not force a defensive copy.
inline int64_t ring_refs(const ArrayVal& a) {
  const LoopBufRing* r = tl_loop_ring;
  if (r == nullptr) return 0;
  for (const ArrayVal& e : r->bufs) {
    if (e.buf == a.buf) return 1;
  }
  return 0;
}

// Installs a ring for the dynamic extent of a planned loop or a plan arena.
// By default only the outermost scope on this thread owns a ring: nested
// planned loops park their scratch in the enclosing ring (their iteration
// counts multiply, so hoisting to the outermost scope recycles across the
// whole nest). `scoped` guards instead shadow any enclosing ring for their
// extent and restore it afterwards — per-chunk launch arenas use this so a
// chunk recycles identically whether it lands on a worker (no enclosing
// ring) or on the caller thread (run/loop ring present); without it, reuse
// would depend on thread scheduling and pool traffic would be
// nondeterministic. On destruction — completion or unwind — the parked
// buffers release to the global pool and the arena gauge is rebalanced, so
// the pre-scope pool footprint is restored (the fault-injection contract).
struct HoistRingGuard {
  LoopBufRing ring;
  LoopBufRing* prev = nullptr;
  bool installed = false;

  explicit HoistRingGuard(bool enable, bool arena = false, bool scoped = false) {
    if (enable && (scoped || tl_loop_ring == nullptr)) {
      ring.arena = arena;
      prev = tl_loop_ring;
      tl_loop_ring = &ring;
      installed = true;
    }
  }
  ~HoistRingGuard() {
    if (!installed) return;
    tl_loop_ring = prev;
    uint64_t bytes = 0;
    for (const ArrayVal& e : ring.bufs) {
      if (e.buf) bytes += e.buf->cap_bytes;
    }
    if (!ring.bufs.empty()) {
      BufferPool::global().note_arena_unpark(ring.bufs.size(), bytes);
    }
  }
  HoistRingGuard(const HoistRingGuard&) = delete;
  HoistRingGuard& operator=(const HoistRingGuard&) = delete;
};

// Slot-resolved environment: one flat frame per activation (function entry,
// lambda application, loop), chained by static links. Variable access is
// precomputed (level, slot) indexing — no hashing, no per-scope rehash churn
// (see runtime/resolve.hpp). Frames of enclosing activations are read-only
// while parallel workers build their own child frames.
class Env {
public:
  Env(const ResolvedProg& rp, uint32_t act)
      : parent_(nullptr),
        rp_(&rp),
        level_(rp.activations[act].level),
        slots_(rp.activations[act].num_slots) {}

  Env(const Env& parent, uint32_t act)
      : parent_(&parent),
        rp_(parent.rp_),
        level_(rp_->activations[act].level),
        slots_(rp_->activations[act].num_slots) {
    assert(level_ == parent.level_ + 1 && "activation entered from a non-lexical parent");
  }

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  void bind(ir::Var v, Value val) {
    const SlotRef r = rp_->slots[v.id];
    assert(r.valid() && r.level == level_ && "binding outside its own activation");
    slots_[r.slot] = std::move(val);
  }

  const Value& lookup(ir::Var v) const {
    const SlotRef r = v.id < rp_->slots.size() ? rp_->slots[v.id] : SlotRef{};
    if (!r.valid() || r.level > level_) {
      throw TypeError("unbound variable %" + rp_->mod->name(v) + "_" + std::to_string(v.id));
    }
    const Env* e = this;
    while (e->level_ > r.level) e = e->parent_;
    return e->slots_[r.slot];
  }

  // Binding names for error context frames ("%ys_12").
  std::string name_of(ir::Var v) const {
    return "%" + rp_->mod->name(v) + "_" + std::to_string(v.id);
  }

  // Plan-directed slot release (ir/liveness.hpp via PlanStep::releases):
  // drops this frame's reference to a binding past its statically-proven
  // last use, so a sole-owner launch buffer becomes reclaimable by the
  // per-thread arena while the plan is still running. Only vars bound by
  // this activation's own statements ever appear in a release list.
  void release(ir::Var v) {
    const SlotRef r = rp_->slots[v.id];
    assert(r.valid() && r.level == level_ && "releasing outside its own activation");
    slots_[r.slot] = Value{};
  }

private:
  const Env* parent_;
  const ResolvedProg* rp_;
  uint32_t level_;
  std::vector<Value> slots_;
};

class EvalCtx {
public:
  explicit EvalCtx(const Interp& host)
      : opts_(host.options()), stats_(const_cast<InterpStats*>(&host.stats())) {}

  Value eval_atom(const Atom& a, const Env& env) const {
    if (a.is_var()) return env.lookup(a.var());
    const ConstVal& c = a.cval();
    switch (c.t) {
      case ScalarType::F64: return c.f;
      case ScalarType::I64: return c.i;
      case ScalarType::Bool: return c.i != 0;
    }
    return 0.0;
  }

  // Statements execute in the caller's frame: nested bodies (if branches) are
  // not activations — their bindings have dedicated slots in the enclosing
  // frame (binding ids are unique after alpha-renaming).
  //
  // With a compiled plan for the body (runtime/plan.hpp), a Scalars step runs
  // its folded block and every other step runs its statement through
  // exec_stm with the step attached, so planned evaluation is a strict
  // refinement of the unplanned one: identical bindings, identical results,
  // identical error context frames.
  std::vector<Value> eval_body(const Body& b, Env& env, const Plan* plan = nullptr) const {
    if (plan == nullptr) {
      for (const auto& st : b.stms) exec_stm(st, env);
    } else {
      for (const PlanStep& s : plan->steps) {
        if (s.scalars) {
          run_scalar_step(b, s, env);
        } else {
          exec_stm(b.stms[s.stm], env, &s);
        }
        // Liveness releases run between steps on the calling thread — every
        // launch of the step has completed, so no in-flight reader exists and
        // the dropped reference can make an arena buffer sole-owner.
        for (ir::Var v : s.releases) env.release(v);
      }
    }
    std::vector<Value> out;
    out.reserve(b.result.size());
    for (const auto& a : b.result) out.push_back(eval_atom(a, env));
    return out;
  }

  // Lambda application. When the enclosing resolved program's compiled
  // schedule tabled a plan for this body (runtime/plan.hpp), the application
  // runs it — same frames, same results, plus scalar-block/pre-bound kernel
  // fast steps and liveness releases; everything else stays unplanned.
  std::vector<Value> apply(const Lambda& f, std::vector<Value> args, const Env& captured) const {
    assert(args.size() == f.params.size());
    EvalDepthGuard depth_guard(opts_.max_eval_depth);
    Env env(captured, f.activation_id.v);
    for (size_t i = 0; i < args.size(); ++i) env.bind(f.params[i].var, std::move(args[i]));
    if (lambda_plans_ != nullptr) {
      auto it = lambda_plans_->find(&f);
      if (it != lambda_plans_->end()) {
        NPAD_FAULT_SITE("plan.apply_body", FaultKind::Chunk);
        stats_->plan_lambda_bodies.fetch_add(1, std::memory_order_relaxed);
        return eval_body(f.body, env, it->second.get());
      }
    }
    return eval_body(f.body, env);
  }

  // `step`, when set, is the statement's compiled plan step (see eval_body).
  void exec_stm(const Stm& st, Env& env, const PlanStep* step = nullptr) const {
    try {
      std::vector<Value> vals = eval_exp(st.e, env, step);
      assert(vals.size() == st.vars.size());
      for (size_t i = 0; i < vals.size(); ++i) env.bind(st.vars[i], std::move(vals[i]));
    } catch (npad::Error& err) {
      // Accumulate IR context as the unwind crosses this frame: the final
      // what() reads like a stack trace through the evaluated program.
      std::string frame = "in ";
      frame += exp_kind(st.e);
      if (!st.vars.empty()) frame += " binding " + env.name_of(st.vars[0]);
      err.add_context(std::move(frame));
      throw;
    }
  }

  // Scalars step: one extent-1 kernel execution replaces the folded run of
  // scalar bindings — no eval_exp dispatch, no per-statement Env traffic, no
  // Value variant churn for the intermediates. Falls back to per-statement
  // evaluation if a free variable turns out not to be scalar.
  void run_scalar_step(const Body& b, const PlanStep& s, Env& env) const {
    bool ok = true;
    try {
      NPAD_FAULT_SITE("plan.step", FaultKind::Chunk);
      const Kernel& k = *s.scalars;
      thread_local std::vector<double> frees, regs, outs;
      frees.clear();
      for (ir::Var v : k.free_scalars) {
        const Value& val = env.lookup(v);
        if (is_array(val) || is_acc(val)) {
          ok = false;
          break;
        }
        frees.push_back(as_f64(val));
      }
      if (ok) {
        outs.assign(s.out_vars.size(), 0.0);
        // Plan-owned kernels are immortal (plans live as long as their
        // program entry), so the vexec tier applies to scalar blocks too —
        // same pre-decoded schedule, scalar width.
        const vexec::Entry* ve = opts_.use_vexec ? vexec::lookup(k, 1) : nullptr;
        if (ve != nullptr) {
          stats_->vexec_launches.fetch_add(1, std::memory_order_relaxed);
          vexec::select_ops(opts_.vexec_portable)->run_scalar(*ve, k, frees.data(),
                                                              outs.data());
        } else {
          regs.assign(static_cast<size_t>(k.num_regs), 0.0);
          run_scalar_kernel(k, frees.data(), regs.data(), outs.data());
        }
        for (size_t j = 0; j < s.out_vars.size(); ++j) {
          env.bind(s.out_vars[j], partial_value(s.out_types[j], outs[j]));
        }
        stats_->plan_scalar_blocks.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (npad::Error& err) {
      err.add_context("in scalar block binding " + env.name_of(s.out_vars[0]));
      throw;
    }
    if (!ok) {
      for (uint32_t i = 0; i < s.count; ++i) exec_stm(b.stms[s.stm + i], env);
    }
  }

  std::vector<Value> eval_exp(const Exp& e, Env& env, const PlanStep* step = nullptr) const {
    return std::visit(
        Overload{
            [&](const OpAtom& o) -> std::vector<Value> { return {eval_atom(o.a, env)}; },
            [&](const OpBin& o) -> std::vector<Value> {
              return {eval_bin(o.op, eval_atom(o.a, env), eval_atom(o.b, env))};
            },
            [&](const OpUn& o) -> std::vector<Value> {
              return {eval_un(o.op, eval_atom(o.a, env))};
            },
            [&](const OpSelect& o) -> std::vector<Value> {
              return {as_bool(eval_atom(o.c, env)) ? eval_atom(o.t, env) : eval_atom(o.f, env)};
            },
            [&](const OpIndex& o) -> std::vector<Value> { return {eval_index(o, env)}; },
            [&](const OpUpdate& o) -> std::vector<Value> { return {eval_update(o, env)}; },
            [&](const OpUpdAcc& o) -> std::vector<Value> { return {eval_updacc(o, env)}; },
            [&](const OpIota& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              ArrayVal a = ArrayVal::alloc(ScalarType::I64, {n});
              for (int64_t i = 0; i < n; ++i) a.set_i64(i, i);
              return {a};
            },
            [&](const OpReplicate& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              Value v = eval_atom(o.v, env);
              if (is_array(v)) {
                const ArrayVal& row = as_array(v);
                std::vector<int64_t> shp{n};
                shp.insert(shp.end(), row.shape.begin(), row.shape.end());
                ArrayVal out = ArrayVal::alloc(row.elem, std::move(shp));
                for (int64_t i = 0; i < n; ++i) copy_into(out, i * row.elems(), row);
                return {out};
              }
              ScalarType t = std::holds_alternative<double>(v)    ? ScalarType::F64
                             : std::holds_alternative<int64_t>(v) ? ScalarType::I64
                                                                  : ScalarType::Bool;
              ArrayVal out = ArrayVal::alloc(t, {n});
              for (int64_t i = 0; i < n; ++i) store_scalar(out, i, v);
              return {out};
            },
            [&](const OpZerosLike& o) -> std::vector<Value> {
              const Value& v = env.lookup(o.v);
              if (is_array(v)) {
                const ArrayVal& a = as_array(v);
                return {ArrayVal::alloc(a.elem, a.shape)};
              }
              if (std::holds_alternative<int64_t>(v)) return {int64_t{0}};
              if (std::holds_alternative<bool>(v)) return {false};
              return {0.0};
            },
            [&](const OpScratch& o) -> std::vector<Value> {
              const int64_t n = as_i64(eval_atom(o.n, env));
              const Value& like = env.lookup(o.like);
              std::vector<int64_t> shp{n};
              ScalarType t = ScalarType::F64;
              if (is_array(like)) {
                const ArrayVal& a = as_array(like);
                shp.insert(shp.end(), a.shape.begin(), a.shape.end());
                t = a.elem;
              } else if (std::holds_alternative<int64_t>(like)) {
                t = ScalarType::I64;
              } else if (std::holds_alternative<bool>(like)) {
                t = ScalarType::Bool;
              }
              return {ArrayVal::alloc(t, std::move(shp))};
            },
            [&](const OpLength& o) -> std::vector<Value> {
              return {as_array(env.lookup(o.arr)).outer()};
            },
            [&](const OpReverse& o) -> std::vector<Value> {
              const ArrayVal& a = as_array(env.lookup(o.arr));
              ArrayVal out = ArrayVal::alloc(a.elem, a.shape);
              const int64_t n = a.outer(), row = a.row_elems();
              for (int64_t i = 0; i < n; ++i) copy_into(out, (n - 1 - i) * row, row_view(a, i));
              return {out};
            },
            [&](const OpTranspose& o) -> std::vector<Value> {
              const ArrayVal& a = as_array(env.lookup(o.arr));
              assert(a.rank() >= 2);
              std::vector<int64_t> shp = a.shape;
              std::swap(shp[0], shp[1]);
              ArrayVal out = ArrayVal::alloc(a.elem, shp);
              const int64_t r = a.shape[0], c = a.shape[1];
              int64_t inner = 1;
              for (size_t d = 2; d < a.shape.size(); ++d) inner *= a.shape[d];
              for (int64_t i = 0; i < r; ++i) {
                for (int64_t j = 0; j < c; ++j) {
                  for (int64_t k = 0; k < inner; ++k) {
                    const int64_t src = (i * c + j) * inner + k;
                    const int64_t dst = (j * r + i) * inner + k;
                    switch (a.elem) {
                      case ScalarType::F64: out.set_f64(dst, a.get_f64(src)); break;
                      case ScalarType::I64: out.set_i64(dst, a.get_i64(src)); break;
                      case ScalarType::Bool: out.set_b8(dst, a.get_i64(src) != 0); break;
                    }
                  }
                }
              }
              return {out};
            },
            [&](const OpCopy& o) -> std::vector<Value> {
              const Value& v = env.lookup(o.v);
              if (is_array(v)) return {compact_copy(as_array(v))};
              return {v};
            },
            [&](const OpIf& o) -> std::vector<Value> {
              // A planned OpIf runs the taken arm's plan.
              const bool planned = step != nullptr && step->if_true != nullptr;
              if (planned) NPAD_FAULT_SITE("plan.if_arm", FaultKind::Chunk);
              const bool c = as_bool(eval_atom(o.c, env));
              if (!planned) return eval_body(c ? *o.tb : *o.fb, env);
              stats_->plan_if_arms.fetch_add(1, std::memory_order_relaxed);
              return c ? eval_body(*o.tb, env, step->if_true.get())
                       : eval_body(*o.fb, env, step->if_false.get());
            },
            [&](const OpLoop& o) -> std::vector<Value> {
              return eval_loop(o, env, step != nullptr ? step->loop_body.get() : nullptr);
            },
            [&](const OpMap& o) -> std::vector<Value> {
              try {
                return eval_map(o, env, step != nullptr ? step->kernel : nullptr);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("map", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpReduce& o) -> std::vector<Value> {
              try {
                return eval_reduce(o, env);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("reduce", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpScan& o) -> std::vector<Value> {
              try {
                return eval_scan(o, env);
              } catch (npad::Error& err) {
                err.add_context(launch_frame("scan", args_extent(o.args, env)));
                throw;
              }
            },
            [&](const OpHist& o) -> std::vector<Value> {
              try {
                return {eval_hist(o, env)};
              } catch (npad::Error& err) {
                err.add_context(launch_frame("hist", var_extent(o.inds, env)));
                throw;
              }
            },
            [&](const OpScatter& o) -> std::vector<Value> {
              try {
                return {eval_scatter(o, env)};
              } catch (npad::Error& err) {
                err.add_context(launch_frame("scatter", var_extent(o.inds, env)));
                throw;
              }
            },
            [&](const OpWithAcc& o) -> std::vector<Value> {
              try {
                return eval_withacc(o, env);
              } catch (npad::Error& err) {
                err.add_context("in with_acc body");
                throw;
              }
            },
        },
        e);
  }

  // Best-effort launch extent for error frames; lookup failures yield -1
  // (frames must never mask the original error with a second throw).
  int64_t var_extent(Var v, const Env& env) const noexcept {
    try {
      const Value& val = env.lookup(v);
      if (is_array(val)) return as_array(val).outer();
    } catch (...) {
    }
    return -1;
  }

  int64_t args_extent(const std::vector<Var>& args, const Env& env) const noexcept {
    for (Var v : args) {
      const int64_t n = var_extent(v, env);
      if (n >= 0) return n;
    }
    return -1;
  }

  static std::string launch_frame(const char* kind, int64_t extent) {
    std::string s = "in ";
    s += kind;
    s += " launch";
    if (extent >= 0) s += " (extent " + std::to_string(extent) + ")";
    return s;
  }

  // ------------------------------------------------------------- scalars ---
  static Value eval_bin(BinOp op, const Value& va, const Value& vb) {
    switch (op) {
      case BinOp::Eq: case BinOp::Ne: case BinOp::Lt: case BinOp::Le:
      case BinOp::Gt: case BinOp::Ge: {
        if (std::holds_alternative<int64_t>(va)) {
          const int64_t a = as_i64(va), b = as_i64(vb);
          switch (op) {
            case BinOp::Eq: return a == b;
            case BinOp::Ne: return a != b;
            case BinOp::Lt: return a < b;
            case BinOp::Le: return a <= b;
            case BinOp::Gt: return a > b;
            default: return a >= b;
          }
        }
        const double a = as_f64(va), b = as_f64(vb);
        switch (op) {
          case BinOp::Eq: return a == b;
          case BinOp::Ne: return a != b;
          case BinOp::Lt: return a < b;
          case BinOp::Le: return a <= b;
          case BinOp::Gt: return a > b;
          default: return a >= b;
        }
      }
      case BinOp::And: return as_bool(va) && as_bool(vb);
      case BinOp::Or: return as_bool(va) || as_bool(vb);
      case BinOp::Mod: {
        const int64_t b = as_i64(vb);
        return b == 0 ? int64_t{0} : as_i64(va) % b;
      }
      default: break;
    }
    if (std::holds_alternative<int64_t>(va)) {
      const int64_t a = as_i64(va), b = as_i64(vb);
      switch (op) {
        case BinOp::Add: return a + b;
        case BinOp::Sub: return a - b;
        case BinOp::Mul: return a * b;
        case BinOp::Div: return b == 0 ? int64_t{0} : a / b;
        case BinOp::Min: return std::min(a, b);
        case BinOp::Max: return std::max(a, b);
        case BinOp::Pow: return static_cast<int64_t>(std::pow(static_cast<double>(a), static_cast<double>(b)));
        default: throw KernelError("binary operator not defined on i64 operands");
      }
    }
    const double a = as_f64(va), b = as_f64(vb);
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Div: return a / b;
      case BinOp::Pow: return std::pow(a, b);
      case BinOp::Min: return std::min(a, b);
      case BinOp::Max: return std::max(a, b);
      default: throw KernelError("binary operator not defined on f64 operands");
    }
  }

  static Value eval_un(UnOp op, const Value& va) {
    switch (op) {
      case UnOp::Not: return !as_bool(va);
      case UnOp::ToF64: return as_f64(va);
      case UnOp::ToI64: return as_i64(va);
      case UnOp::Neg:
        if (std::holds_alternative<int64_t>(va)) return -as_i64(va);
        return -as_f64(va);
      case UnOp::Abs:
        if (std::holds_alternative<int64_t>(va)) return std::abs(as_i64(va));
        return std::fabs(as_f64(va));
      case UnOp::Sign: {
        const double x = as_f64(va);
        return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0);
      }
      default: break;
    }
    const double a = as_f64(va);
    switch (op) {
      case UnOp::Exp: return std::exp(a);
      case UnOp::Log: return std::log(a);
      case UnOp::Sqrt: return std::sqrt(a);
      case UnOp::Sin: return std::sin(a);
      case UnOp::Cos: return std::cos(a);
      case UnOp::Tanh: return std::tanh(a);
      case UnOp::LGamma: return std::lgamma(a);
      case UnOp::Digamma: return digamma_approx(a);
      default: throw KernelError("unary operator not defined on this operand");
    }
  }

  // -------------------------------------------------------- array access ---
  Value eval_index(const OpIndex& o, const Env& env) const {
    const ArrayVal* a = &as_array(env.lookup(o.arr));
    ArrayVal view = *a;
    for (size_t k = 0; k < o.idx.size(); ++k) {
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= view.shape[0]) {
        throw ShapeError("index " + std::to_string(i) + " out of bounds for " +
                         env.name_of(o.arr) + " axis " + std::to_string(k) + " of extent " +
                         std::to_string(view.shape[0]));
      }
      if (view.rank() == 1) {
        // Final scalar element.
        assert(k + 1 == o.idx.size());
        return scalar_value(view.elem, view, i);
      }
      view = row_view(view, i);
    }
    return view;
  }

  Value eval_update(const OpUpdate& o, const Env& env) const {
    ArrayVal a = as_array(env.lookup(o.arr));  // +1 ref (env keeps one)
    ArrayVal dst = (a.whole() && a.buf.use_count() <= 2 + ring_refs(a)) ? a : compact_copy(a);
    int64_t off = 0;
    int64_t rows = dst.elems();
    for (size_t k = 0; k < o.idx.size(); ++k) {
      rows /= dst.shape[k];
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= dst.shape[k]) {
        throw ShapeError("update index " + std::to_string(i) + " out of bounds for " +
                         env.name_of(o.arr) + " axis " + std::to_string(k) + " of extent " +
                         std::to_string(dst.shape[k]));
      }
      off += i * rows;
    }
    Value v = eval_atom(o.v, env);
    if (is_array(v)) {
      copy_into(dst, off, as_array(v));
    } else {
      store_scalar(dst, off, v);
    }
    return dst;
  }

  Value eval_updacc(const OpUpdAcc& o, const Env& env) const {
    AccVal acc = as_acc(env.lookup(o.acc));
    ArrayVal& a = acc.arr;
    int64_t off = 0;
    int64_t rows = a.elems();
    for (size_t k = 0; k < o.idx.size(); ++k) {
      rows /= a.shape[k];
      const int64_t i = as_i64(eval_atom(o.idx[k], env));
      if (i < 0 || i >= a.shape[k]) return acc;  // out-of-bounds updates ignored
      off += i * rows;
    }
    Value v = eval_atom(o.v, env);
    uint64_t count = 1;
    if (is_array(v)) {
      const ArrayVal& src = as_array(v);
      count = static_cast<uint64_t>(src.elems());
      if (acc.atomic) {
        for (int64_t k = 0; k < src.elems(); ++k) atomic_add_f64(a, off + k, src.get_f64(k));
      } else {
        for (int64_t k = 0; k < src.elems(); ++k) plain_add_f64(a, off + k, src.get_f64(k));
      }
    } else if (acc.atomic) {
      atomic_add_f64(a, off, as_f64(v));
    } else {
      plain_add_f64(a, off, as_f64(v));
    }
    (acc.atomic ? stats_->atomic_updates : stats_->privatized_updates)
        .fetch_add(count, std::memory_order_relaxed);
    return acc;
  }

  // ---------------------------------------------------------------- loop ---
  //
  // `body_plan`, when set, is a planned for-loop's body plan: its extents are
  // provably loop-invariant, so the outermost planned loop installs the
  // loop-buffer ring and iteration 2+ scratch acquisitions all hit it.
  std::vector<Value> eval_loop(const OpLoop& o, Env& env, const Plan* body_plan = nullptr) const {
    const bool planned = body_plan != nullptr;
    if (planned) NPAD_FAULT_SITE("plan.step", FaultKind::Chunk);
    std::vector<Value> state;
    state.reserve(o.init.size());
    for (const auto& a : o.init) state.push_back(eval_atom(a, env));
    // One frame per loop, reused across iterations: params are rebound each
    // round and body bindings simply overwrite last round's slots.
    if (o.while_cond) {
      for (int64_t i = 0;; ++i) {
        std::vector<Value> c = apply(*o.while_cond, state, env);
        if (!as_bool(c[0])) break;
        Env it_env(env, o.activation_id.v);
        for (size_t k = 0; k < o.params.size(); ++k)
          it_env.bind(o.params[k].var, std::move(state[k]));
        try {
          NPAD_FAULT_SITE("loop.iter", FaultKind::Chunk);
          state = eval_body(*o.body, it_env);
        } catch (npad::Error& err) {
          err.add_context("in while-loop iteration " + std::to_string(i));
          throw;
        }
      }
      return state;
    }
    const int64_t n = as_i64(eval_atom(o.count, env));
    if (n <= 0) return state;
    HoistRingGuard ring(planned);
    HoistedLoopScope hoisted(planned);
    Env it_env(env, o.activation_id.v);
    for (int64_t i = 0; i < n; ++i) {
      if (o.idx.valid()) it_env.bind(o.idx, i);
      for (size_t k = 0; k < o.params.size(); ++k)
        it_env.bind(o.params[k].var, std::move(state[k]));
      try {
        NPAD_FAULT_SITE("loop.iter", FaultKind::Chunk);
        if (planned) NPAD_FAULT_SITE("plan.loop_iter", FaultKind::Chunk);
        state = eval_body(*o.body, it_env, body_plan);
      } catch (npad::Error& err) {
        err.add_context("in loop iteration " + std::to_string(i) + " of " + std::to_string(n));
        throw;
      }
    }
    return state;
  }

  // Launch-buffer allocation with pool accounting: buffers for kernel
  // outputs and map results are fully overwritten by the launch, so they take
  // the uninitialized path; privatized accumulators need the zero-fill.
  // Inside a planned loop or plan arena (tl_loop_ring set) buffers are
  // recycled from the thread-local ring instead of round-tripping the global
  // pool; the counter ticked records which mechanism earned the reuse.
  ArrayVal alloc_launch_buf(ScalarType t, std::vector<int64_t> shp, bool uninit) const {
    if (LoopBufRing* ring = tl_loop_ring) {
      if (ring->arena) {
        // Arena acquisitions are their own fault site: the arena is new
        // control flow whose unwind must restore the pool footprint.
        NPAD_FAULT_SITE("plan.arena_acquire", FaultKind::Alloc);
      }
      for (ArrayVal& e : ring->bufs) {
        if (e.elem == t && e.shape == shp && e.buf.use_count() == 1) {
          (tl_hoisted_loop_depth > 0 ? stats_->plan_hoisted_buffers : stats_->arena_reuses)
              .fetch_add(1, std::memory_order_relaxed);
          if (!uninit) {
            std::memset(e.buf->raw, 0, static_cast<size_t>(e.elems()) * scalar_bytes(t));
          }
          return e;
        }
      }
      bool hit = false;
      ArrayVal a = uninit ? ArrayVal::alloc_uninit(t, std::move(shp), &hit)
                          : ArrayVal::alloc(t, std::move(shp), &hit);
      (hit ? stats_->pool_hits : stats_->pool_misses).fetch_add(1, std::memory_order_relaxed);
      // Park a reference for later acquisitions (bounded: a runaway shape
      // mix must not pin unbounded memory for the ring's whole lifetime).
      if (ring->bufs.size() < 64) {
        ring->bufs.push_back(a);
        BufferPool::global().note_arena_park(1, a.buf ? a.buf->cap_bytes : 0);
      }
      return a;
    }
    bool hit = false;
    ArrayVal a = uninit ? ArrayVal::alloc_uninit(t, std::move(shp), &hit)
                        : ArrayVal::alloc(t, std::move(shp), &hit);
    (hit ? stats_->pool_hits : stats_->pool_misses).fetch_add(1, std::memory_order_relaxed);
    return a;
  }

  // ----------------------------------------------------------------- map ---
  //
  // `planned`, when set, is the kernel the statement's plan step pre-bound
  // (runtime/plan.hpp): it replaces the per-launch cache lookup, and a launch
  // through it counts as a plan launch.
  std::vector<Value> eval_map(const OpMap& o, Env& env, const Kernel* planned = nullptr) const {
    if (planned != nullptr) NPAD_FAULT_SITE("plan.step", FaultKind::Chunk);
    const Lambda& f = *o.f;
    if (o.fused > 0) stats_->fused_maps.fetch_add(o.fused, std::memory_order_relaxed);
    // Element inputs (non-acc) and threaded accumulator args.
    std::vector<ArrayVal> inputs;
    std::vector<Value> acc_args;
    int64_t n = -1;
    for (size_t i = 0; i < o.args.size(); ++i) {
      const Value& v = env.lookup(o.args[i]);
      if (f.params[i].type.is_acc) {
        acc_args.push_back(v);
      } else {
        const ArrayVal& a = as_array(v);
        if (n < 0) n = a.outer();
        if (a.outer() != n) {
          throw ShapeError("map arguments of unequal length: " + env.name_of(o.args[i]) +
                           " has extent " + std::to_string(a.outer()) + ", expected " +
                           std::to_string(n));
        }
        inputs.push_back(a);
      }
    }
    if (n < 0) throw TypeError("map without array argument");

    // Flattened nested execution (opt/flatten.cpp annotations): run the
    // whole nest as ONE launch instead of one inner launch per row. Empty
    // outer extents fall through so result shapes match the general path's
    // shape discovery; any other mismatch (non-rank-2 input, irregular
    // inner extent, non-kernelizable inner lambda, unbindable fold) also
    // falls through to the general nested path.
    if (o.flat != ir::FlatForm::None && acc_args.empty() && n > 0) {
      if (o.flat == ir::FlatForm::Inner && opts_.use_kernels) {
        if (auto r = run_flat_map(o, inputs, n, env)) return *r;
      } else if (o.flat == ir::FlatForm::SegRed) {
        if (auto r = run_segred(o, inputs, n, env)) return *r;
      }
    }

    if (opts_.use_kernels) {
      // Input ranks are validated in bind_map_launch against the kernel's
      // row-param table: rank-1 element inputs, rank-2 row-stream arguments.
      const Kernel* k = planned != nullptr ? planned : map_kernel_for(o.f);
      if (auto L = bind_map_launch(k, o, inputs, env)) {
        stats_->kernel_maps.fetch_add(1, std::memory_order_relaxed);
        if (planned != nullptr) stats_->plan_launches.fetch_add(1, std::memory_order_relaxed);
        return run_kernel(*L, f, o, n, env);
      }
    }
    stats_->general_maps.fetch_add(1, std::memory_order_relaxed);

    // General path: evaluate element 0 to learn result shapes.
    std::vector<Value> outs(f.rets.size());
    std::vector<ArrayVal> out_arrays(f.rets.size());
    auto elem_args = [&](int64_t i, const std::vector<Value>& accs) {
      std::vector<Value> args;
      args.reserve(f.params.size());
      size_t ai = 0, ci = 0;
      for (size_t k = 0; k < f.params.size(); ++k) {
        if (f.params[k].type.is_acc) {
          args.push_back(accs[ci++]);
        } else {
          const ArrayVal& a = inputs[ai++];
          if (a.rank() == 1) {
            args.push_back(scalar_value(a.elem, a, i));
          } else {
            args.push_back(row_view(a, i));
          }
        }
      }
      return args;
    };
    auto store_result = [&](int64_t i, std::vector<Value>& vals) {
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) continue;
        ArrayVal& dst = out_arrays[r];
        if (is_array(vals[r])) {
          const ArrayVal& src = as_array(vals[r]);
          copy_into(dst, i * src.elems(), src);
        } else {
          store_scalar(dst, i, vals[r]);
        }
      }
    };
    if (n == 0) {
      // Threaded accumulators pass through untouched (the lambda never ran);
      // they are returned in parameter order, the paper's threading
      // convention for accumulator results.
      size_t ci = 0;
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) {
          if (ci < acc_args.size()) outs[r] = acc_args[ci++];
          continue;
        }
        std::vector<int64_t> shp{0};
        for (int d = 0; d < f.rets[r].rank; ++d) shp.push_back(0);
        out_arrays[r] = ArrayVal::alloc(f.rets[r].elem, std::move(shp));
      }
    } else {
      const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
      const bool nested = support::ThreadPool::in_parallel_region();
      const bool fanout = opts_.parallel && threads > 1 && n > opts_.grain && !nested;
      // Accumulator atomicity for this launch: a fanned-out launch must use
      // atomic updates on every shared accumulator (even one privatized by an
      // enclosing sequential launch), while a launch that provably runs on
      // this thread alone can use plain adds throughout.
      std::vector<Value> base_accs = acc_args;
      for (auto& a : base_accs) {
        if (!is_acc(a)) continue;
        AccVal av = as_acc(a);
        if (fanout) {
          av.atomic = true;
        } else if (!nested && opts_.privatize_accs) {
          av.atomic = false;
        }
        a = av;
      }

      std::vector<Value> first = apply(f, elem_args(0, base_accs), env);
      for (size_t r = 0; r < f.rets.size(); ++r) {
        if (f.rets[r].is_acc) {
          // Return the caller's accumulator value (original atomicity), not
          // the launch-local flagged copy the lambda threaded through.
          outs[r] = first[r];
          if (is_acc(first[r])) {
            for (const auto& a : acc_args) {
              if (is_acc(a) && as_acc(a).arr.buf == as_acc(first[r]).arr.buf) {
                outs[r] = a;
                break;
              }
            }
          }
          continue;
        }
        std::vector<int64_t> shp{n};
        if (is_array(first[r])) {
          const auto& a = as_array(first[r]);
          shp.insert(shp.end(), a.shape.begin(), a.shape.end());
          out_arrays[r] = alloc_launch_buf(a.elem, std::move(shp), /*uninit=*/true);
        } else {
          ScalarType t = std::holds_alternative<double>(first[r])    ? ScalarType::F64
                         : std::holds_alternative<int64_t>(first[r]) ? ScalarType::I64
                                                                     : ScalarType::Bool;
          out_arrays[r] = alloc_launch_buf(t, std::move(shp), /*uninit=*/true);
        }
      }
      store_result(0, first);

      // Accumulator privatization: small accumulators get per-chunk private
      // zero-initialized copies updated with plain adds, tree-merged into the
      // destination after the launch; the rest stay atomic.
      std::vector<size_t> priv;
      const int64_t chunks =
          fanout ? std::min<int64_t>(threads, (n + opts_.grain - 1) / opts_.grain) : 1;
      if (fanout && opts_.privatize_accs && n >= opts_.privatize_min_iters) {
        int64_t budget = opts_.privatize_budget;
        for (size_t j = 0; j < base_accs.size(); ++j) {
          if (!is_acc(base_accs[j])) continue;
          const ArrayVal& a = as_acc(base_accs[j]).arr;
          if (a.elem != ScalarType::F64) continue;
          const int64_t cost = a.elems() * chunks;
          if (cost <= budget) {
            budget -= cost;
            priv.push_back(j);
          }
        }
      }
      if (priv.empty()) {
        const auto body = [&](int64_t lo, int64_t hi) {
          NPAD_FAULT_SITE("map.general_chunk", FaultKind::Chunk);
          // Per-chunk launch arena: each element's apply() drops its frame
          // when it returns, so per-element launch intermediates become
          // sole-owner and the next element reuses them instead of
          // round-tripping the pool once per element. On the caller thread
          // an enclosing ring (run arena or loop ring) already absorbs them.
          HoistRingGuard arena(opts_.use_plans, /*arena=*/true, /*scoped=*/true);
          for (int64_t i = std::max<int64_t>(lo, 1); i < hi; ++i) {
            std::vector<Value> vals = apply(f, elem_args(i, base_accs), env);
            store_result(i, vals);
          }
        };
        // Dispatch on the same `fanout` decision that chose the accumulator
        // atomicity above: a launch flagged non-atomic (no fan-out) must
        // never reach the pool, and a launch parallel_for would split must
        // always have been flagged atomic.
        if (fanout) {
          support::parallel_for(n, opts_.grain, body);
        } else {
          body(0, n);
        }
      } else {
        stats_->privatized_launches.fetch_add(1, std::memory_order_relaxed);
        std::vector<std::vector<Value>> chunk_accs(static_cast<size_t>(chunks), base_accs);
        std::vector<std::vector<ArrayVal>> priv_bufs(priv.size());
        for (size_t pj = 0; pj < priv.size(); ++pj) {
          const ArrayVal& dst = as_acc(base_accs[priv[pj]]).arr;
          priv_bufs[pj].reserve(static_cast<size_t>(chunks));
          for (int64_t c = 0; c < chunks; ++c) {
            ArrayVal buf = alloc_launch_buf(ScalarType::F64, dst.shape, /*uninit=*/false);
            chunk_accs[static_cast<size_t>(c)][priv[pj]] = AccVal{buf, /*atomic=*/false};
            priv_bufs[pj].push_back(std::move(buf));
          }
        }
        const int64_t per = (n + chunks - 1) / chunks;
        support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
          for (int64_t c = clo; c < chi; ++c) {
            NPAD_FAULT_SITE("map.general_priv_chunk", FaultKind::Chunk);
            HoistRingGuard arena(opts_.use_plans, /*arena=*/true, /*scoped=*/true);
            const int64_t lo = std::max<int64_t>(c * per, 1);
            const int64_t hi = std::min(n, (c + 1) * per);
            for (int64_t i = lo; i < hi; ++i) {
              std::vector<Value> vals = apply(f, elem_args(i, chunk_accs[static_cast<size_t>(c)]), env);
              store_result(i, vals);
            }
          }
        });
        for (size_t pj = 0; pj < priv.size(); ++pj) {
          ArrayVal dst = as_acc(base_accs[priv[pj]]).arr;
          merge_private(priv_bufs[pj], dst, opts_.grain);
        }
      }
    }
    for (size_t r = 0; r < f.rets.size(); ++r) {
      if (!f.rets[r].is_acc) outs[r] = out_arrays[r];
    }
    return outs;
  }

  // Stream guards (runtime/kernel.hpp): a kernel whose inline SOACs consume
  // stream arguments assumed shape facts the builder could not verify — the
  // rank of a bare free array, length agreement between the streams of one
  // fold. A binding that violates them must not launch: the general path
  // both raises the exact shape error for genuinely mismatched rows and
  // handles shape-polymorphic reuse of the lambda correctly.
  static bool stream_guards_ok(const Kernel& k, const std::vector<ArrayVal>& arrs) {
    for (const auto& g : k.stream_rank_guards) {
      if (static_cast<int32_t>(arrs[static_cast<size_t>(g.slot)].shape.size()) != g.rank) {
        return false;
      }
    }
    for (const auto& g : k.stream_len_guards) {
      const auto& a = arrs[static_cast<size_t>(g.slot_a)].shape;
      const auto& b = arrs[static_cast<size_t>(g.slot_b)].shape;
      if (static_cast<size_t>(g.dim_a) >= a.size() ||
          static_cast<size_t>(g.dim_b) >= b.size()) {
        return false;
      }
      if (a[static_cast<size_t>(g.dim_a)] != b[static_cast<size_t>(g.dim_b)]) return false;
    }
    return true;
  }

  // Looks up / compiles the map kernel for `f` through the process-wide
  // cache, whose immortal entries outlive every launch, including launches
  // from nested maps.
  const Kernel* map_kernel_for(const LambdaPtr& f) const {
    bool hit = false;
    const Kernel* k = KernelCache::global().get(f, &hit);
    (hit ? stats_->kernel_cache_hits : stats_->kernel_cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
    return k;
  }

  // Binds a map kernel's inputs, free variables and accumulators against the
  // environment; nullopt when there is no kernel or any binding has the
  // wrong shape.
  std::optional<KernelLaunch> bind_map_launch(const Kernel* k, const OpMap& o,
                                              const std::vector<ArrayVal>& inputs,
                                              const Env& env) const {
    if (k == nullptr) return std::nullopt;
    KernelLaunch L;
    L.k = k;
    // Partition the non-acc arguments: rank-1 element inputs take LoadElem
    // slots in order; rank-2 row arguments bind into the free-array slots
    // reserved by their row-stream params. Any other rank falls back.
    const auto& rows = k->row_param_slots;
    if (!rows.empty() && rows.size() != inputs.size()) return std::nullopt;
    std::vector<uint8_t> from_row(k->free_arrays.size(), 0);
    for (int32_t s : rows) {
      if (s >= 0) from_row[static_cast<size_t>(s)] = 1;
    }
    L.free_array_vals.resize(k->free_arrays.size());
    for (size_t j = 0; j < inputs.size(); ++j) {
      const int32_t s = rows.empty() ? -1 : rows[j];
      if (s < 0) {
        if (inputs[j].rank() != 1) return std::nullopt;
        L.inputs.push_back(inputs[j]);
      } else {
        if (inputs[j].rank() != 2) return std::nullopt;
        L.free_array_vals[static_cast<size_t>(s)] = inputs[j];
      }
    }
    for (ir::Var v : k->free_scalars) {
      const Value& val = env.lookup(v);
      if (is_array(val) || is_acc(val)) return std::nullopt;
      L.free_scalar_vals.push_back(as_f64(val));
    }
    for (size_t i = 0; i < k->free_arrays.size(); ++i) {
      if (from_row[i] != 0) continue;  // filled from the row arguments above
      const Value& val = env.lookup(k->free_arrays[i]);
      if (!is_array(val)) return std::nullopt;
      L.free_array_vals[i] = as_array(val);
    }
    if (!stream_guards_ok(*k, L.free_array_vals)) return std::nullopt;
    for (const auto& ab : k->accs) {
      Value val;
      if (ab.param_index >= 0) {
        val = env.lookup(o.args[static_cast<size_t>(ab.param_index)]);
      } else {
        val = env.lookup(ab.var);
      }
      if (!is_acc(val)) return std::nullopt;
      if (as_acc(val).arr.elem != ScalarType::F64) return std::nullopt;
      L.acc_array_vals.push_back(as_acc(val).arr);
    }
    return L;
  }

  // Attaches the vectorized-tier schedule to a bound launch (after lanes are
  // set — entries are keyed per (kernel, lane width)). Every launch kernel is
  // cache- or plan-owned and immortal, as the vexec cache's address keys
  // require. A null lookup (unsupported width, failed lowering) is a no-op.
  void attach_vexec(KernelLaunch& L) const {
    if (!opts_.use_vexec) return;
    const vexec::Entry* e = vexec::lookup(*L.k, L.lanes);
    if (e == nullptr) return;
    L.vx = e;
    L.vops = vexec::select_ops(opts_.vexec_portable);
    L.vexec_spans = &stats_->vexec_launches;
    stats_->vexec_superinstrs.fetch_add(static_cast<uint64_t>(e->superinstrs),
                                        std::memory_order_relaxed);
  }

  std::vector<Value> run_kernel(KernelLaunch& L, const Lambda& f, const OpMap& o, int64_t n,
                                const Env& env) const {
    const Kernel& k = *L.k;
    // Kernel outputs are fully overwritten (every iteration stores its
    // element), so they take the uninitialized pooled-allocation path.
    for (ScalarType t : k.out_elems) {
      L.outputs.push_back(alloc_launch_buf(t, {n}, /*uninit=*/true));
    }
    L.lanes = std::max(1, opts_.kernel_lanes);
    L.batched_spans = &stats_->batched_launches;
    attach_vexec(L);

    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const bool nested = support::ThreadPool::in_parallel_region();
    const bool fanout = opts_.parallel && threads > 1 && n > opts_.grain && !nested;
    const size_t naccs = k.accs.size();
    auto updates_of = [&](size_t s) {
      return static_cast<uint64_t>(k.acc_upd_counts[s]) * static_cast<uint64_t>(n);
    };

    if (!fanout) {
      // The whole launch runs on the calling thread. Outside any parallel
      // region no other worker can race on the accumulators, so updates can
      // be plain adds straight into the destination.
      if (naccs > 0) {
        const bool direct = !nested && opts_.privatize_accs;
        if (direct) L.acc_atomic.assign(naccs, 0);
        for (size_t s = 0; s < naccs; ++s) {
          (direct ? stats_->privatized_updates : stats_->atomic_updates)
              .fetch_add(updates_of(s), std::memory_order_relaxed);
        }
      }
      if (opts_.parallel) {
        support::parallel_for(n, opts_.grain, [&](int64_t lo, int64_t hi) {
          NPAD_FAULT_SITE("map.kernel_chunk", FaultKind::Chunk);
          L.run(lo, hi);
        });
      } else {
        NPAD_FAULT_SITE("map.kernel_chunk", FaultKind::Chunk);
        L.run(0, n);
      }
    } else {
      const int64_t chunks = std::min<int64_t>(threads, (n + opts_.grain - 1) / opts_.grain);
      std::vector<uint8_t> priv(naccs, 0);
      bool any_priv = false;
      if (opts_.privatize_accs && n >= opts_.privatize_min_iters) {
        int64_t budget = opts_.privatize_budget;
        for (size_t s = 0; s < naccs; ++s) {
          if (k.acc_upd_counts[s] == 0) continue;
          const int64_t cost = L.acc_array_vals[s].elems() * chunks;
          if (cost <= budget) {
            budget -= cost;
            priv[s] = 1;
            any_priv = true;
          }
        }
      }
      for (size_t s = 0; s < naccs; ++s) {
        if (k.acc_upd_counts[s] == 0) continue;
        (priv[s] ? stats_->privatized_updates : stats_->atomic_updates)
            .fetch_add(updates_of(s), std::memory_order_relaxed);
      }
      if (!any_priv) {
        support::parallel_for(n, opts_.grain, [&](int64_t lo, int64_t hi) {
          NPAD_FAULT_SITE("map.kernel_chunk", FaultKind::Chunk);
          L.run(lo, hi);
        });
      } else {
        stats_->privatized_launches.fetch_add(1, std::memory_order_relaxed);
        std::vector<uint8_t> atomic_flags(naccs);
        for (size_t s = 0; s < naccs; ++s) atomic_flags[s] = priv[s] ? 0 : 1;
        std::vector<KernelLaunch> launches(static_cast<size_t>(chunks), L);
        std::vector<std::vector<ArrayVal>> priv_bufs(naccs);
        for (size_t s = 0; s < naccs; ++s) {
          if (!priv[s]) continue;
          priv_bufs[s].reserve(static_cast<size_t>(chunks));
          for (int64_t c = 0; c < chunks; ++c) {
            ArrayVal buf = alloc_launch_buf(ScalarType::F64, L.acc_array_vals[s].shape,
                                            /*uninit=*/false);
            launches[static_cast<size_t>(c)].acc_array_vals[s] = buf;
            priv_bufs[s].push_back(std::move(buf));
          }
        }
        const int64_t per = (n + chunks - 1) / chunks;
        support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
          for (int64_t c = clo; c < chi; ++c) {
            NPAD_FAULT_SITE("map.kernel_priv_chunk", FaultKind::Chunk);
            auto& Lc = launches[static_cast<size_t>(c)];
            Lc.acc_atomic = atomic_flags;
            Lc.run(c * per, std::min(n, (c + 1) * per));
          }
        });
        for (size_t s = 0; s < naccs; ++s) {
          if (priv[s]) merge_private(priv_bufs[s], L.acc_array_vals[s], opts_.grain);
        }
      }
    }

    std::vector<Value> outs;
    size_t oi = 0;
    for (size_t r = 0; r < f.rets.size(); ++r) {
      const int32_t slot = k.ret_acc_slot[r];
      if (slot >= 0) {
        const auto& ab = k.accs[static_cast<size_t>(slot)];
        if (ab.param_index >= 0) {
          outs.push_back(env.lookup(o.args[static_cast<size_t>(ab.param_index)]));
        } else {
          outs.push_back(env.lookup(ab.var));
        }
      } else {
        outs.push_back(L.outputs[oi++]);
      }
    }
    return outs;
  }

  // ---------------------------------------------------- flattened nests ---
  //
  // Execution of the opt/flatten.cpp annotations (ir/ast.hpp FlatForm). The
  // flattener guarantees the *structure* (perfect nest, scalar inner lambda,
  // args = outer row params, free variables from the enclosing scope only);
  // the runtime still re-checks everything value-dependent — input ranks,
  // inner-extent regularity, kernel compilability, free-variable binding —
  // and returns nullopt to fall back to the general nested path.

  // Shared by both flat drivers: validates that every launch input is
  // rank-2 with a common inner extent, then routes each inner-SOAC argument
  // (an outer row param) to the rank-1 flat view of the corresponding
  // launch input. Returns the common inner extent m, or nullopt to fall
  // back to the general nested path.
  static std::optional<int64_t> flatten_inputs(const Lambda& f,
                                               const std::vector<Var>& inner_args,
                                               const std::vector<ArrayVal>& inputs,
                                               int64_t n, std::vector<ArrayVal>& flat) {
    int64_t m = -1;
    for (const auto& a : inputs) {
      if (a.rank() != 2) return std::nullopt;
      if (m < 0) m = a.shape[1];
      if (a.shape[1] != m) return std::nullopt;
    }
    if (m < 0) return std::nullopt;
    flat.reserve(inner_args.size());
    for (Var q : inner_args) {
      size_t pi = f.params.size();
      for (size_t i = 0; i < f.params.size(); ++i) {
        if (f.params[i].var == q) {
          pi = i;
          break;
        }
      }
      if (pi >= inputs.size()) return std::nullopt;
      ArrayVal v = inputs[pi];
      v.shape = {n * m};
      flat.push_back(std::move(v));
    }
    return m;
  }

  // FlatForm::Inner: map(λrow. map(g, row…)) over rank-2 inputs runs as one
  // compiled-kernel launch over the fused n·m extent. Rank-2 inputs are
  // dense row-major views, so the rank-1 reinterpretation is free; outputs
  // are allocated flat and reshaped to rank-2 in place. Map kernels are
  // element-wise pure, so batch boundaries straddling rows cannot change
  // results: parallel-off output is bit-identical to per-row launches.
  std::optional<std::vector<Value>> run_flat_map(const OpMap& o,
                                                 const std::vector<ArrayVal>& inputs,
                                                 int64_t n, const Env& env) const {
    const Lambda& f = *o.f;
    const auto* im = std::get_if<OpMap>(&f.body.stms[0].e);
    if (im == nullptr) return std::nullopt;
    std::vector<ArrayVal> flat;
    const std::optional<int64_t> mo = flatten_inputs(f, im->args, inputs, n, flat);
    if (!mo) return std::nullopt;
    const int64_t m = *mo;
    // Compile/bind the inner scalar lambda exactly like a rank-1 map launch
    // (same cache, so a previously-launched inner map reuses its kernel).
    const Kernel* k = map_kernel_for(im->f);
    if (k == nullptr || !k->accs.empty() || !k->row_param_slots.empty()) return std::nullopt;
    auto bound = bind_acc_free_launch(k, flat, {}, env);
    if (!bound) return std::nullopt;
    KernelLaunch& L = *bound;
    const int64_t total = n * m;
    for (ScalarType t : k->out_elems) {
      L.outputs.push_back(alloc_launch_buf(t, {total}, /*uninit=*/true));
    }
    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const bool fanout = opts_.parallel && threads > 1 && total > opts_.grain &&
                        !support::ThreadPool::in_parallel_region();
    if (fanout) {
      support::parallel_for(total, opts_.grain, [&](int64_t lo, int64_t hi) {
        NPAD_FAULT_SITE("map.flat_chunk", FaultKind::Chunk);
        L.run(lo, hi);
      });
    } else {
      NPAD_FAULT_SITE("map.flat_chunk", FaultKind::Chunk);
      L.run(0, total);
    }
    stats_->flattened_maps.fetch_add(1, std::memory_order_relaxed);
    if (im->fused > 0) stats_->fused_maps.fetch_add(im->fused, std::memory_order_relaxed);
    std::vector<Value> outs;
    outs.reserve(f.rets.size());
    for (size_t r = 0; r < f.rets.size(); ++r) {
      ArrayVal a = L.outputs[r];
      a.shape = {n, m};
      outs.push_back(std::move(a));
    }
    return outs;
  }

  // FlatForm::SegRed: map(λrow. reduce/redomap(op, ne, row…)) runs as a
  // segmented reduction, parallel over segments. A combinable single-input
  // f64 fold takes a hand-rolled segmented loop that mirrors eval_reduce's
  // tier 1 exactly (so parallel-off results are bit-identical to per-row
  // hand folds); every other kernelizable fold reuses the compiled reduce
  // artifact (KernelCache::get_reduce — the same cache entry the per-row
  // path would use) through KernelLaunch::run_segred_chunk, whose
  // per-segment folding replicates run_reduce's lane blocking for the same
  // bit-exactness guarantee.
  std::optional<std::vector<Value>> run_segred(const OpMap& o,
                                               const std::vector<ArrayVal>& inputs,
                                               int64_t n, const Env& env) const {
    const Lambda& f = *o.f;
    const auto* red = std::get_if<OpReduce>(&f.body.stms[0].e);
    if (red == nullptr) return std::nullopt;
    std::vector<ArrayVal> flat;
    const std::optional<int64_t> mo = flatten_inputs(f, red->args, inputs, n, flat);
    if (!mo) return std::nullopt;
    const int64_t m = *mo;

    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const int64_t total = n * m;
    const bool fanout = opts_.parallel && threads > 1 && total > opts_.grain &&
                        !support::ThreadPool::in_parallel_region();
    // Segmented parallelism is across segments only. A tall-skinny nest —
    // fewer segments than workers, each wide enough to chunk — would cap
    // the launch at n workers, losing the intra-row parallelism the
    // per-row kernel reduces of the general path fan out with; let the
    // general path keep it. (Parallel-off execution never gets here, so
    // the bit-exactness contract is unaffected.)
    if (fanout && n < threads && m >= 2 * opts_.grain) return std::nullopt;
    std::vector<Value> neutral;
    neutral.reserve(red->neutral.size());
    for (const auto& a : red->neutral) neutral.push_back(eval_atom(a, env));

    // grain is calibrated in elements; segments carry m elements each.
    const int64_t seg_grain = std::max<int64_t>(1, opts_.grain / std::max<int64_t>(1, m));

    // Hand tier: the same recognizer and combine loop as eval_reduce tier 1,
    // one segment at a time.
    const std::optional<BinOp> bop =
        red->pre ? std::optional<BinOp>{} : recognize_binop(*red->op);
    if (bop && combinable_f64(*bop) && flat.size() == 1 &&
        flat[0].elem == ScalarType::F64 && neutral.size() == 1 && !is_array(neutral[0]) &&
        !is_acc(neutral[0])) {
      const BinOp cb = *bop;
      const double ne = as_f64(neutral[0]);
      ArrayVal out = alloc_launch_buf(ScalarType::F64, {n}, /*uninit=*/true);
      const double* in = flat[0].buf->f64() + flat[0].offset;
      double* op = out.buf->f64();
      const int64_t seg = m;
      auto body = [&](int64_t slo, int64_t shi) {
        NPAD_FAULT_SITE("segred.hand_chunk", FaultKind::Chunk);
        for (int64_t s = slo; s < shi; ++s) {
          double acc = ne;
          const double* p = in + s * seg;
          for (int64_t i = 0; i < seg; ++i) acc = combine_f64(cb, acc, p[i]);
          op[s] = acc;
        }
      };
      if (fanout) {
        support::parallel_for(n, seg_grain, body);
      } else {
        body(0, n);
      }
      stats_->segred_launches.fetch_add(1, std::memory_order_relaxed);
      stats_->segred_segments.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      return std::vector<Value>{out};
    }

    // Kernel tier.
    if (!opts_.use_kernels) return std::nullopt;
    const Kernel* k = reduce_kernel_for(red->op, red->pre, /*scan=*/false);
    auto L = bind_acc_free_launch(k, flat, neutral, env);
    if (!L) return std::nullopt;
    for (size_t j = 0; j < k->reds.size(); ++j) {
      L->outputs.push_back(alloc_launch_buf(red->op->rets[j].elem, {n}, /*uninit=*/true));
    }
    if (fanout) {
      support::parallel_for(n, seg_grain, [&](int64_t lo, int64_t hi) {
        NPAD_FAULT_SITE("segred.kernel_chunk", FaultKind::Chunk);
        L->run_segred_chunk(lo, hi, m);
      });
    } else {
      NPAD_FAULT_SITE("segred.kernel_chunk", FaultKind::Chunk);
      L->run_segred_chunk(0, n, m);
    }
    stats_->segred_launches.fetch_add(1, std::memory_order_relaxed);
    stats_->segred_segments.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
    if (red->fused > 0) stats_->fused_reduces.fetch_add(red->fused, std::memory_order_relaxed);
    std::vector<Value> outs;
    outs.reserve(L->outputs.size());
    for (auto& a : L->outputs) outs.push_back(a);
    return outs;
  }

  // -------------------------------------------------------------- reduce ---
  //
  // Three tiers, fastest first:
  //  1. hand-rolled loop for a plain single rank-1 f64 reduce with a
  //     combinable operator (no VM dispatch beats the register machine);
  //  2. compiled reduction kernel — arbitrary kernelizable scalar fold
  //     bodies, with a redomap pre-lambda compiled into the same program so
  //     fused reduce(op, map(f, xs)) runs load→map→fold in one batched
  //     loop with zero intermediate arrays;
  //  3. the general interpreter (now also the redomap fallback: the
  //     pre-lambda is applied per element before the fold).

  // Binds an accumulator-free kernel's inputs and free variables against the
  // environment; nullopt when the input count or a free variable's shape is
  // wrong. Reduction/scan kernels are acc-free by construction
  // (runtime/kernel.cpp); run_flat_map checks its inner map kernel.
  std::optional<KernelLaunch> bind_acc_free_launch(const Kernel* k,
                                                 const std::vector<ArrayVal>& inputs,
                                                 const std::vector<Value>& neutral,
                                                 const Env& env) const {
    if (k == nullptr || inputs.size() != k->num_inputs) return std::nullopt;
    KernelLaunch L;
    L.k = k;
    L.inputs = inputs;
    for (ir::Var v : k->free_scalars) {
      const Value& val = env.lookup(v);
      if (is_array(val) || is_acc(val)) return std::nullopt;
      L.free_scalar_vals.push_back(as_f64(val));
    }
    for (ir::Var v : k->free_arrays) {
      const Value& val = env.lookup(v);
      if (!is_array(val)) return std::nullopt;
      L.free_array_vals.push_back(as_array(val));
    }
    if (!stream_guards_ok(*k, L.free_array_vals)) return std::nullopt;
    L.red_neutral.reserve(neutral.size());
    for (const auto& v : neutral) {
      if (is_array(v) || is_acc(v)) return std::nullopt;
      L.red_neutral.push_back(as_f64(v));
    }
    L.lanes = std::max(1, opts_.kernel_lanes);
    L.batched_spans = &stats_->batched_launches;
    attach_vexec(L);
    return L;
  }

  // Looks up / compiles the reduction kernel for (op, pre, scan) through the
  // process-wide cache.
  const Kernel* reduce_kernel_for(const LambdaPtr& op, const LambdaPtr& pre, bool scan) const {
    bool hit = false;
    const Kernel* k = KernelCache::global().get_reduce(op, pre, scan, &hit);
    (hit ? stats_->kernel_cache_hits : stats_->kernel_cache_misses)
        .fetch_add(1, std::memory_order_relaxed);
    return k;
  }

  // Converts a kernel partial back to a typed scalar Value.
  static Value partial_value(ScalarType t, double v) {
    switch (t) {
      case ScalarType::F64: return v;
      case ScalarType::I64: return static_cast<int64_t>(v);
      case ScalarType::Bool: return v != 0.0;
    }
    return v;
  }

  std::vector<Value> eval_reduce(const OpReduce& o, Env& env) const {
    const Lambda& op = *o.op;
    std::vector<ArrayVal> arrs;
    arrs.reserve(o.args.size());
    for (auto v : o.args) arrs.push_back(as_array(env.lookup(v)));
    const int64_t n = arrs[0].outer();
    for (size_t j = 0; j < arrs.size(); ++j) {
      if (arrs[j].outer() != n) {
        throw ShapeError("reduce arguments of unequal length: " + env.name_of(o.args[j]) +
                         " has extent " + std::to_string(arrs[j].outer()) + ", expected " +
                         std::to_string(n));
      }
    }
    std::vector<Value> neutral;
    for (const auto& a : o.neutral) neutral.push_back(eval_atom(a, env));
    if (o.fused > 0) stats_->fused_reduces.fetch_add(o.fused, std::memory_order_relaxed);

    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const bool fanout = opts_.parallel && n >= 2 * opts_.grain && threads > 1 &&
                        !support::ThreadPool::in_parallel_region();
    const int64_t chunks =
        fanout ? std::min<int64_t>(threads, (n + opts_.grain - 1) / opts_.grain) : 1;
    const int64_t per = (n + chunks - 1) / chunks;

    // Tier 1: the hand-rolled combinable-binop loop already runs at memory
    // speed; do not route it through the register machine.
    const std::optional<BinOp> plain_bop =
        o.pre ? std::optional<BinOp>{} : recognize_binop(op);
    const bool hand_fast = plain_bop && combinable_f64(*plain_bop) && o.args.size() == 1 &&
                           arrs[0].rank() == 1 && arrs[0].elem == ScalarType::F64;

    // Tier 2: compiled reduction kernel.
    bool rank1 = true;
    for (const auto& a : arrs) rank1 = rank1 && a.rank() == 1;
    if (opts_.use_kernels && !hand_fast && rank1) {
      const Kernel* k = reduce_kernel_for(o.op, o.pre, /*scan=*/false);
      if (auto L = bind_acc_free_launch(k, arrs, neutral, env)) {
        stats_->kernel_reduces.fetch_add(1, std::memory_order_relaxed);
        const size_t nred = k->reds.size();
        std::vector<double> partials = L->red_neutral;
        if (chunks <= 1) {
          NPAD_FAULT_SITE("reduce.kernel_chunk", FaultKind::Chunk);
          L->run_reduce(0, n, partials.data());
        } else {
          std::vector<std::vector<double>> cp(static_cast<size_t>(chunks), partials);
          support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
            for (int64_t c = clo; c < chi; ++c) {
              NPAD_FAULT_SITE("reduce.kernel_chunk", FaultKind::Chunk);
              L->run_reduce(c * per, std::min(n, (c + 1) * per),
                            cp[static_cast<size_t>(c)].data());
            }
          });
          // Chunk partials tree-merge pairwise through the fold subprogram,
          // the same shape as merge_private — but each partial is only k
          // scalars, so the merge runs on the calling thread.
          NPAD_FAULT_SITE("reduce.partial_merge", FaultKind::Chunk);
          for (size_t stride = 1; stride < cp.size(); stride *= 2) {
            for (size_t i = 0; i + stride < cp.size(); i += 2 * stride) {
              L->combine_partials(cp[i].data(), cp[i + stride].data());
            }
          }
          partials = std::move(cp[0]);
        }
        std::vector<Value> outs;
        outs.reserve(nred);
        for (size_t j = 0; j < nred; ++j) {
          outs.push_back(partial_value(op.rets[j].elem, partials[j]));
        }
        return outs;
      }
    }

    // Tier 3: general interpreter fold (and tier 1's hand loop per chunk).
    // The hand tier reports its own counter so bench JSON can tell the
    // hand / kernel / general tiers apart.
    (hand_fast ? stats_->hand_reduces : stats_->general_reduces)
        .fetch_add(1, std::memory_order_relaxed);
    auto elem = [&](size_t j, int64_t i) -> Value {
      const ArrayVal& a = arrs[j];
      if (a.rank() == 1) return scalar_value(a.elem, a, i);
      return row_view(a, i);
    };
    auto fold_range = [&](int64_t lo, int64_t hi, std::vector<Value> acc) {
      NPAD_FAULT_SITE("reduce.general_chunk", FaultKind::Chunk);
      if (hand_fast) {
        double acc0 = as_f64(acc[0]);
        const double* p = arrs[0].buf->f64() + arrs[0].offset;
        for (int64_t i = lo; i < hi; ++i) acc0 = combine_f64(*plain_bop, acc0, p[i]);
        acc[0] = acc0;
        return acc;
      }
      for (int64_t i = lo; i < hi; ++i) {
        // Move the accumulator through the argument list (no per-iteration
        // vector copy) and reserve the full fold arity once per iteration.
        std::vector<Value> args = std::move(acc);
        args.reserve(op.params.size());
        if (o.pre) {
          std::vector<Value> pargs;
          pargs.reserve(arrs.size());
          for (size_t j = 0; j < arrs.size(); ++j) pargs.push_back(elem(j, i));
          std::vector<Value> es = apply(*o.pre, std::move(pargs), env);
          for (auto& e : es) args.push_back(std::move(e));
        } else {
          for (size_t j = 0; j < arrs.size(); ++j) args.push_back(elem(j, i));
        }
        acc = apply(op, std::move(args), env);
      }
      return acc;
    };

    if (chunks <= 1) return fold_range(0, n, std::move(neutral));
    std::vector<std::vector<Value>> partial(static_cast<size_t>(chunks));
    support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
      for (int64_t c = clo; c < chi; ++c) {
        const int64_t lo = c * per, hi = std::min(n, lo + per);
        partial[static_cast<size_t>(c)] = fold_range(lo, hi, neutral);
      }
    });
    std::vector<Value> acc = std::move(partial[0]);
    for (size_t c = 1; c < partial.size(); ++c) {
      std::vector<Value> args = std::move(acc);
      for (auto& v : partial[c]) args.push_back(std::move(v));
      acc = apply(op, std::move(args), env);
    }
    return acc;
  }

  // ---------------------------------------------------------------- scan ---
  //
  // Two tiers: the compiled scan kernel, then the general interpreter. There
  // is no hand-binop tier as reduce has: plain + * min max scans compile to
  // a kernel like any other fold, and with parallelism off that kernel folds
  // sequentially from the neutral element. The kernel tier is blocked in
  // three phases: phase 1 scans each chunk sequentially (seeded with the
  // neutral element) and records its carry, phase 2 prefix-folds the
  // carries, phase 3 rescales every non-first chunk by its prefix. Phases 1
  // and 3 run through the compiled program (phase 1 is the full program on
  // the strictly sequential scalar engine; phase 3 re-enters the fold
  // subprogram per element), so fused scan-of-map never materializes the
  // mapped intermediate either.
  std::vector<Value> eval_scan(const OpScan& o, Env& env) const {
    const Lambda& op = *o.op;
    std::vector<ArrayVal> arrs;
    arrs.reserve(o.args.size());
    for (auto v : o.args) arrs.push_back(as_array(env.lookup(v)));
    const int64_t n = arrs[0].outer();
    for (size_t j = 0; j < arrs.size(); ++j) {
      if (arrs[j].outer() != n) {
        throw ShapeError("scan arguments of unequal length: " + env.name_of(o.args[j]) +
                         " has extent " + std::to_string(arrs[j].outer()) + ", expected " +
                         std::to_string(n));
      }
    }
    std::vector<Value> neutral;
    for (const auto& a : o.neutral) neutral.push_back(eval_atom(a, env));
    const size_t kres = neutral.size();  // fold results (= outputs)
    if (o.fused > 0) stats_->fused_scans.fetch_add(o.fused, std::memory_order_relaxed);

    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const bool blocked = opts_.parallel && threads > 1 && n >= 4 * opts_.grain &&
                         !support::ThreadPool::in_parallel_region();
    const int64_t chunks =
        blocked ? std::min<int64_t>(threads, (n + opts_.grain - 1) / opts_.grain) : 1;
    const int64_t per = (n + chunks - 1) / chunks;

    // Tier 1: compiled scan kernel (phase 1 + phase 3 on the register
    // machine; strictly sequential per chunk — scans are order-dependent).
    bool rank1 = true;
    for (const auto& a : arrs) rank1 = rank1 && a.rank() == 1;
    if (opts_.use_kernels && rank1) {
      const Kernel* k = reduce_kernel_for(o.op, o.pre, /*scan=*/true);
      if (auto L = bind_acc_free_launch(k, arrs, neutral, env)) {
        stats_->kernel_scans.fetch_add(1, std::memory_order_relaxed);
        for (ScalarType t : k->out_elems) {
          L->outputs.push_back(alloc_launch_buf(t, {n}, /*uninit=*/true));
        }
        if (chunks <= 1) {
          NPAD_FAULT_SITE("scan.kernel_chunk", FaultKind::Chunk);
          std::vector<double> carry = L->red_neutral;
          L->run_scan_chunk(0, n, carry.data());
        } else {
          std::vector<std::vector<double>> carries(static_cast<size_t>(chunks),
                                                   L->red_neutral);
          support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
            for (int64_t c = clo; c < chi; ++c) {
              NPAD_FAULT_SITE("scan.kernel_chunk", FaultKind::Chunk);
              L->run_scan_chunk(c * per, std::min(n, (c + 1) * per),
                                carries[static_cast<size_t>(c)].data());
            }
          });
          std::vector<std::vector<double>> prefixes(static_cast<size_t>(chunks));
          std::vector<double> run = L->red_neutral;
          for (int64_t c = 0; c < chunks; ++c) {
            prefixes[static_cast<size_t>(c)] = run;
            L->combine_partials(run.data(), carries[static_cast<size_t>(c)].data());
          }
          support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
            for (int64_t c = clo; c < chi; ++c) {
              if (c == 0) continue;  // chunk 0 already started from neutral
              NPAD_FAULT_SITE("scan.kernel_rescale", FaultKind::Chunk);
              L->scan_rescale(c * per, std::min(n, (c + 1) * per),
                              prefixes[static_cast<size_t>(c)].data());
            }
          });
        }
        std::vector<Value> res;
        for (auto& a : L->outputs) res.push_back(a);
        return res;
      }
    }

    // Tier 2: general sequential scan (redomap fallback applies the
    // pre-lambda per element). Output buffers are allocated from the first
    // computed accumulator — with a pre-lambda the result types need not
    // match the argument types — and are fully overwritten, so they take
    // the uninitialized pooled path.
    stats_->general_scans.fetch_add(1, std::memory_order_relaxed);
    NPAD_FAULT_SITE("scan.general", FaultKind::Chunk);
    std::vector<ArrayVal> outs(kres);
    if (n == 0) {
      for (size_t j = 0; j < kres; ++j) {
        if (!o.pre) {
          // Plain form: the output mirrors the argument's shape (inner
          // extents included) even when empty.
          outs[j] = ArrayVal::alloc(arrs[j].elem, arrs[j].shape);
          continue;
        }
        // Redomap form: the fold-result inner extents are unobservable with
        // no elements; zero them.
        std::vector<int64_t> shp{0};
        for (int d = 0; d < op.rets[j].rank; ++d) shp.push_back(0);
        outs[j] = ArrayVal::alloc(op.rets[j].elem, std::move(shp));
      }
    }
    std::vector<Value> acc = std::move(neutral);
    for (int64_t i = 0; i < n; ++i) {
      std::vector<Value> args = std::move(acc);
      args.reserve(op.params.size());
      if (o.pre) {
        std::vector<Value> pargs;
        pargs.reserve(arrs.size());
        for (size_t j = 0; j < arrs.size(); ++j) {
          const ArrayVal& a = arrs[j];
          pargs.push_back(a.rank() == 1 ? scalar_value(a.elem, a, i) : Value(row_view(a, i)));
        }
        std::vector<Value> es = apply(*o.pre, std::move(pargs), env);
        for (auto& e : es) args.push_back(std::move(e));
      } else {
        for (size_t j = 0; j < arrs.size(); ++j) {
          const ArrayVal& a = arrs[j];
          args.push_back(a.rank() == 1 ? scalar_value(a.elem, a, i) : Value(row_view(a, i)));
        }
      }
      acc = apply(op, std::move(args), env);
      for (size_t j = 0; j < kres; ++j) {
        if (i == 0) {
          std::vector<int64_t> shp{n};
          if (is_array(acc[j])) {
            const auto& a = as_array(acc[j]);
            shp.insert(shp.end(), a.shape.begin(), a.shape.end());
            outs[j] = alloc_launch_buf(a.elem, std::move(shp), /*uninit=*/true);
          } else {
            outs[j] = alloc_launch_buf(op.rets[j].elem, std::move(shp), /*uninit=*/true);
          }
        }
        if (is_array(acc[j])) {
          copy_into(outs[j], i * as_array(acc[j]).elems(), as_array(acc[j]));
        } else {
          store_scalar(outs[j], i, acc[j]);
        }
      }
    }
    std::vector<Value> res;
    for (auto& a : outs) res.push_back(a);
    return res;
  }

  // ---------------------------------------------------------------- hist ---
  //
  // Generalized histograms (reduce_by_index), tiered like reduce:
  //  1. hand-rolled combinable-binop loop over scalar f64 bins. Sequential
  //     when the launch must not fan out (opts_.parallel off, one worker,
  //     nested region, small n); per-chunk private subhistograms seeded with
  //     the neutral element and merged into the destination in chunk order
  //     (each chunk is a contiguous element block, so per-bin update order
  //     is preserved — associativity suffices) when the m x chunks
  //     footprint fits privatize_budget; atomic-CAS updates straight into
  //     the shared destination otherwise (combinable binops are
  //     commutative, so arbitrary interleaving is sound).
  //  2. compiled kernel for arbitrary kernelizable combine lambdas and the
  //     fused histomap pre-lambda — the same compiled artifact (and cache
  //     entry) as the reduce form of the fold. Privatized subhistograms
  //     merge bin-wise through the fold subprogram. There is no atomic
  //     fallback here: an arbitrary fold is not known to be commutative, so
  //     an over-budget destination runs the strictly sequential kernel loop.
  //  3. the strictly sequential general interpreter for everything else
  //     (vector bins, non-f64 destinations, non-kernelizable operators),
  //     applying the pre-lambda per element when present.
  Value eval_hist(const OpHist& o, Env& env) const {
    const Lambda& op = *o.op;
    ArrayVal dest0 = as_array(env.lookup(o.dest));
    ArrayVal dest = (dest0.whole() && dest0.buf.use_count() <= 2 + ring_refs(dest0))
                        ? dest0
                        : compact_copy(dest0);
    const ArrayVal inds = as_array(env.lookup(o.inds));
    const ArrayVal vals = as_array(env.lookup(o.vals));
    const int64_t n = inds.outer();
    const int64_t m = dest.outer();
    const int64_t row = dest.rank() > 1 ? dest.row_elems() : 1;
    if (o.fused > 0) stats_->fused_hists.fetch_add(o.fused, std::memory_order_relaxed);

    const auto threads = static_cast<int64_t>(support::ThreadPool::global().thread_count());
    const bool fanout = opts_.parallel && threads > 1 && n > opts_.grain &&
                        !support::ThreadPool::in_parallel_region();
    const int64_t chunks =
        fanout ? std::min<int64_t>(threads, (n + opts_.grain - 1) / opts_.grain) : 1;
    const int64_t per = (n + chunks - 1) / chunks;
    const bool privat = fanout && opts_.privatize_accs && n >= opts_.privatize_min_iters &&
                        m * row * chunks <= opts_.privatize_budget;

    // Allocates the per-chunk private subhistograms, every bin seeded with
    // the fold's neutral element (pool buffers are recycled, so the fill is
    // always explicit).
    auto alloc_subhists = [&](double neutral) {
      std::vector<ArrayVal> subs;
      subs.reserve(static_cast<size_t>(chunks));
      for (int64_t c = 0; c < chunks; ++c) {
        ArrayVal s = alloc_launch_buf(ScalarType::F64, dest.shape, /*uninit=*/true);
        std::fill_n(s.buf->f64(), m, neutral);
        subs.push_back(std::move(s));
      }
      return subs;
    };

    // Tier 1: hand-rolled combinable binop over scalar f64 bins.
    const std::optional<BinOp> bop = o.pre ? std::optional<BinOp>{} : recognize_binop(op);
    if (bop && combinable_f64(*bop) && dest.rank() == 1 && dest.elem == ScalarType::F64 &&
        vals.elem == ScalarType::F64) {
      stats_->general_hists.fetch_add(1, std::memory_order_relaxed);
      const BinOp cb = *bop;
      double* d = dest.buf->f64() + dest.offset;
      auto fold_range = [&](double* bins, int64_t lo, int64_t hi) {
        NPAD_FAULT_SITE("hist.hand_chunk", FaultKind::Chunk);
        int64_t performed = 0;
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t b = inds.get_i64(i);
          if (b < 0 || b >= m) continue;
          bins[b] = combine_f64(cb, bins[b], vals.get_f64(i));
          ++performed;
        }
        return performed;
      };
      if (!fanout) {
        // Bit-exact sequential semantics: the W=1 / parallel-off contract.
        stats_->privatized_hist_updates.fetch_add(static_cast<uint64_t>(fold_range(d, 0, n)),
                                                  std::memory_order_relaxed);
        return dest;
      }
      if (privat) {
        std::vector<ArrayVal> subs = alloc_subhists(as_f64(eval_atom(o.neutral, env)));
        std::atomic<int64_t> performed{0};
        support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
          for (int64_t c = clo; c < chi; ++c) {
            performed.fetch_add(fold_range(subs[static_cast<size_t>(c)].buf->f64(), c * per,
                                           std::min(n, (c + 1) * per)),
                                std::memory_order_relaxed);
          }
        });
        stats_->privatized_hist_updates.fetch_add(
            static_cast<uint64_t>(performed.load()), std::memory_order_relaxed);
        // Bin-parallel merge; per bin the chunks combine in element order.
        NPAD_FAULT_SITE("hist.merge", FaultKind::Chunk);
        support::parallel_for(m, opts_.grain, [&](int64_t lo, int64_t hi) {
          for (int64_t b = lo; b < hi; ++b) {
            double acc = d[b];
            for (const auto& s : subs) acc = combine_f64(cb, acc, s.buf->f64()[b]);
            d[b] = acc;
          }
        });
        return dest;
      }
      // Atomic-CAS fallback for destinations too large to privatize.
      std::atomic<int64_t> performed{0};
      support::parallel_for(n, opts_.grain, [&](int64_t lo, int64_t hi) {
        NPAD_FAULT_SITE("hist.atomic_chunk", FaultKind::Chunk);
        int64_t local = 0;
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t b = inds.get_i64(i);
          if (b < 0 || b >= m) continue;
          atomic_combine_f64(cb, d + b, vals.get_f64(i));
          ++local;
        }
        performed.fetch_add(local, std::memory_order_relaxed);
      });
      stats_->atomic_hist_updates.fetch_add(static_cast<uint64_t>(performed.load()),
                                            std::memory_order_relaxed);
      return dest;
    }

    // Tier 2: compiled combine kernel (scalar f64 bins, []i64 inds).
    if (opts_.use_kernels && dest.rank() == 1 && dest.elem == ScalarType::F64 &&
        vals.rank() == 1 && inds.elem == ScalarType::I64) {
      const Kernel* k = reduce_kernel_for(o.op, o.pre, /*scan=*/false);
      std::vector<Value> neutral{eval_atom(o.neutral, env)};
      if (auto L = bind_acc_free_launch(k, {vals}, neutral, env)) {
        stats_->kernel_hists.fetch_add(1, std::memory_order_relaxed);
        double* d = dest.buf->f64() + dest.offset;
        const int64_t* ip = inds.buf->i64() + inds.offset;
        if (!privat) {
          // Sequential kernel loop (also the over-budget path: arbitrary
          // folds have no atomic fallback).
          NPAD_FAULT_SITE("hist.kernel_chunk", FaultKind::Chunk);
          stats_->privatized_hist_updates.fetch_add(
              static_cast<uint64_t>(L->run_hist_chunk(0, n, d, m, ip)),
              std::memory_order_relaxed);
          return dest;
        }
        std::vector<ArrayVal> subs = alloc_subhists(L->red_neutral[0]);
        std::atomic<int64_t> performed{0};
        support::parallel_for(chunks, 1, [&](int64_t clo, int64_t chi) {
          for (int64_t c = clo; c < chi; ++c) {
            NPAD_FAULT_SITE("hist.kernel_chunk", FaultKind::Chunk);
            performed.fetch_add(L->run_hist_chunk(c * per, std::min(n, (c + 1) * per),
                                                  subs[static_cast<size_t>(c)].buf->f64(), m,
                                                  ip),
                                std::memory_order_relaxed);
          }
        });
        stats_->privatized_hist_updates.fetch_add(
            static_cast<uint64_t>(performed.load()), std::memory_order_relaxed);
        // Bin-parallel merge through the fold subprogram, chunks in order.
        NPAD_FAULT_SITE("hist.kernel_merge", FaultKind::Chunk);
        support::parallel_for(m, opts_.grain, [&](int64_t lo, int64_t hi) {
          for (const auto& s : subs) L->fold_bins(d + lo, s.buf->f64() + lo, hi - lo);
        });
        return dest;
      }
    }

    // Tier 3: strictly sequential general path (applies the histomap
    // pre-lambda per element when present).
    stats_->general_hists.fetch_add(1, std::memory_order_relaxed);
    NPAD_FAULT_SITE("hist.general", FaultKind::Chunk);
    int64_t performed = 0;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t b = inds.get_i64(i);
      if (b < 0 || b >= m) continue;
      Value cur = dest.rank() == 1 ? scalar_value(dest.elem, dest, b) : Value(row_view(dest, b));
      Value v = vals.rank() == 1 ? scalar_value(vals.elem, vals, i) : Value(row_view(vals, i));
      if (o.pre) v = apply(*o.pre, {std::move(v)}, env)[0];
      std::vector<Value> r = apply(op, {cur, v}, env);
      if (is_array(r[0])) {
        copy_into(dest, b * row, as_array(r[0]));
      } else {
        store_scalar(dest, b, r[0]);
      }
      ++performed;
    }
    stats_->privatized_hist_updates.fetch_add(static_cast<uint64_t>(performed),
                                              std::memory_order_relaxed);
    return dest;
  }

  // ------------------------------------------------------------- scatter ---
  Value eval_scatter(const OpScatter& o, Env& env) const {
    ArrayVal dest0 = as_array(env.lookup(o.dest));
    ArrayVal dest = (dest0.whole() && dest0.buf.use_count() <= 2 + ring_refs(dest0))
                        ? dest0
                        : compact_copy(dest0);
    const ArrayVal inds = as_array(env.lookup(o.inds));
    const ArrayVal vals = as_array(env.lookup(o.vals));
    const int64_t n = inds.outer();
    const int64_t m = dest.outer();
    const int64_t row = dest.rank() > 1 ? dest.row_elems() : 1;
    const auto body = [&](int64_t lo, int64_t hi) {
      NPAD_FAULT_SITE("scatter.chunk", FaultKind::Chunk);
      for (int64_t i = lo; i < hi; ++i) {
        const int64_t b = inds.get_i64(i);
        if (b < 0 || b >= m) continue;
        if (dest.rank() == 1) {
          store_scalar(dest, b, scalar_value(vals.elem, vals, i));
        } else {
          copy_into(dest, b * row, row_view(vals, i));
        }
      }
    };
    if (opts_.parallel) {
      support::parallel_for(n, opts_.grain, body);
    } else {
      body(0, n);
    }
    return dest;
  }

  // ------------------------------------------------------------- withacc ---
  std::vector<Value> eval_withacc(const OpWithAcc& o, Env& env) const {
    NPAD_FAULT_SITE("withacc.body", FaultKind::Chunk);
    const Lambda& f = *o.f;
    std::vector<Value> args;
    for (Var a : o.arrs) {
      ArrayVal arr = as_array(env.lookup(a));
      ArrayVal owned =
          (arr.whole() && arr.buf.use_count() <= 2 + ring_refs(arr)) ? arr : compact_copy(arr);
      args.push_back(AccVal{std::move(owned)});
    }
    std::vector<Value> res = apply(f, std::move(args), env);
    std::vector<Value> out;
    for (size_t i = 0; i < res.size(); ++i) {
      if (i < o.arrs.size()) {
        out.push_back(as_acc(res[i]).arr);
      } else {
        out.push_back(std::move(res[i]));
      }
    }
    return out;
  }

  // Lambda-body plan table of the resolved program being run (nullptr when
  // plans are off): set once by Interp::run_resolved before evaluation
  // starts, read by apply() on every application. The table is immutable
  // after plan compilation, so concurrent readers need no synchronization.
  void set_lambda_plans(const ProgPlans& plans) { lambda_plans_ = &plans.lambdas; }

private:
  InterpOptions opts_;
  InterpStats* stats_;
  const std::unordered_map<const Lambda*, std::unique_ptr<const Plan>>* lambda_plans_ = nullptr;
};

} // namespace

void Interp::check_arg_count(const ir::Function& fn, size_t nargs) {
  if (nargs != fn.params.size()) {
    throw TypeError("program expects " + std::to_string(fn.params.size()) +
                    " arguments, got " + std::to_string(nargs));
  }
}

std::shared_ptr<const ResolvedProg> Interp::lookup(const ir::Prog& p) const {
  bool hashed = false;
  auto rp = ProgCache::global().get(p, &hashed);
  if (hashed) stats_.prog_hashes.fetch_add(1, std::memory_order_relaxed);
  return rp;
}

std::vector<Value> Interp::run(const ir::Prog& p, const std::vector<Value>& args) const {
  check_arg_count(p.fn, args.size());
  // Slot-resolve (cached process-wide): the interpreter evaluates the
  // alpha-renamed clone, whose variables index flat frames.
  return run_resolved(*lookup(p), args);
}

std::vector<Value> Interp::run_resolved(const ResolvedProg& rp,
                                        const std::vector<Value>& args) const {
  EvalCtx ctx(*this);
  Env env(rp, rp.root_activation);
  for (size_t i = 0; i < args.size(); ++i) env.bind(rp.fn.params[i].var, args[i]);
  // Compiled execution plans (runtime/plan.hpp): lowered once per resolved
  // program, inside its entry. Plans pre-bind map kernels from the kernel
  // cache, so they are only sound to execute when kernels are enabled.
  if (opts_.use_plans && opts_.use_kernels) {
    uint64_t compiled = 0;
    const ProgPlans& plans = plans_of(rp, &compiled);
    if (compiled > 0) stats_.plans_compiled.fetch_add(compiled, std::memory_order_relaxed);
    ctx.set_lambda_plans(plans);
    // The run-level launch arena: liveness releases make straight-line and
    // branchy plan intermediates sole-owner mid-run, so this ring recycles
    // them exactly like the loop ring recycles loop scratch. Installed
    // inside the run (not around it): an unwinding fault tears it down and
    // restores the pool footprint before the error reaches the caller.
    HoistRingGuard arena(/*enable=*/true, /*arena=*/true);
    return ctx.eval_body(rp.fn.body, env, plans.top.get());
  }
  return ctx.eval_body(rp.fn.body, env);
}

std::vector<Value> run_prog(const ir::Prog& p, const std::vector<Value>& args,
                            InterpOptions opts) {
  Interp in(opts);
  return in.run(p, args);
}

} // namespace npad::rt
