#include "runtime/batch.hpp"

#include <string>

#include "ir/typecheck.hpp"
#include "ir/visit.hpp"
#include "opt/flatten.hpp"
#include "runtime/interp.hpp"
#include "runtime/resolve.hpp"
#include "support/error.hpp"

namespace npad::rt {

using ir::ScalarType;

// ------------------------------------------------------- program lifting ---

ir::Prog make_batched_prog(const ir::Prog& p) {
  const ir::Function& fn = p.fn;
  if (fn.params.empty()) {
    throw TypeError("cannot batch zero-argument program '" + fn.name + "'");
  }
  for (const auto& pr : fn.params) {
    if (pr.type.is_acc) {
      throw TypeError("cannot batch program '" + fn.name +
                      "' with accumulator-typed parameters");
    }
  }
  for (const auto& rt : fn.rets) {
    if (rt.is_acc) {
      throw TypeError("cannot batch program '" + fn.name +
                      "' with accumulator-typed results");
    }
  }

  ir::Prog out;
  // Copy the module: old vars keep their names, lifted params get fresh ones.
  out.mod = std::make_shared<ir::Module>(*p.mod);
  ir::Module& m = *out.mod;

  // The original body becomes the map lambda; refresh so its bindings cannot
  // collide with the stacked-parameter vars introduced below.
  ir::Cloner cloner(m, /*refresh=*/true);
  ir::Subst subst;
  ir::Lambda lam;
  lam.rets = fn.rets;
  lam.params.reserve(fn.params.size());
  for (const auto& pr : fn.params) {
    lam.params.push_back(ir::Param{cloner.bind_in(pr.var, subst), pr.type});
  }
  lam.body = cloner.body(fn.body, std::move(subst));

  ir::Function bf;
  bf.name = fn.name + "__batched";
  std::vector<ir::Var> margs;
  bf.params.reserve(fn.params.size());
  margs.reserve(fn.params.size());
  for (const auto& pr : fn.params) {
    const std::string base = m.name(pr.var) + "_stk";
    ir::Var bv = m.fresh(base);
    bf.params.push_back(ir::Param{bv, ir::lift(pr.type)});
    margs.push_back(bv);
  }
  bf.rets.reserve(fn.rets.size());
  for (const auto& rt : fn.rets) bf.rets.push_back(ir::lift(rt));

  ir::OpMap mp;
  mp.f = ir::make_lambda(std::move(lam));
  mp.args = std::move(margs);

  ir::Stm st;
  st.types = bf.rets;
  st.vars.reserve(bf.rets.size());
  for (size_t i = 0; i < bf.rets.size(); ++i) {
    st.vars.push_back(m.fresh("bres" + std::to_string(i)));
  }
  bf.body.result.reserve(st.vars.size());
  for (ir::Var v : st.vars) bf.body.result.push_back(ir::Atom(v));
  st.e = std::move(mp);
  bf.body.stms.push_back(std::move(st));

  out.fn = std::move(bf);
  ir::typecheck(out);
  // Re-derive flattening over the new outer map: a program whose whole body
  // is one SOAC becomes a single collapsed/segmented launch over the stacked
  // axis instead of one inner launch per request.
  out = opt::flatten_nested(out);
  ir::typecheck(out);
  return out;
}

// -------------------------------------------------------- stack / unstack --

namespace {

ScalarType value_scalar_type(const Value& v) {
  if (std::holds_alternative<double>(v)) return ScalarType::F64;
  if (std::holds_alternative<int64_t>(v)) return ScalarType::I64;
  return ScalarType::Bool;
}

std::string shape_str(const std::vector<int64_t>& s) {
  std::string out = "[";
  for (size_t i = 0; i < s.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(s[i]);
  }
  return out + "]";
}

} // namespace

std::vector<Value> stack_args(const std::vector<std::vector<Value>>& batch) {
  const int64_t b = static_cast<int64_t>(batch.size());
  if (b == 0) throw TypeError("stack_args: empty batch");
  const size_t arity = batch[0].size();
  for (const auto& req : batch) {
    if (req.size() != arity) {
      throw TypeError("stack_args: request arity mismatch (" +
                      std::to_string(req.size()) + " vs " + std::to_string(arity) + ")");
    }
  }

  std::vector<Value> out;
  out.reserve(arity);
  for (size_t j = 0; j < arity; ++j) {
    const Value& v0 = batch[0][j];
    if (is_acc(v0)) {
      throw TypeError("stack_args: accumulator arguments cannot batch (arg " +
                      std::to_string(j) + ")");
    }
    if (is_array(v0)) {
      const ArrayVal& a0 = as_array(v0);
      std::vector<int64_t> shape;
      shape.reserve(a0.shape.size() + 1);
      shape.push_back(b);
      shape.insert(shape.end(), a0.shape.begin(), a0.shape.end());
      ArrayVal stk = ArrayVal::alloc_uninit(a0.elem, std::move(shape));
      const int64_t row = a0.elems();
      for (int64_t i = 0; i < b; ++i) {
        if (!is_array(batch[i][j])) {
          throw TypeError("stack_args: arg " + std::to_string(j) +
                          " is an array in request 0 but a scalar in request " +
                          std::to_string(i));
        }
        const ArrayVal& ai = as_array(batch[i][j]);
        if (ai.elem != a0.elem) {
          throw TypeError("stack_args: arg " + std::to_string(j) +
                          " element type differs across requests");
        }
        if (ai.shape != a0.shape) {
          throw ShapeError("stack_args: arg " + std::to_string(j) + " shape " +
                           shape_str(ai.shape) + " in request " + std::to_string(i) +
                           " differs from " + shape_str(a0.shape));
        }
        copy_into(stk, i * row, ai);
      }
      out.push_back(std::move(stk));
    } else {
      const ScalarType t = value_scalar_type(v0);
      // Scalars must be zero-filled only when never read before write —
      // every lane is written below, so uninit is fine.
      ArrayVal stk = ArrayVal::alloc_uninit(t, {b});
      for (int64_t i = 0; i < b; ++i) {
        const Value& vi = batch[i][j];
        if (is_array(vi) || is_acc(vi) || value_scalar_type(vi) != t) {
          throw TypeError("stack_args: arg " + std::to_string(j) +
                          " scalar type differs across requests");
        }
        store_scalar(stk, i, vi);
      }
      out.push_back(std::move(stk));
    }
  }
  return out;
}

std::vector<std::vector<Value>> unstack_results(const std::vector<Value>& stacked,
                                                int64_t batch,
                                                const std::vector<ir::Type>& orig_rets) {
  if (stacked.size() != orig_rets.size()) {
    throw TypeError("unstack_results: " + std::to_string(stacked.size()) +
                    " stacked results for " + std::to_string(orig_rets.size()) +
                    " declared result types");
  }
  std::vector<std::vector<Value>> out(static_cast<size_t>(batch));
  for (auto& req : out) req.reserve(stacked.size());
  for (size_t j = 0; j < stacked.size(); ++j) {
    if (!is_array(stacked[j])) {
      throw TypeError("unstack_results: stacked result " + std::to_string(j) +
                      " is not an array");
    }
    const ArrayVal& sa = as_array(stacked[j]);
    if (sa.outer() != batch) {
      throw ShapeError("unstack_results: stacked result " + std::to_string(j) +
                       " has outer extent " + std::to_string(sa.outer()) +
                       " for batch of " + std::to_string(batch));
    }
    if (orig_rets[j].rank == 0) {
      for (int64_t i = 0; i < batch; ++i) {
        out[static_cast<size_t>(i)].push_back(scalar_value(sa.elem, sa, i));
      }
    } else {
      // Compact per-request copies: responses must not alias the shared
      // stacked buffer (it returns to the pool when the batch completes).
      for (int64_t i = 0; i < batch; ++i) {
        out[static_cast<size_t>(i)].push_back(compact_copy(row_view(sa, i)));
      }
    }
  }
  return out;
}

// ------------------------------------------------------ batched execution --

std::vector<std::vector<Value>> Interp::run_batched(
    const ir::Prog& p, const std::vector<std::vector<Value>>& batch) const {
  stats_.batched_prog_requests.fetch_add(batch.size(), std::memory_order_relaxed);
  if (batch.empty()) return {};
  if (batch.size() == 1) return {run(p, batch[0])};

  // One lookup: the batched form lives in the original's entry.
  std::shared_ptr<const ResolvedProg> rp = lookup(p);
  const ResolvedProg& bp = rp->batched.get([&] {
    return resolve_prog(make_batched_prog(ir::Prog{rp->mod, rp->fn}));
  });
  std::vector<Value> stacked = stack_args(batch);
  check_arg_count(p.fn, stacked.size());
  std::vector<Value> outs = run_resolved(bp, stacked);
  stats_.batched_prog_runs.fetch_add(1, std::memory_order_relaxed);
  return unstack_results(outs, static_cast<int64_t>(batch.size()), p.fn.rets);
}

} // namespace npad::rt
