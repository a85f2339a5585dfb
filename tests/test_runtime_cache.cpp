// Tests for the runtime hot-path machinery: the process-wide kernel cache
// (structural-hash keying, free-scalar rebinding, nested-map lifetime), the
// program cache entries (shared resolution, plans and batched forms, the
// per-thread memo that spares repeat lookups the structural hash), the
// privatized-accumulator launches, and the slot-resolved environments
// (shadowing, nested scopes, loop frame reuse).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "core/ad.hpp"
#include "ir/builder.hpp"
#include "ir/typecheck.hpp"
#include "runtime/interp.hpp"
#include "runtime/kernel_cache.hpp"
#include "runtime/resolve.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using namespace npad;
using namespace npad::ir;
using namespace npad::rt;

// map (\x -> x*c + sin(c) + 7.25) xs — c stays a free scalar of the kernel,
// so one cached kernel must serve launches with different bindings of c.
Prog scaled_map_prog() {
  ProgBuilder pb("scaled_map");
  Var c = pb.param("c", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& k, const std::vector<Var>& p) {
                          Var t = k.add(k.mul(p[0], c), k.add(k.sin(c), cf64(7.25)));
                          return std::vector<Atom>{Atom(t)};
                        }),
                  {xs});
  return pb.finish({Atom(ys)});
}

TEST(KernelCache, HitServesDifferentFreeScalarBindings) {
  Prog p = scaled_map_prog();
  typecheck(p);
  ArrayVal xs = make_f64_array({1.0, 2.0, 3.0, 4.0}, {4});

  // Plans pre-bind the kernel pointer at plan-compile time and never consult
  // the cache per launch; disable them to exercise the per-launch hit path.
  InterpOptions opts;
  opts.use_plans = false;
  Interp in(opts);
  auto r1 = in.run(p, {2.0, xs});
  auto r2 = in.run(p, {-3.5, xs});

  for (int64_t i = 0; i < 4; ++i) {
    const double x = 1.0 + static_cast<double>(i);
    EXPECT_DOUBLE_EQ(as_array(r1[0]).get_f64(i), x * 2.0 + std::sin(2.0) + 7.25);
    EXPECT_DOUBLE_EQ(as_array(r2[0]).get_f64(i), x * -3.5 + std::sin(-3.5) + 7.25);
  }
  // Both launches took the kernel path; the second reused the cached kernel.
  EXPECT_EQ(in.stats().kernel_maps.load(), 2u);
  EXPECT_GE(in.stats().kernel_cache_hits.load(), 1u);
}

TEST(KernelCache, StructurallyIdenticalProgsShareResolution) {
  Prog p1 = scaled_map_prog();
  Prog p2 = scaled_map_prog();  // fresh module, same structure
  typecheck(p1);
  typecheck(p2);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});

  Interp in;
  auto r1 = in.run(p1, {4.0, xs});
  const size_t progs_before = ProgCache::global().size();
  const size_t kernels_before = KernelCache::global().size();
  auto r2 = in.run(p2, {4.0, xs});
  EXPECT_EQ(ProgCache::global().size(), progs_before);
  EXPECT_EQ(KernelCache::global().size(), kernels_before);
  for (int64_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(as_array(r1[0]).get_f64(i), as_array(r2[0]).get_f64(i));
  }

  // Batched runs build the batched form (and its plans) inside the shared
  // entry: no entry of their own, and the second program finds the first
  // one's batched plans already compiled.
  InterpOptions seq;
  seq.parallel = false;
  ArrayVal zs = make_f64_array({-2.0, 3.25}, {2});
  const std::vector<std::vector<Value>> batch = {{4.0, xs}, {-1.5, zs}, {0.25, xs}};
  Interp b1(seq), b2(seq), ref(seq);
  auto s1 = b1.run_batched(p1, batch);
  auto s2 = b2.run_batched(p2, batch);
  EXPECT_EQ(ProgCache::global().size(), progs_before);
  EXPECT_EQ(b1.stats().batched_prog_runs.load(), 1u);
  EXPECT_EQ(b2.stats().plans_compiled.load(), 0u) << "batched plans compiled twice";
  ASSERT_EQ(s1.size(), batch.size());
  ASSERT_EQ(s2.size(), batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    const ArrayVal want = as_array(ref.run(p1, batch[r])[0]);
    for (const auto* got : {&s1[r], &s2[r]}) {
      const ArrayVal& g = as_array((*got)[0]);
      ASSERT_EQ(g.shape, want.shape);
      for (int64_t i = 0; i < 2; ++i) EXPECT_EQ(g.get_f64(i), want.get_f64(i)) << r << "," << i;
    }
  }
}

// Programs that cannot batch, and batches of the wrong arity, throw a
// TypeError on every call: a failed build of the batched form leaves the
// entry unbuilt rather than poisoned, and plain runs keep working.
TEST(ProgCache, BatchRejectionsThrowEveryTime) {
  ProgBuilder z("zero_args");
  Prog zero = z.finish({Atom(z.body().add(cf64(1.0), cf64(2.0)))});
  typecheck(zero);

  ProgBuilder a("acc_arg");
  Var x = a.param("x", f64());
  a.param("acc", acc_of(arr_f64(1)));
  Prog acc = a.finish({Atom(a.body().mul(x, cf64(2.0)))});
  typecheck(acc);

  Prog scaled = scaled_map_prog();
  typecheck(scaled);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});
  const Value acc_arg = AccVal{make_f64_array({0.0}, {1})};

  Interp in;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(in.run_batched(zero, {{}, {}}), npad::TypeError) << attempt;
    EXPECT_THROW(in.run_batched(acc, {{1.0, acc_arg}, {2.0, acc_arg}}), npad::TypeError)
        << attempt;
    EXPECT_THROW(in.run_batched(scaled, {{xs}, {xs}, {xs}}), npad::TypeError) << attempt;
  }
  EXPECT_DOUBLE_EQ(as_f64(in.run(zero, {})[0]), 3.0);
  EXPECT_DOUBLE_EQ(as_f64(in.run(acc, {3.0, acc_arg})[0]), 6.0);
  EXPECT_DOUBLE_EQ(as_array(in.run(scaled, {2.0, xs})[0]).get_f64(0),
                   0.5 * 2.0 + std::sin(2.0) + 7.25);
}

// Regression for the pre-cache lifetime hazard: a nested kernel launch used
// to clear the thread-local vector keeping the outer launch's kernel alive.
// Outer map is general-path (rank-1 rows), inner maps are kernel-compiled.
TEST(KernelCache, NestedMapsKeepKernelsAlive) {
  ProgBuilder pb("nested");
  Var c = pb.param("c", f64());
  Var m = pb.param("m", arr_f64(2));
  Builder& b = pb.body();
  Var rows = b.map1(b.lam({arr_f64(1)},
                          [&](Builder& outer, const std::vector<Var>& rp) {
                            Var sq = outer.map1(
                                outer.lam({f64()},
                                          [&](Builder& inner, const std::vector<Var>& ip) {
                                            Var t = inner.mul(inner.mul(ip[0], ip[0]), c);
                                            return std::vector<Atom>{Atom(t)};
                                          }),
                                {rp[0]});
                            Var s = outer.reduce1(outer.add_op(), cf64(0.0), {sq});
                            return std::vector<Atom>{Atom(s)};
                          }),
                    {m});
  Prog p = pb.finish({Atom(rows)});
  typecheck(p);

  ArrayVal mat = make_f64_array({1, 2, 3, 4, 5, 6}, {2, 3});
  auto r = run_prog(p, {2.0, mat});
  const ArrayVal& out = as_array(r[0]);
  EXPECT_DOUBLE_EQ(out.get_f64(0), (1.0 + 4.0 + 9.0) * 2.0);
  EXPECT_DOUBLE_EQ(out.get_f64(1), (16.0 + 25.0 + 36.0) * 2.0);
}

// One cache lookup serves every kernel form: the map kernel of a lambda and
// the reduce and scan kernels of the same lambda as a fold operator are
// three distinct entries, and a structurally identical lambda aliases all
// three without compiling anything.
TEST(KernelCache, FormsOfOneLambdaStayDistinct) {
  auto fma_lam = [](Builder& b) {
    return b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
      return std::vector<Atom>{Atom(c.add(c.mul(p[0], p[1]), cf64(0.125)))};
    });
  };
  ProgBuilder pb("forms");
  Builder& b = pb.body();
  const LambdaPtr f = fma_lam(b);
  const LambdaPtr g = fma_lam(b);  // a second, structurally identical lambda

  KernelCache& kc = KernelCache::global();
  const size_t before = kc.size();
  const Kernel* map_k = kc.get(f);
  const Kernel* red_k = kc.get_reduce(f, nullptr, /*scan=*/false);
  const Kernel* scan_k = kc.get_reduce(f, nullptr, /*scan=*/true);
  ASSERT_NE(map_k, nullptr);
  ASSERT_NE(red_k, nullptr);
  ASSERT_NE(scan_k, nullptr);
  EXPECT_NE(map_k, red_k);
  EXPECT_NE(map_k, scan_k);
  EXPECT_NE(red_k, scan_k);
  EXPECT_EQ(kc.size(), before + 3);

  bool hit = false;
  EXPECT_EQ(kc.get(g, &hit), map_k);
  EXPECT_TRUE(hit);
  EXPECT_EQ(kc.get_reduce(g, nullptr, /*scan=*/false, &hit), red_k);
  EXPECT_TRUE(hit);
  EXPECT_EQ(kc.get_reduce(g, nullptr, /*scan=*/true, &hit), scan_k);
  EXPECT_TRUE(hit);
  EXPECT_EQ(kc.size(), before + 3);
}

// f(xs, is) = sum_j xs[is_j]^2; its vjp accumulates 2*xs[i]*seed into the
// xs adjoint through an accumulator — the contended-histogram pattern.
Prog gather_sq_prog() {
  ProgBuilder pb("gather_sq");
  Var xs = pb.param("xs", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  Var e = b.map1(b.lam({i64()},
                       [&](Builder& c, const std::vector<Var>& p) {
                         Var v = c.index(xs, {Atom(p[0])});
                         return std::vector<Atom>{Atom(c.mul(v, v))};
                       }),
                 {is});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {e});
  return pb.finish({Atom(s)});
}

TEST(PrivatizedAccumulators, MatchAtomicGradientsOnVjpHistogram) {
  Prog p = gather_sq_prog();
  typecheck(p);
  Prog grad = ad::vjp(p);
  typecheck(grad);

  const int64_t n = 100000, m = 64;
  support::Rng rng(7);
  std::vector<Value> args = {make_f64_array(rng.normal_vec(static_cast<size_t>(m)), {m}),
                             make_i64_array(rng.index_vec(static_cast<size_t>(n), m), {n}), 1.0};

  InterpOptions atomic_opts;
  atomic_opts.privatize_accs = false;
  atomic_opts.grain = 512;  // force fan-out on multi-core machines
  InterpOptions priv_opts = atomic_opts;
  priv_opts.privatize_accs = true;
  priv_opts.privatize_min_iters = 1024;

  Interp atomic_in(atomic_opts);
  Interp priv_in(priv_opts);
  auto ra = atomic_in.run(grad, args);
  auto rp = priv_in.run(grad, args);

  ASSERT_EQ(ra.size(), rp.size());
  const ArrayVal& ga = as_array(ra[1]);
  const ArrayVal& gp = as_array(rp[1]);
  ASSERT_EQ(ga.elems(), m);
  ASSERT_EQ(gp.elems(), m);
  for (int64_t i = 0; i < m; ++i) {
    EXPECT_NEAR(ga.get_f64(i), gp.get_f64(i), 1e-12 * std::max(1.0, std::fabs(ga.get_f64(i))));
  }
  EXPECT_GT(priv_in.stats().privatized_updates.load(), 0u);
  EXPECT_GT(atomic_in.stats().atomic_updates.load(), 0u);
  EXPECT_EQ(atomic_in.stats().privatized_updates.load(), 0u);
}

// Zero-extent maps must still thread accumulators through (regression: the
// n==0 branch used to drop acc results, crashing the enclosing withacc).
TEST(PrivatizedAccumulators, EmptyMapThreadsAccumulatorThrough) {
  Prog p = gather_sq_prog();
  typecheck(p);
  Prog grad = ad::vjp(p);
  std::vector<Value> args = {make_f64_array({1.0, 2.0, 3.0}, {3}), make_i64_array({}, {0}), 1.0};
  auto r = run_prog(grad, args);
  const ArrayVal& g = as_array(r[1]);
  ASSERT_EQ(g.elems(), 3);
  for (int64_t i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(g.get_f64(i), 0.0);
}

// ------------------------------------------------- repeat-lookup memo ---

// Lookups of one unchanged Prog object hash it once per thread: runs and
// stacked runs alike find its entry through the memo.
TEST(ProgCache, RepeatedRunsOfOneProgHashOnce) {
  const Prog p = scaled_map_prog();  // a fresh lambda: the memo cannot know it
  typecheck(p);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});
  InterpOptions seq;
  seq.parallel = false;
  Interp in(seq);
  for (int i = 0; i < 5; ++i) in.run(p, {static_cast<double>(i), xs});
  for (int i = 0; i < 2; ++i) in.run_batched(p, {{1.0, xs}, {2.0, xs}, {3.0, xs}});
  EXPECT_EQ(in.stats().prog_hashes.load(), 1u);
  EXPECT_EQ(in.stats().batched_prog_runs.load(), 2u);
}

// scaled_map_prog's signature with the map body x * x (c unused).
Prog squared_map_prog() {
  ProgBuilder pb("squared_map");
  pb.param("c", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& k, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(k.mul(p[0], p[0]))};
                        }),
                  {xs});
  return pb.finish({Atom(ys)});
}

// r = (x + a) * b with constants a, b at the top level.
Prog affine_prog(double a, double b) {
  ProgBuilder pb("affine");
  Var x = pb.param("x", f64());
  Builder& bb = pb.body();
  Var r = bb.mul(Atom(bb.add(x, cf64(a))), cf64(b));
  return pb.finish({Atom(r)});
}

// Edits in place to a program the memo holds must miss it: a replaced
// top-level statement, a flipped constant sign and a swapped nested lambda
// each change the result of the very next run.
TEST(ProgCache, EditedProgramIsNotAStaleHit) {
  Prog p = affine_prog(1.0, 3.0);
  typecheck(p);
  Interp in;
  EXPECT_EQ(as_f64(in.run(p, {2.0})[0]), 9.0);
  EXPECT_EQ(as_f64(in.run(p, {2.0})[0]), 9.0);

  Stm& add = p.fn.body.stms[0];
  add.e = OpBin{BinOp::Sub, std::get<OpBin>(add.e).a, cf64(1.0)};  // (x - 1) * 3
  EXPECT_EQ(as_f64(in.run(p, {2.0})[0]), 3.0);

  // (x - 1) * b with b = 0.0, then -0.0: the sign of a zero result follows.
  std::get<OpBin>(p.fn.body.stms[1].e).b = cf64(0.0);
  EXPECT_FALSE(std::signbit(as_f64(in.run(p, {2.0})[0])));
  std::get<OpBin>(p.fn.body.stms[1].e).b = cf64(-0.0);
  EXPECT_TRUE(std::signbit(as_f64(in.run(p, {2.0})[0])));

  // The map's lambda replaced by the one of a program built the same way
  // but squaring instead: the top-level statement differs only by pointer.
  Prog m = scaled_map_prog();
  typecheck(m);
  ArrayVal xs = make_f64_array({3.0}, {1});
  EXPECT_EQ(as_array(in.run(m, {2.0, xs})[0]).get_f64(0), 3.0 * 2.0 + std::sin(2.0) + 7.25);
  std::get<OpMap>(m.fn.body.stms[0].e).f =
      std::get<OpMap>(squared_map_prog().fn.body.stms[0].e).f;
  EXPECT_EQ(as_array(in.run(m, {2.0, xs})[0]).get_f64(0), 9.0);
}

// A different program assigned to the same variable lives at the same
// address; the memo must not hand back the old one's entry.
TEST(ProgCache, ReassignedVariableRunsTheNewProgram) {
  Interp in;
  Prog p = affine_prog(1.0, 3.0);
  EXPECT_EQ(as_f64(in.run(p, {2.0})[0]), 9.0);
  p = affine_prog(-1.0, 5.0);
  EXPECT_EQ(as_f64(in.run(p, {2.0})[0]), 5.0);
  p = scaled_map_prog();
  EXPECT_EQ(as_array(in.run(p, {1.0, make_f64_array({2.0}, {1})})[0]).get_f64(0),
            2.0 + std::sin(1.0) + 7.25);
  EXPECT_EQ(in.stats().prog_hashes.load(), 3u);
}

// A copy at another address misses the memo but still finds the shared
// structural entry: no new ProgCache entry.
TEST(ProgCache, IdenticalCopyAtAnotherAddressSharesEntry) {
  const Prog p = scaled_map_prog();
  typecheck(p);
  ArrayVal xs = make_f64_array({0.5, 1.5}, {2});
  Interp in;
  const double want = as_array(in.run(p, {4.0, xs})[0]).get_f64(1);
  const size_t progs_before = ProgCache::global().size();
  const Prog copy = p;
  EXPECT_EQ(as_array(in.run(copy, {4.0, xs})[0]).get_f64(1), want);
  EXPECT_EQ(ProgCache::global().size(), progs_before);
  EXPECT_EQ(in.stats().prog_hashes.load(), 2u);
}

// Four threads interleave runs of two programs, each thread through its own
// memo; every result is bit-identical to a sequential run.
TEST(ProgCache, ConcurrentRunsOfTwoProgramsMatchSequential) {
  Prog a = scaled_map_prog();
  Prog g = ad::vjp(gather_sq_prog());
  typecheck(a);
  typecheck(g);
  support::Rng rng(11);
  const std::vector<Value> a_args = {1.75, make_f64_array(rng.normal_vec(64), {64})};
  const std::vector<Value> g_args = {make_f64_array(rng.normal_vec(16), {16}),
                                     make_i64_array(rng.index_vec(256, 16), {256}), 1.0};
  InterpOptions seq;
  seq.parallel = false;
  const Interp ref(seq);
  const std::vector<Value> a_want = ref.run(a, a_args);
  const std::vector<Value> g_want = ref.run(g, g_args);

  auto same = [](const std::vector<Value>& x, const std::vector<Value>& y) {
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (is_array(x[i]) != is_array(y[i])) return false;
      if (!is_array(x[i])) {
        const double u = as_f64(x[i]), v = as_f64(y[i]);
        if (std::memcmp(&u, &v, sizeof u) != 0) return false;
        continue;
      }
      const ArrayVal& u = as_array(x[i]);
      const ArrayVal& v = as_array(y[i]);
      if (u.shape != v.shape) return false;
      for (int64_t k = 0; k < u.elems(); ++k) {
        const double s = u.get_f64(k), t = v.get_f64(k);
        if (std::memcmp(&s, &t, sizeof s) != 0) return false;
      }
    }
    return true;
  };

  constexpr int kThreads = 4, kRounds = 25;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<uint64_t> hashes(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Interp in(seq);
      for (int r = 0; r < kRounds; ++r) {
        // Odd threads start with the other program, so lookups interleave.
        const bool first_a = (r + t) % 2 == 0;
        for (int k = 0; k < 2; ++k) {
          const bool use_a = first_a == (k == 0);
          const auto got = in.run(use_a ? a : g, use_a ? a_args : g_args);
          if (!same(got, use_a ? a_want : g_want)) ++mismatches[static_cast<size_t>(t)];
        }
      }
      hashes[static_cast<size_t>(t)] = in.stats().prog_hashes.load();
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(hashes[static_cast<size_t>(t)], 2u) << "thread " << t;
  }
}

// ------------------------------------------------------ slot environments ---

// Shadowing in a straight-line body: a re-bound id must shadow for later
// uses while earlier uses keep the outer value.
TEST(SlotEnv, ShadowingInStraightLineBody) {
  auto mod = std::make_shared<Module>();
  Var x = mod->fresh("x");
  Var a = mod->fresh("a");
  Var r = mod->fresh("r");
  Function fn;
  fn.name = "shadow";
  fn.params = {Param{x, f64()}};
  fn.rets = {f64()};
  Body b;
  b.stms.push_back(stm1(a, f64(), OpBin{BinOp::Add, Atom(x), cf64(1.0)}));   // a = x + 1
  b.stms.push_back(stm1(x, f64(), OpBin{BinOp::Mul, Atom(a), cf64(10.0)}));  // x = a * 10
  b.stms.push_back(stm1(r, f64(), OpBin{BinOp::Add, Atom(x), Atom(a)}));     // r = x + a
  b.result = {Atom(r)};
  fn.body = std::move(b);
  Prog p{mod, std::move(fn)};

  auto out = run_prog(p, {2.0});
  EXPECT_DOUBLE_EQ(as_f64(out[0]), 33.0);  // a=3, x'=30, r=33
}

// A lambda that re-binds an enclosing id: the inner binding must be visible
// only inside the lambda, exactly as the old hash-map Env chain behaved.
TEST(SlotEnv, LambdaRebindingDoesNotLeak) {
  auto mod = std::make_shared<Module>();
  Var x = mod->fresh("x");
  Var xs = mod->fresh("xs");
  Var y = mod->fresh("y");
  Var e = mod->fresh("e");
  Var z = mod->fresh("z");
  Var w = mod->fresh("w");

  Function fn;
  fn.name = "leak";
  fn.params = {Param{x, f64()}, Param{xs, arr_f64(1)}};
  fn.rets = {arr_f64(1), f64()};

  Lambda lam;
  lam.params = {Param{e, f64()}};
  lam.rets = {f64()};
  Body lb;
  // Re-binds the *outer* y inside the lambda.
  lb.stms.push_back(stm1(y, f64(), OpBin{BinOp::Add, Atom(e), cf64(100.0)}));
  lb.result = {Atom(y)};
  lam.body = std::move(lb);

  Body b;
  b.stms.push_back(stm1(y, f64(), OpBin{BinOp::Mul, Atom(x), cf64(2.0)}));  // y = 2x
  b.stms.push_back(stm1(z, arr_f64(1), OpMap{make_lambda(std::move(lam)), {xs}}));
  b.stms.push_back(stm1(w, f64(), OpBin{BinOp::Add, Atom(y), cf64(0.0)}));  // outer y survives
  b.result = {Atom(z), Atom(w)};
  fn.body = std::move(b);
  Prog p{mod, std::move(fn)};

  ArrayVal arr = make_f64_array({1.0, 2.0, 3.0}, {3});
  auto out = run_prog(p, {2.0, arr});
  const ArrayVal& z_out = as_array(out[0]);
  EXPECT_DOUBLE_EQ(z_out.get_f64(0), 101.0);
  EXPECT_DOUBLE_EQ(z_out.get_f64(1), 102.0);
  EXPECT_DOUBLE_EQ(z_out.get_f64(2), 103.0);
  EXPECT_DOUBLE_EQ(as_f64(out[1]), 4.0);
}

TEST(SlotEnv, LoopFrameReuseForAndWhile) {
  // for-loop: sum of squares 0..9 through a loop-carried param.
  {
    ProgBuilder pb("sumsq");
    Var n = pb.param("n", i64());
    Builder& b = pb.body();
    auto outs = b.loop_for({cf64(0.0)}, Atom(n), [&](Builder& c, Var i, const std::vector<Var>& ps) {
      Var fi = c.to_f64(i);
      Var acc = c.add(ps[0], c.mul(fi, fi));
      return std::vector<Atom>{Atom(acc)};
    });
    Prog p = pb.finish({Atom(outs[0])});
    typecheck(p);
    auto out = run_prog(p, {int64_t{10}});
    EXPECT_DOUBLE_EQ(as_f64(out[0]), 285.0);
  }
  // while-loop: double until >= 1000.
  {
    ProgBuilder pb("dbl");
    Var x0 = pb.param("x0", f64());
    Builder& b = pb.body();
    auto outs = b.loop_while(
        {Atom(x0)},
        [&](Builder& c, const std::vector<Var>& ps) {
          return std::vector<Atom>{Atom(c.lt(ps[0], cf64(1000.0)))};
        },
        [&](Builder& c, Var, const std::vector<Var>& ps) {
          return std::vector<Atom>{Atom(c.mul(ps[0], cf64(2.0)))};
        });
    Prog p = pb.finish({Atom(outs[0])});
    typecheck(p);
    auto out = run_prog(p, {3.0});
    EXPECT_DOUBLE_EQ(as_f64(out[0]), 1536.0);
  }
}

// Branch-local bindings live in the enclosing frame; both branches must
// compute correctly and the general map path must agree with kernels off.
TEST(SlotEnv, IfBranchBindingsShareEnclosingFrame) {
  ProgBuilder pb("branches");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var c = b.lt(x, cf64(0.0));
  Var r = b.if1(
      c,
      [&](Builder& t) {
        Var u = t.mul(x, cf64(-3.0));
        Var v = t.add(u, cf64(1.0));
        return std::vector<Atom>{Atom(v)};
      },
      [&](Builder& e) {
        Var u = e.mul(x, cf64(5.0));
        Var v = e.sub(u, cf64(2.0));
        return std::vector<Atom>{Atom(v)};
      });
  Prog p = pb.finish({Atom(r)});
  typecheck(p);
  EXPECT_DOUBLE_EQ(as_f64(run_prog(p, {-2.0})[0]), 7.0);
  EXPECT_DOUBLE_EQ(as_f64(run_prog(p, {2.0})[0]), 8.0);
}

} // namespace
