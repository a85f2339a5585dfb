// Unit tests for the IR substrate: builder, printer, free-variable analysis,
// lambda inlining, pattern recognition, the type checker and the shallow
// equality of IR nodes.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ir/analysis.hpp"
#include "ir/builder.hpp"
#include "ir/patterns.hpp"
#include "ir/print.hpp"
#include "ir/typecheck.hpp"
#include "ir/visit.hpp"
#include "runtime/interp.hpp"

namespace {

using namespace npad::ir;

Prog make_square_prog() {
  ProgBuilder pb("square");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  return pb.finish({Atom(y)});
}

TEST(Ir, BuildAndPrintScalarProgram) {
  Prog p = make_square_prog();
  EXPECT_EQ(p.fn.params.size(), 1u);
  EXPECT_EQ(p.fn.rets.size(), 1u);
  EXPECT_EQ(p.fn.rets[0], f64());
  std::string s = to_string(p);
  EXPECT_NE(s.find("square"), std::string::npos);
  EXPECT_NE(s.find("*"), std::string::npos);
}

TEST(Ir, TypecheckAcceptsWellFormed) {
  Prog p = make_square_prog();
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, TypecheckRejectsUnbound) {
  ProgBuilder pb("bad");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  Prog p = pb.finish({Atom(y)});
  // Corrupt: reference a fresh unbound var.
  Var ghost = p.mod->fresh("ghost");
  p.fn.body.result[0] = Atom(ghost);
  p.fn.rets[0] = f64();
  EXPECT_THROW(typecheck(p), TypeError);
}

TEST(Ir, TypecheckRejectsDtypeMismatch) {
  ProgBuilder pb("bad2");
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var y = b.mul(x, x);
  Prog p = pb.finish({Atom(y)});
  // Corrupt the statement's declared type.
  p.fn.body.stms[0].types[0] = i64();
  EXPECT_THROW(typecheck(p), TypeError);
}

TEST(Ir, MapReduceTypesInferred) {
  ProgBuilder pb("dot");
  Var xs = pb.param("xs", arr_f64(1));
  Var ys = pb.param("ys", arr_f64(1));
  Builder& b = pb.body();
  Var prods = b.map1(b.lam({f64(), f64()},
                           [](Builder& c, const std::vector<Var>& p) {
                             return std::vector<Atom>{Atom(c.mul(p[0], p[1]))};
                           }),
                     {xs, ys});
  Var s = b.reduce1(b.add_op(), cf64(0.0), {prods});
  Prog p = pb.finish({Atom(s)});
  EXPECT_NO_THROW(typecheck(p));
  EXPECT_EQ(p.fn.rets[0], f64());
}

TEST(Ir, FreeVarsOfLambdaExcludeParams) {
  ProgBuilder pb("fv");
  Var xs = pb.param("xs", arr_f64(1));
  Var c = pb.param("c", f64());
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64()}, [&](Builder& cb, const std::vector<Var>& p) {
    return std::vector<Atom>{Atom(cb.mul(p[0], c))};
  });
  Var ys = b.map1(f, {xs});
  Prog p = pb.finish({Atom(ys)});
  (void)p;
  std::vector<Var> fv = free_vars(*f);
  ASSERT_EQ(fv.size(), 1u);
  EXPECT_EQ(fv[0], c);
}

TEST(Ir, FreeVarsSeeThroughNestedScopes) {
  ProgBuilder pb("fv2");
  Var k = pb.param("k", f64());
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64()}, [&](Builder& cb, const std::vector<Var>& p) {
    Var cond = cb.lt(p[0], cf64(0.0));
    Var r = cb.if1(
        cond, [&](Builder& tb) { return std::vector<Atom>{Atom(tb.mul(p[0], k))}; },
        [&](Builder& fb) { return std::vector<Atom>{Atom(fb.add(p[0], cf64(1.0)))}; });
    return std::vector<Atom>{Atom(r)};
  });
  std::vector<Var> fv = free_vars(*f);
  ASSERT_EQ(fv.size(), 1u);
  EXPECT_EQ(fv[0], k);
  Var ys = b.map1(f, {xs});
  Prog p = pb.finish({Atom(ys)});
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, InlineLambdaSubstitutesAndRefreshes) {
  ProgBuilder pb("inl");
  Var a = pb.param("a", f64());
  Builder& b = pb.body();
  LambdaPtr f = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var s = c.add(p[0], p[1]);
    return std::vector<Atom>{Atom(c.mul(s, s))};
  });
  auto [stms, res] = inline_lambda(b.module(), *f, {Atom(a), cf64(3.0)});
  ASSERT_EQ(stms.size(), 2u);
  ASSERT_EQ(res.size(), 1u);
  // Bindings must have been refreshed (different from the lambda's own vars).
  EXPECT_NE(stms[0].vars[0].id, f->body.stms[0].vars[0].id);
  // The add statement must reference `a` and the constant.
  const auto* add = std::get_if<OpBin>(&stms[0].e);
  ASSERT_NE(add, nullptr);
  EXPECT_TRUE(add->a.is_var() && add->a.var() == a);
  EXPECT_TRUE(add->b.is_const());
}

TEST(Ir, RecognizeBinopLambdas) {
  ProgBuilder pb("rec");
  Builder& b = pb.body();
  EXPECT_EQ(recognize_binop(*b.add_op()), BinOp::Add);
  EXPECT_EQ(recognize_binop(*b.mul_op()), BinOp::Mul);
  EXPECT_EQ(recognize_binop(*b.min_op()), BinOp::Min);
  LambdaPtr weird = b.lam({f64(), f64()}, [](Builder& c, const std::vector<Var>& p) {
    Var t = c.mul(p[0], p[1]);
    return std::vector<Atom>{Atom(c.add(t, cf64(1.0)))};
  });
  EXPECT_FALSE(recognize_binop(*weird).has_value());
}

TEST(Ir, CountStmsRecursesNests) {
  ProgBuilder pb("cnt");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [](Builder& c, const std::vector<Var>& p) {
                          Var t = c.mul(p[0], p[0]);
                          return std::vector<Atom>{Atom(c.add(t, cf64(1.0)))};
                        }),
                  {xs});
  Prog p = pb.finish({Atom(ys)});
  EXPECT_EQ(count_stms(p.fn.body), 3u);  // map + two lambda stms
}

TEST(Ir, LoopBuilderProducesTypedLoop) {
  ProgBuilder pb("lp");
  Var x0 = pb.param("x0", f64());
  Var n = pb.param("n", i64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0)}, Atom(n), [](Builder& c, Var, const std::vector<Var>& ps) {
    return std::vector<Atom>{Atom(c.mul(ps[0], cf64(1.5)))};
  });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, ScatterAndHistTypecheck) {
  ProgBuilder pb("sc");
  Var dest = pb.param("dest", arr_f64(1));
  Var inds = pb.param("inds", arr(ScalarType::I64, 1));
  Var vals = pb.param("vals", arr_f64(1));
  Builder& b = pb.body();
  Var s = b.scatter(dest, inds, vals);
  Var h = b.hist(b.add_op(), cf64(0.0), s, inds, vals);
  Prog p = pb.finish({Atom(h)});
  EXPECT_NO_THROW(typecheck(p));
}

TEST(Ir, WithAccTypecheck) {
  ProgBuilder pb("wa");
  Var dest = pb.param("dest", arr_f64(1));
  Var is = pb.param("is", arr(ScalarType::I64, 1));
  Builder& b = pb.body();
  auto outs = b.withacc({dest}, [&](Builder& c, const std::vector<Var>& accs) {
    LambdaPtr f = c.lam({i64(), acc_of(arr_f64(1))},
                        [](Builder& cc, const std::vector<Var>& p) {
                          Var a2 = cc.upd_acc(p[1], {Atom(p[0])}, cf64(1.0));
                          return std::vector<Atom>{Atom(a2)};
                        });
    Var acc2 = c.map(f, {is, accs[0]})[0];
    return std::vector<Atom>{Atom(acc2)};
  });
  Prog p = pb.finish({Atom(outs[0])});
  EXPECT_NO_THROW(typecheck(p));
}

// ------------------------------------------------------ shallow equality ---

// xs -> map (\x -> x * k) xs, for a map body that closes over one constant.
Prog make_scale_prog(double k) {
  ProgBuilder pb("scale");
  Var xs = pb.param("xs", arr_f64(1));
  Builder& b = pb.body();
  Var ys = b.map1(b.lam({f64()},
                        [&](Builder& c, const std::vector<Var>& p) {
                          return std::vector<Atom>{Atom(c.mul(p[0], cf64(k)))};
                        }),
                  {xs});
  return pb.finish({Atom(ys)});
}

TEST(IrEquality, CopiesCompareEqual) {
  const Prog p = make_scale_prog(2.5);
  const Function copy = p.fn;
  EXPECT_TRUE(copy == p.fn);
  EXPECT_TRUE(copy.body.stms[0] == p.fn.body.stms[0]);

  Function renamed = p.fn;
  renamed.name = "other";
  EXPECT_FALSE(renamed == p.fn);
  Function edited = p.fn;
  edited.body.result = {cf64(1.0)};
  EXPECT_FALSE(edited == p.fn);
}

// Nested lambdas compare by pointer: two separate builds of one program are
// structurally identical but unequal, and swapping a copy's lambda for its
// twin from the other build makes the copy unequal to its original.
TEST(IrEquality, IdenticalNestedLambdaBuiltSeparatelyComparesUnequal) {
  const Prog a = make_scale_prog(2.5);
  const Prog b = make_scale_prog(2.5);
  EXPECT_EQ(structural_sig(a.fn), structural_sig(b.fn));
  EXPECT_FALSE(a.fn == b.fn);

  Function swapped = a.fn;
  std::get<OpMap>(swapped.body.stms[0].e).f = std::get<OpMap>(b.fn.body.stms[0].e).f;
  EXPECT_FALSE(swapped == a.fn);
}

TEST(IrEquality, ActivationIdIsIgnored) {
  ProgBuilder pb("lp");
  Var x0 = pb.param("x0", f64());
  Var n = pb.param("n", i64());
  Builder& b = pb.body();
  auto outs = b.loop_for({Atom(x0)}, Atom(n), [](Builder& c, Var, const std::vector<Var>& ps) {
    return std::vector<Atom>{Atom(c.mul(ps[0], cf64(1.5)))};
  });
  const Prog p = pb.finish({Atom(outs[0])});
  const auto* loop = std::get_if<OpLoop>(&p.fn.body.stms.back().e);
  ASSERT_NE(loop, nullptr);

  OpLoop annotated = *loop;
  annotated.activation_id.v = 7;
  EXPECT_TRUE(annotated == *loop);
  OpLoop stripmined = *loop;
  stripmined.stripmine = 4;
  EXPECT_FALSE(stripmined == *loop);
}

// A NaN constant equals nothing, itself included, so a program holding one
// at the top level never matches its own copy; it must still run, through
// the structural lookup every time. Signed zeros are told apart.
TEST(IrEquality, NanConstantComparesUnequalAndStillRuns) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(cf64(nan) == cf64(nan));
  EXPECT_FALSE(cf64(0.0) == cf64(-0.0));
  EXPECT_TRUE(cf64(1.5) == cf64(1.5));
  EXPECT_TRUE(ci64(3) == ci64(3));

  ProgBuilder pb("nan_or_double");  // x < 0 ? NaN : 2x
  Var x = pb.param("x", f64());
  Builder& b = pb.body();
  Var r = b.select(Atom(b.lt(x, cf64(0.0))), cf64(nan), Atom(b.mul(x, cf64(2.0))));
  const Prog p = pb.finish({Atom(r)});
  typecheck(p);
  EXPECT_FALSE(p.fn == p.fn);

  npad::rt::Interp in;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isnan(npad::rt::as_f64(in.run(p, {-1.0})[0])));
    EXPECT_EQ(npad::rt::as_f64(in.run(p, {1.5})[0]), 3.0);
  }
  EXPECT_EQ(in.stats().prog_hashes.load(), 6u);
}

} // namespace
