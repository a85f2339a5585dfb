#pragma once

// The npad intermediate representation: a purely functional, A-normal-form
// array language with second-order array combinators (SOACs), sequential
// loops, and accumulators — the language of Section 2.1 of the paper.
//
// Statements bind typed variables; all operands are atoms (variable or
// constant). Nested bodies (if branches, loop bodies, SOAC lambdas) are held
// by shared_ptr<const ...> so program transformations can share untouched
// subtrees. Re-binding a variable id in a nested scope is shadowing, exactly
// as the paper treats re-definitions.
//
// Equality is shallow: operator== compares a struct's own fields and
// compares nested bodies and lambdas by pointer, not by contents, so
// comparing two functions costs one pass over their top-level statements.
// Two independently built but identical lambdas compare unequal; a copy of
// a statement compares equal to its original because it shares the nested
// nodes. The runtime-only activation ids are left out. runtime/resolve.cpp
// uses this to confirm that a program it has seen before is unchanged.

#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace npad::ir {

// ---------------------------------------------------------------- types ----

enum class ScalarType : uint8_t { F64, I64, Bool };

// Ranks, not symbolic shapes: the type system tracks element type, rank and
// accumulator-ness; concrete extents live on runtime values (DESIGN.md §3.2).
struct Type {
  ScalarType elem = ScalarType::F64;
  int rank = 0;
  bool is_acc = false;

  bool operator==(const Type&) const = default;
  bool is_scalar() const { return rank == 0 && !is_acc; }
  bool is_float() const { return elem == ScalarType::F64; }
};

inline Type f64() { return Type{ScalarType::F64, 0, false}; }
inline Type i64() { return Type{ScalarType::I64, 0, false}; }
inline Type boolean() { return Type{ScalarType::Bool, 0, false}; }
inline Type arr(ScalarType e, int rank) { return Type{e, rank, false}; }
inline Type arr_f64(int rank) { return Type{ScalarType::F64, rank, false}; }
inline Type acc_of(Type t) { return Type{t.elem, t.rank, true}; }
inline Type elem_of(Type t) {
  assert(t.rank > 0);
  return Type{t.elem, t.rank - 1, false};
}
inline Type lift(Type t) { return Type{t.elem, t.rank + 1, t.is_acc}; }

// ------------------------------------------------------------- vars/atoms --

struct Var {
  uint32_t id = UINT32_MAX;
  bool valid() const { return id != UINT32_MAX; }
  bool operator==(const Var&) const = default;
};

struct ConstVal {
  ScalarType t = ScalarType::F64;
  double f = 0.0;  // payload for F64
  int64_t i = 0;   // payload for I64 and Bool (0/1)

  static ConstVal of_f64(double v) { return {ScalarType::F64, v, 0}; }
  static ConstVal of_i64(int64_t v) { return {ScalarType::I64, 0.0, v}; }
  static ConstVal of_bool(bool v) { return {ScalarType::Bool, 0.0, v ? 1 : 0}; }
  // The F64 payload compares as a value with its sign: 0.0 and -0.0 differ
  // (they can give different results), and a NaN equals nothing, so a
  // program holding one never matches, even itself.
  bool operator==(const ConstVal& o) const {
    return t == o.t && i == o.i && f == o.f && std::signbit(f) == std::signbit(o.f);
  }
};

struct Atom {
  std::variant<Var, ConstVal> v;

  Atom() : v(Var{}) {}
  Atom(Var x) : v(x) {}                 // NOLINT(google-explicit-constructor)
  Atom(ConstVal c) : v(c) {}            // NOLINT(google-explicit-constructor)

  bool is_var() const { return std::holds_alternative<Var>(v); }
  bool is_const() const { return std::holds_alternative<ConstVal>(v); }
  Var var() const { return std::get<Var>(v); }
  const ConstVal& cval() const { return std::get<ConstVal>(v); }
  bool operator==(const Atom&) const = default;
};

inline Atom cf64(double v) { return Atom(ConstVal::of_f64(v)); }
inline Atom ci64(int64_t v) { return Atom(ConstVal::of_i64(v)); }
inline Atom cbool(bool v) { return Atom(ConstVal::of_bool(v)); }

// ------------------------------------------------------------ operations ---

enum class BinOp : uint8_t {
  Add, Sub, Mul, Div, Pow, Min, Max,   // arithmetic (F64 or I64)
  Mod,                                 // I64 only
  Eq, Ne, Lt, Le, Gt, Ge,              // comparisons -> Bool
  And, Or                              // Bool
};

enum class UnOp : uint8_t {
  Neg, Exp, Log, Sqrt, Sin, Cos, Tanh, Abs, Sign,
  LGamma, Digamma,
  Not,          // Bool
  ToF64, ToI64  // casts
};

// ------------------------------------------------------------- structure ---

struct Body;
struct Lambda;
using BodyPtr = std::shared_ptr<const Body>;
using LambdaPtr = std::shared_ptr<const Lambda>;

struct Param {
  Var var;
  Type type;
  bool operator==(const Param&) const = default;
};

// --- scalar / simple statements ---
struct OpAtom {  // copy / rename
  Atom a;
  bool operator==(const OpAtom&) const = default;
};
struct OpBin {
  BinOp op;
  Atom a, b;
  bool operator==(const OpBin&) const = default;
};
struct OpUn {
  UnOp op;
  Atom a;
  bool operator==(const OpUn&) const = default;
};
struct OpSelect {  // scalar select
  Atom c, t, f;
  bool operator==(const OpSelect&) const = default;
};

// --- array access ---
struct OpIndex {  // prefix indexing
  Var arr;
  std::vector<Atom> idx;
  bool operator==(const OpIndex&) const = default;
};
struct OpUpdate {  // in-place write (consumes arr)
  Var arr;
  std::vector<Atom> idx;
  Atom v;
  bool operator==(const OpUpdate&) const = default;
};
struct OpUpdAcc {  // acc[idx] += v; returns acc
  Var acc;
  std::vector<Atom> idx;
  Atom v;
  bool operator==(const OpUpdAcc&) const = default;
};

// --- array construction / shape ---
struct OpIota {  // [0..n-1] : i64
  Atom n;
  bool operator==(const OpIota&) const = default;
};
struct OpReplicate {  // n copies of v
  Atom n;
  Atom v;
  bool operator==(const OpReplicate&) const = default;
};
struct OpZerosLike {  // zeros, same shape as v
  Var v;
  bool operator==(const OpZerosLike&) const = default;
};
struct OpScratch {  // uninit [n] ++ shape(like)
  Atom n;
  Var like;
  bool operator==(const OpScratch&) const = default;
};
struct OpLength {  // outer extent : i64
  Var arr;
  bool operator==(const OpLength&) const = default;
};
struct OpReverse {
  Var arr;
  bool operator==(const OpReverse&) const = default;
};
struct OpTranspose {  // swap dims 0 and 1
  Var arr;
  bool operator==(const OpTranspose&) const = default;
};
struct OpCopy {  // deep copy
  Var v;
  bool operator==(const OpCopy&) const = default;
};

// --- control flow ---
struct OpIf {
  Atom c;
  BodyPtr tb, fb;
  bool operator==(const OpIf&) const = default;
};

// Runtime annotation of loops and lambdas: index into the owning
// ResolvedProg's activation table (runtime/resolve.hpp). Written once during
// slot resolution on a privately owned clone; never meaningful on user-built
// programs, so equality ignores it.
struct ActivationId {
  uint32_t v = UINT32_MAX;
  bool operator==(const ActivationId&) const { return true; }
};

// A sequential loop with loop-variant parameters (tail-recursive semantics,
// Section 2.1). When `while_cond` is set the loop is a while-loop over the
// parameters; otherwise it is a for-loop running `count` iterations with the
// iteration index bound to `idx`. Annotations drive the Section 4.3 / 6.2
// transformations.
struct OpLoop {
  std::vector<Param> params;
  std::vector<Atom> init;
  Var idx;                              // valid for for-loops
  Atom count;                           // for-loop trip count (i64)
  LambdaPtr while_cond;                 // params -> Bool (while form)
  BodyPtr body;                         // yields new values of params
  int stripmine = 0;                    // §4.3: strip-mine factor annotation
  bool checkpoint_entry = false;        // §6.2: no-false-deps annotation
  std::optional<Atom> while_bound;      // §6.2: user iteration bound for while

  mutable ActivationId activation_id;
  bool operator==(const OpLoop&) const = default;
};

// --- SOACs ---
// Flattening annotation (opt/flatten.cpp): marks a map as a perfectly nested
// *regular* form the runtime may execute collapsed instead of launching the
// inner SOAC once per row:
//   Inner  — map(λrow. map(g, row…)) with scalar-body g: one kernel launch
//            over the fused n·m extent (rank-2 inputs viewed rank-1, outputs
//            written rank-2 in place);
//   SegRed — map(λrow. reduce/redomap(op, ne, row…)): one segmented
//            reduction, parallel over segments, one store per segment.
// The annotation is *semantic for execution strategy* (it changes which
// driver runs and, under parallelism, float grouping — like
// OpLoop::stripmine it participates in the structural signature, unlike the
// stats-only `fused`). ir/patterns.hpp::flatten_form is the single matcher:
// opt/flatten.cpp annotates forms it accepts, ir/typecheck.cpp rejects
// annotations that do not match their map's structure, and the runtime falls
// back to the general nested path when shapes or kernels do not cooperate.
enum class FlatForm : uint8_t { None = 0, Inner = 1, SegRed = 2 };

// map f xs1..xsk: accumulator-typed args are threaded whole (not indexed) and
// accumulator-typed lambda results collapse back to a single accumulator —
// the paper's "implicit conversion between accumulators and arrays of
// accumulators" (§5.4).
struct OpMap {
  LambdaPtr f;
  std::vector<Var> args;
  // Annotation written by opt::fuse_maps: number of producer maps folded into
  // this one (0 for unfused maps). Not part of the structural signature; the
  // runtime adds it to InterpStats::fused_maps per launch. Every pass that
  // rebuilds OpMap must carry it: ir/visit.hpp (Cloner), opt/simplify.cpp,
  // opt/accopt.cpp, opt/loopopt.cpp, opt/fuse.cpp.
  uint32_t fused = 0;
  // Flattening annotation (see FlatForm above). Carried by the same pass
  // list as `fused`, except opt/fuse.cpp drops it to None when it rebuilds
  // the lambda of a fused consumer (the body shape changed; opt/flatten.cpp
  // runs after fusion in the pipeline and re-derives it).
  FlatForm flat = FlatForm::None;
  bool operator==(const OpMap&) const = default;
};
// reduce/scan op ne xs1..xsk, optionally in *redomap* form: when `pre` is
// set the element-wise pre-lambda maps the elements of `args` (its params
// match args positionally) and its results feed the fold operator — the
// paper's map-fused reduction, produced by opt::fuse_maps folding producer
// maps into reduce/scan consumers so the intermediate array never exists.
// Invariants (ir/typecheck.cpp): op has 2k params for k fold results; with
// pre, args.size() == pre->params.size() and pre->rets.size() == k;
// without pre, args.size() == k.
// `fused` mirrors OpMap::fused: number of producer maps folded in, not part
// of the structural signature; the runtime adds it to
// InterpStats::fused_reduces / fused_scans per launch. Every pass that
// rebuilds these ops must carry both fields (same list as OpMap::fused).
struct OpReduce {
  LambdaPtr op;
  std::vector<Atom> neutral;
  std::vector<Var> args;
  LambdaPtr pre;      // optional redomap pre-lambda
  uint32_t fused = 0;
  bool operator==(const OpReduce&) const = default;
};
struct OpScan {
  LambdaPtr op;
  std::vector<Atom> neutral;
  std::vector<Var> args;
  LambdaPtr pre;      // optional redomap pre-lambda
  uint32_t fused = 0;
  bool operator==(const OpScan&) const = default;
};
// reduce_by_index dest op ne inds vals (§5.1.2); out-of-range bins ignored.
// Optionally in *histomap* form, mirroring the redomap form of OpReduce:
// when `pre` is set the element-wise pre-lambda maps each element of `vals`
// (one param, elem_of(vals)) and its single result (elem_of(dest)) feeds the
// combine operator — produced by opt::fuse_maps folding a producer map into
// a hist consumer so the mapped intermediate never exists. `fused` mirrors
// OpMap::fused: number of producer maps folded in, not part of the
// structural signature; the runtime adds it to InterpStats::fused_hists per
// launch. Every pass that rebuilds OpHist must carry both fields (same list
// as OpMap::fused).
struct OpHist {
  LambdaPtr op;
  Atom neutral;
  Var dest;
  Var inds;
  Var vals;
  LambdaPtr pre;      // optional histomap pre-lambda
  uint32_t fused = 0;
  bool operator==(const OpHist&) const = default;
};
// scatter dest inds vals (§5.3); duplicate indices unsupported (as paper).
struct OpScatter {
  Var dest;
  Var inds;
  Var vals;
  bool operator==(const OpScatter&) const = default;
};
// withacc arrs f: temporarily turns arrs into write-only accumulators (§5.4).
// f receives one acc per array and must return them (plus optional extras).
struct OpWithAcc {
  std::vector<Var> arrs;
  LambdaPtr f;
  bool operator==(const OpWithAcc&) const = default;
};

using Exp = std::variant<
    OpAtom, OpBin, OpUn, OpSelect,
    OpIndex, OpUpdate, OpUpdAcc,
    OpIota, OpReplicate, OpZerosLike, OpScratch, OpLength,
    OpReverse, OpTranspose, OpCopy,
    OpIf, OpLoop,
    OpMap, OpReduce, OpScan, OpHist, OpScatter, OpWithAcc>;

// A statement binds one or more typed variables to the results of one Exp.
struct Stm {
  std::vector<Var> vars;
  std::vector<Type> types;
  Exp e;
  bool operator==(const Stm&) const = default;
};

inline Stm stm1(Var v, Type t, Exp e) { return Stm{{v}, {t}, std::move(e)}; }

struct Body {
  std::vector<Stm> stms;
  std::vector<Atom> result;
  bool operator==(const Body&) const = default;
};

struct Lambda {
  std::vector<Param> params;
  Body body;
  std::vector<Type> rets;

  mutable ActivationId activation_id;  // runtime annotation (see ActivationId)
};

struct Function {
  std::string name;
  std::vector<Param> params;
  std::vector<Type> rets;
  Body body;
  bool operator==(const Function&) const = default;
};

// ---------------------------------------------------------------- module ---

// Owns the variable name table; passes allocate fresh variables through it.
class Module {
public:
  Var fresh(std::string_view base) {
    names_.emplace_back(base);
    return Var{static_cast<uint32_t>(names_.size() - 1)};
  }

  const std::string& name(Var v) const {
    static const std::string invalid = "<invalid>";
    return v.valid() && v.id < names_.size() ? names_[v.id] : invalid;
  }

  size_t num_vars() const { return names_.size(); }

private:
  std::vector<std::string> names_;
};

// A program: one entry function plus the module that owns its names.
struct Prog {
  std::shared_ptr<Module> mod;
  Function fn;
};

// ------------------------------------------------------------ small utils --

inline BodyPtr make_body(Body b) { return std::make_shared<const Body>(std::move(b)); }
inline LambdaPtr make_lambda(Lambda l) { return std::make_shared<const Lambda>(std::move(l)); }

// Number of values an Exp produces is determined by the binding statement;
// these helpers compute result types where derivable (used by the builder).

template <class... Ts>
struct Overload : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overload(Ts...) -> Overload<Ts...>;

} // namespace npad::ir

// Hash support for Var keys in unordered containers.
template <>
struct std::hash<npad::ir::Var> {
  size_t operator()(const npad::ir::Var& v) const noexcept { return std::hash<uint32_t>{}(v.id); }
};
