// adbench_jac: the full BA and HAND-complicated Jacobians of ADBench,
// computed as seed-vector jvp columns: 15 + (3 bones + 2) small
// Interp::run calls per op, so the per-call front door weighs as much as
// the work inside it. The reference is forward-mode dual numbers over
// copies of the templated residuals, seeded column by column the same way.

#include <cmath>

#include "apps/ba.hpp"
#include "apps/hand.hpp"
#include "harness.hpp"
#include "ir/typecheck.hpp"
#include "reference.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int64_t kCams = 8, kPts = 32, kObs = 64;
constexpr int64_t kBones = 8, kVerts = 32;
constexpr double kRtol = 1e-9;

std::vector<double> zeros(int64_t n) { return std::vector<double>(static_cast<size_t>(n), 0.0); }

}  // namespace

void run_adbench_jac(const Args& a, Report* rep) {
  namespace rt = npad::rt;
  npad::support::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 0x6164);
  const npad::apps::BaData ba = npad::apps::ba_gen(rng, kCams, kPts, kObs);
  const npad::apps::HandData hand = npad::apps::hand_gen(rng, kBones, kVerts);

  SetupFigures sf;
  npad::ir::Prog ba_p = npad::apps::ba_ir_residuals();
  npad::ir::Prog hand_p = npad::apps::hand_ir_residuals(/*complicated=*/true);
  npad::ir::typecheck(ba_p);
  npad::ir::typecheck(hand_p);
  npad::ir::Prog ba_j = optimize(differentiate(ba_p, /*reverse=*/false, &sf), &sf);
  npad::ir::Prog hand_j = optimize(differentiate(hand_p, /*reverse=*/false, &sf), &sf);

  // BA columns: one tangent per camera parameter (all cameras at once),
  // per point coordinate, and the weights; each observation touches one
  // camera and one point, so a column holds whole Jacobian blocks.
  std::vector<std::vector<rt::Value>> ba_cols;
  for (int col = 0; col < 15; ++col) {
    std::vector<double> cam_t = zeros(kCams * 11), pt_t = zeros(kPts * 3), w_t = zeros(kObs);
    if (col < 11) {
      for (int64_t c = 0; c < kCams; ++c) cam_t[static_cast<size_t>(c * 11 + col)] = 1.0;
    } else if (col < 14) {
      for (int64_t p = 0; p < kPts; ++p) pt_t[static_cast<size_t>(p * 3 + col - 11)] = 1.0;
    } else {
      w_t.assign(w_t.size(), 1.0);
    }
    std::vector<rt::Value> args = npad::apps::ba_ir_args(ba);
    args.push_back(rt::make_f64_array(cam_t, {kCams, 11}));
    args.push_back(rt::make_f64_array(pt_t, {kPts, 3}));
    args.push_back(rt::make_f64_array(w_t, {kObs}));
    args.push_back(rt::make_f64_array(zeros(kObs * 2), {kObs, 2}));
    ba_cols.push_back(std::move(args));
  }
  // HAND columns: one per theta entry, then all even and all odd us
  // entries at once (they touch disjoint rows).
  std::vector<std::vector<rt::Value>> hand_cols;
  for (int64_t col = 0; col < 3 * kBones + 2; ++col) {
    std::vector<double> th_t = zeros(3 * kBones), us_t = zeros(2 * kVerts);
    if (col < 3 * kBones) {
      th_t[static_cast<size_t>(col)] = 1.0;
    } else {
      for (int64_t v = 0; v < kVerts; ++v) us_t[static_cast<size_t>(2 * v + col - 3 * kBones)] = 1.0;
    }
    std::vector<rt::Value> args = npad::apps::hand_ir_args(hand, /*complicated=*/true);
    args.push_back(rt::make_f64_array(th_t, {3 * kBones}));
    args.push_back(rt::make_f64_array(us_t, {2 * kVerts}));
    args.push_back(rt::make_f64_array(zeros(kVerts * 3), {kVerts, 3}));
    args.push_back(rt::make_f64_array(zeros(kVerts * 6), {kVerts, 6}));
    args.push_back(rt::make_f64_array(zeros(kVerts * 3), {kVerts, 3}));
    hand_cols.push_back(std::move(args));
  }

  const ref::BaIn ba_in{kCams,          kPts,        kObs,           ba.cams.data(),
                        ba.pts.data(),  ba.weights.data(), ba.cam_idx.data(), ba.pt_idx.data(),
                        ba.feats.data()};
  const ref::HandIn hand_in{kBones,           kVerts,          hand.theta.data(),
                            hand.us.data(),   hand.base.data(), hand.dirs.data(),
                            hand.bone_of.data(), hand.targets.data()};

  rt::Interp interp;
  std::vector<std::vector<rt::Value>> ba_out(ba_cols.size()), hand_out(hand_cols.size());
  std::vector<double> ba_want, hand_want;
  bool perturb = false;

  // The op's outputs, laid out as the reference lays out its Jacobian: the
  // tangents of the three residual arrays, column after column.
  auto gather = [](const std::vector<std::vector<rt::Value>>& outs) {
    std::vector<double> jac;
    for (const auto& o : outs) {
      for (size_t r = 3; r < 6; ++r) {
        const std::vector<double> t = f64s(o, r);
        jac.insert(jac.end(), t.begin(), t.end());
      }
    }
    return jac;
  };

  ComputeOps ops;
  ops.run_calls = static_cast<int>(ba_cols.size() + hand_cols.size());
  ops.op = [&] {
    for (size_t c = 0; c < ba_cols.size(); ++c) ba_out[c] = run_traced(interp, ba_j, ba_cols[c]);
    for (size_t c = 0; c < hand_cols.size(); ++c) {
      hand_out[c] = run_traced(interp, hand_j, hand_cols[c]);
    }
  };
  ops.ref = [&] {
    ref::ba_jacobian(ba_in, &ba_want);
    ref::hand_jacobian(hand_in, &hand_want);
  };
  ops.check = [&](std::string* why) {
    std::vector<double> hj = gather(hand_out);
    if (perturb && !hj.empty()) hj[0] += 1e-6 * (1.0 + std::fabs(hj[0]));
    perturb = false;
    if (!close(gather(ba_out), ba_want, kRtol, why)) {
      *why = "BA Jacobian vs dual numbers: " + *why;
      return false;
    }
    if (!close(hj, hand_want, kRtol, why)) {
      *why = "HAND Jacobian vs dual numbers: " + *why;
      return false;
    }
    return true;
  };
  ops.perturb = [&] { perturb = true; };
  ops.counters = [&] { return interp.stats().counters(); };
  run_compute(a, sf, ops, rep);
}

}  // namespace perfbench
