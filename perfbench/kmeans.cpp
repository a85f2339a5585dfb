// kmeans_hvp: dense k-means with few centroids and thousands of points. One
// op is one vjp gradient plus one forward-over-reverse Hessian-vector
// product, two Interp::run calls whose time sits almost wholly in the
// generic inline-loop path. The reference is the hand-derived histogram
// gradient and H v = 2 count_k v_k.

#include <cmath>

#include "apps/kmeans.hpp"
#include "ir/typecheck.hpp"
#include "harness.hpp"
#include "reference.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int64_t kK = 5, kN = 1024, kD = 8;
constexpr int kDirections = 8;  // probe directions, cycled op by op
constexpr double kRtol = 1e-9;

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

void run_kmeans_hvp(const Args& a, Report* rep) {
  namespace rt = npad::rt;
  npad::support::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 0x6b6d);
  const npad::apps::KmeansData dt = npad::apps::kmeans_gen(rng, kN, kD, kK);
  std::vector<std::vector<double>> dirs;
  for (int i = 0; i < kDirections; ++i) dirs.push_back(rng.normal_vec(size_t{kK * kD}));

  SetupFigures sf;
  npad::ir::Prog cost = npad::apps::kmeans_ir_cost();
  npad::ir::typecheck(cost);
  // AD first (jvp-of-vjp refuses fused or flattened forms), then optimize.
  npad::ir::Prog grad = differentiate(cost, /*reverse=*/true, &sf);
  npad::ir::Prog hess = differentiate(grad, /*reverse=*/false, &sf);
  grad = optimize(grad, &sf);
  hess = optimize(hess, &sf);

  const rt::Value C = rt::make_f64_array(dt.centroids, {kK, kD});
  const rt::Value P = rt::make_f64_array(dt.points, {kN, kD});
  const std::vector<rt::Value> gargs = {C, P, 1.0};
  std::vector<std::vector<rt::Value>> hargs;
  for (const auto& v : dirs) {
    hargs.push_back({C, P, 1.0, rt::make_f64_array(v, {kK, kD}),
                     rt::make_f64_array(std::vector<double>(size_t{kN * kD}, 0.0), {kN, kD}),
                     0.0});
  }

  rt::Interp interp;
  int cur = 0, prev = -1, next = 0;
  std::vector<rt::Value> gout, hout;
  ref::KmeansOut want;
  std::vector<double> prev_hv;  // C part of H v for the previous op's direction
  bool perturb = false;

  ComputeOps ops;
  ops.run_calls = 2;
  ops.op = [&] {
    cur = next;
    next = (next + 1) % kDirections;
    gout = run_traced(interp, grad, gargs);
    hout = run_traced(interp, hess, hargs[static_cast<size_t>(cur)]);
  };
  ops.ref = [&] {
    ref::kmeans_grad_hvp(dt.centroids.data(), dt.points.data(), kN, kD, kK,
                         dirs[static_cast<size_t>(cur)].data(), &want);
  };
  ops.check = [&](std::string* why) {
    std::vector<double> hv = f64s(hout, 4);
    if (perturb && !hv.empty()) hv[0] += 1e-6 * (1.0 + std::fabs(hv[0]));
    perturb = false;
    bool ok = close(f64s(gout, 0), {want.cost}, kRtol, why) &&
              close(f64s(gout, 1), want.d_c, kRtol, why) &&
              close(f64s(gout, 2), want.d_p, kRtol, why) &&
              close(f64s(hout, 1), want.d_c, kRtol, why) &&
              close(hv, want.hv_c, kRtol, why) && close(f64s(hout, 5), want.hv_p, kRtol, why);
    if (!ok) {
      *why = "k-means vs reference: " + *why;
      return false;
    }
    // Symmetry of the Hessian: <u, H v> = <v, H u> for the previous
    // op's direction u.
    if (prev >= 0 && prev != cur) {
      const auto& u = dirs[static_cast<size_t>(prev)];
      const auto& v = dirs[static_cast<size_t>(cur)];
      const double uhv = dot(u, hv), vhu = dot(v, prev_hv);
      const double scale = 1.0 + std::sqrt(dot(hv, hv) * dot(u, u));
      if (!(std::fabs(uhv - vhu) <= kRtol * scale)) {
        *why = "Hessian symmetry: <u,Hv> = " + std::to_string(uhv) +
               ", <v,Hu> = " + std::to_string(vhu);
        return false;
      }
    }
    prev = cur;
    prev_hv = std::move(hv);
    return true;
  };
  ops.perturb = [&] { perturb = true; };
  ops.counters = [&] { return interp.stats().counters(); };
  run_compute(a, sf, ops, rep);
}

}  // namespace perfbench
