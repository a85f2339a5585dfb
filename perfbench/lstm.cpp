// lstm_grad: LSTM vjp over a short sequence with small batch and hidden
// sizes. One op is one Interp::run whose time loop issues several hundred
// small plan launches (launch arenas, the buffer pool, the special-cased
// dot/axpy loop kernels). The reference is the hand-derived backward pass;
// central differences of the plain-C++ forward on fixed random directions
// check the gradient a second, independent way.

#include <cmath>

#include "apps/lstm.hpp"
#include "harness.hpp"
#include "ir/typecheck.hpp"
#include "reference.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr int64_t kBs = 16, kN = 10, kD = 24, kH = 16;
constexpr double kRtol = 1e-9;
constexpr int kFdDirections = 3;
constexpr double kFdStep = 1e-5, kFdRtol = 1e-6;

}  // namespace

void run_lstm_grad(const Args& a, Report* rep) {
  namespace rt = npad::rt;
  npad::support::Rng rng(a.seed * 0x9e3779b97f4a7c15ull + 0x6c73);
  const npad::apps::LstmData L = npad::apps::lstm_gen(rng, kBs, kN, kD, kH);

  SetupFigures sf;
  npad::ir::Prog obj = npad::apps::lstm_ir_objective();
  npad::ir::typecheck(obj);
  npad::ir::Prog grad = optimize(differentiate(obj, /*reverse=*/true, &sf), &sf);
  std::vector<rt::Value> gargs = npad::apps::lstm_ir_args(L);
  gargs.emplace_back(1.0);

  const ref::LstmIn in{kBs, kN, kD, kH, L.wx.data(), L.wh.data(), L.b.data(), L.x.data()};
  // Central-difference directional derivatives of the reference objective
  // along fixed random directions over (wx, wh, b).
  const size_t nwx = L.wx.size(), nwh = L.wh.size(), nb = L.b.size();
  std::vector<std::vector<double>> fd_dirs;
  std::vector<double> fd;
  for (int k = 0; k < kFdDirections; ++k) {
    std::vector<double> u = rng.normal_vec(nwx + nwh + nb);
    auto shifted = [&](double eps) {
      std::vector<double> wx = L.wx, wh = L.wh, b = L.b;
      for (size_t i = 0; i < nwx; ++i) wx[i] += eps * u[i];
      for (size_t i = 0; i < nwh; ++i) wh[i] += eps * u[nwx + i];
      for (size_t i = 0; i < nb; ++i) b[i] += eps * u[nwx + nwh + i];
      return ref::lstm_objective({kBs, kN, kD, kH, wx.data(), wh.data(), b.data(), L.x.data()});
    };
    fd.push_back((shifted(kFdStep) - shifted(-kFdStep)) / (2 * kFdStep));
    fd_dirs.push_back(std::move(u));
  }

  rt::Interp interp;
  std::vector<rt::Value> out;
  ref::LstmOut want;
  bool perturb = false;

  ComputeOps ops;
  ops.run_calls = 1;
  ops.op = [&] { out = run_traced(interp, grad, gargs); };
  ops.ref = [&] { ref::lstm_grad(in, &want); };
  ops.check = [&](std::string* why) {
    std::vector<double> dwx = f64s(out, 1);
    if (perturb && !dwx.empty()) dwx[0] += 1e-6 * (1.0 + std::fabs(dwx[0]));
    perturb = false;
    const std::vector<double> dwh = f64s(out, 2), db = f64s(out, 3);
    if (!(close(f64s(out, 0), {want.objective}, kRtol, why) &&
          close(dwx, want.d_wx, kRtol, why) && close(dwh, want.d_wh, kRtol, why) &&
          close(db, want.d_b, kRtol, why))) {
      *why = "LSTM vs hand-derived backward: " + *why;
      return false;
    }
    for (int k = 0; k < kFdDirections; ++k) {
      const auto& u = fd_dirs[static_cast<size_t>(k)];
      double dd = 0;
      for (size_t i = 0; i < nwx; ++i) dd += dwx[i] * u[i];
      for (size_t i = 0; i < nwh; ++i) dd += dwh[i] * u[nwx + i];
      for (size_t i = 0; i < nb; ++i) dd += db[i] * u[nwx + nwh + i];
      const double f = fd[static_cast<size_t>(k)];
      if (!(std::fabs(dd - f) <= kFdRtol * (1.0 + std::fabs(f)))) {
        *why = "LSTM directional derivative " + std::to_string(dd) +
               " vs central difference " + std::to_string(f);
        return false;
      }
    }
    return true;
  };
  ops.perturb = [&] { perturb = true; };
  ops.counters = [&] { return interp.stats().counters(); };
  run_compute(a, sf, ops, rep);
}

}  // namespace perfbench
