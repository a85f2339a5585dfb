#pragma once

// Plain-C++ reference derivatives. Each compute workload times its npad
// operation against one of these, run right after it, and reports the ratio;
// the reference's output is also that iteration's correctness oracle.
//
// This header and reference.cpp include no npad header and link no npad
// code: they never enter npad's IR, AD, optimizer or runtime, and the
// benchmark's own build compiles them with fixed flags (CMakeLists.txt).
// They are copies of the repository's hand-derived baselines (k-means,
// LSTM) and of its templated ADBench residuals differentiated with the
// forward-mode dual numbers defined here (BA, HAND).

#include <cstdint>
#include <vector>

namespace perfbench::ref {

// ------------------------------------------------------------- k-means ----
// f(C, P) = sum_i min_k ||p_i - c_k||^2. With a(i) the nearest centroid:
//   df/dc_k = 2 (count_k c_k - sum_{a(i)=k} p_i),  df/dp_i = 2 (p_i - c_a(i)),
//   H v over C = 2 count_k v_k, and its cross term over P = -2 v_a(i).
struct KmeansOut {
  double cost = 0;
  std::vector<double> d_c, d_p;    // k*d, n*d
  std::vector<double> hv_c, hv_p;  // k*d, n*d
};

void kmeans_grad_hvp(const double* C, const double* P, int64_t n, int64_t d, int64_t k,
                     const double* v, KmeansOut* out);

// ---------------------------------------------------------------- LSTM ----
// Objective sum_t sum(h_t^2) of the repository's LSTM cell; the backward
// pass is the hand-derived one of its manual baseline.
struct LstmIn {
  int64_t bs = 0, n = 0, d = 0, h = 0;
  const double* wx = nullptr;  // 4h*d
  const double* wh = nullptr;  // 4h*h
  const double* b = nullptr;   // 4h
  const double* x = nullptr;   // n*bs*d
};

struct LstmOut {
  double objective = 0;
  std::vector<double> d_wx, d_wh, d_b;
};

double lstm_objective(const LstmIn& in);
void lstm_grad(const LstmIn& in, LstmOut* out);

// ----------------------------------------------------------------- GMM ----
// The repository's diagonal GMM log-likelihood with its unit Wishart prior:
// the objective the serving workload's majority requests ask for.
double gmm_objective(const double* alphas, const double* means, const double* qs,
                     const double* x, int64_t n, int64_t d, int64_t k);

// --------------------------------------------------------------- BA -------
struct BaIn {
  int64_t n_cams = 0, n_pts = 0, n_obs = 0;
  const double* cams = nullptr;     // n_cams*11
  const double* pts = nullptr;      // n_pts*3
  const double* weights = nullptr;  // n_obs
  const int64_t* cam_idx = nullptr; // n_obs
  const int64_t* pt_idx = nullptr;  // n_obs
  const double* feats = nullptr;    // n_obs*2
};

// The compressed Jacobian the npad op computes with 15 seed-vector columns
// (11 camera, 3 point, 1 weight parameters): jac[(col*3 + r)*n_obs + o] is
// the derivative of residual r (reprojection x, y, weight) of observation o
// along column col.
void ba_jacobian(const BaIn& in, std::vector<double>* jac);

// ------------------------------------------------------------- HAND -------
struct HandIn {
  int64_t nbones = 0, nverts = 0;
  const double* theta = nullptr;     // 3*nbones
  const double* us = nullptr;        // 2*nverts
  const double* base = nullptr;      // nverts*3
  const double* dirs = nullptr;      // nverts*6
  const int64_t* bone_of = nullptr;  // nverts
  const double* targets = nullptr;   // nverts*3
};

// The complicated model's Jacobian in the npad op's 3*nbones + 2 columns
// (one per theta entry, then all even and all odd us entries at once):
// jac[(col*3 + c)*nverts + v] is the derivative of coordinate c of vertex
// v's residual along column col.
void hand_jacobian(const HandIn& in, std::vector<double>* jac);

} // namespace perfbench::ref
