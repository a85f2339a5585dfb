#include "reference.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench::ref {

namespace {

size_t z(int64_t i) { return static_cast<size_t>(i); }

} // namespace

// ------------------------------------------------------------- k-means ----

void kmeans_grad_hvp(const double* C, const double* P, int64_t n, int64_t d, int64_t k,
                     const double* v, KmeansOut* out) {
  out->cost = 0;
  out->d_c.assign(z(k * d), 0.0);
  out->d_p.assign(z(n * d), 0.0);
  out->hv_c.assign(z(k * d), 0.0);
  out->hv_p.assign(z(n * d), 0.0);
  std::vector<double> counts(z(k), 0.0), sums(z(k * d), 0.0);
  for (int64_t i = 0; i < n; ++i) {
    const double* p = P + i * d;
    double best = 1e300;
    int64_t a = 0;
    for (int64_t c = 0; c < k; ++c) {
      const double* cc = C + c * d;
      double s = 0;
      for (int64_t j = 0; j < d; ++j) {
        const double t = p[j] - cc[j];
        s += t * t;
      }
      if (s < best) {
        best = s;
        a = c;
      }
    }
    out->cost += best;
    counts[z(a)] += 1.0;
    for (int64_t j = 0; j < d; ++j) {
      sums[z(a * d + j)] += p[j];
      out->d_p[z(i * d + j)] = 2.0 * (p[j] - C[a * d + j]);
      out->hv_p[z(i * d + j)] = -2.0 * v[a * d + j];
    }
  }
  for (int64_t c = 0; c < k; ++c) {
    for (int64_t j = 0; j < d; ++j) {
      const size_t ix = z(c * d + j);
      out->d_c[ix] = 2.0 * (counts[z(c)] * C[ix] - sums[ix]);
      out->hv_c[ix] = 2.0 * counts[z(c)] * v[ix];
    }
  }
}

// ---------------------------------------------------------------- LSTM ----

namespace {

struct LstmActs {
  // Per time step: gates and states, each bs*h.
  std::vector<std::vector<double>> ig, fg, og, cg, c, h, cprev, hprev;
};

double lstm_forward(const LstmIn& L, LstmActs* acts) {
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  std::vector<double> hS(z(bs * h), 0.0), cS(z(bs * h), 0.0);
  double loss = 0;
  for (int64_t t = 0; t < n; ++t) {
    std::vector<double> ig(z(bs * h)), fg(ig), og(ig), cg(ig);
    std::vector<double> hprev = hS, cprev = cS;
    const double* xt = L.x + t * bs * d;
    for (int64_t r = 0; r < bs; ++r) {
      for (int64_t j = 0; j < h; ++j) {
        double pre[4];
        for (int g = 0; g < 4; ++g) {
          const int64_t row = g * h + j;
          double s = L.b[row];
          const double* wxr = L.wx + row * d;
          for (int64_t q = 0; q < d; ++q) s += wxr[q] * xt[r * d + q];
          const double* whr = L.wh + row * h;
          for (int64_t q = 0; q < h; ++q) s += whr[q] * hprev[z(r * h + q)];
          pre[g] = s;
        }
        const size_t ix = z(r * h + j);
        ig[ix] = 1.0 / (1.0 + std::exp(-pre[0]));
        fg[ix] = 1.0 / (1.0 + std::exp(-pre[1]));
        og[ix] = 1.0 / (1.0 + std::exp(-pre[2]));
        cg[ix] = std::tanh(pre[3]);
        cS[ix] = fg[ix] * cprev[ix] + ig[ix] * cg[ix];
        hS[ix] = og[ix] * std::tanh(cS[ix]);
        loss += hS[ix] * hS[ix];
      }
    }
    if (acts) {
      acts->ig.push_back(ig);
      acts->fg.push_back(fg);
      acts->og.push_back(og);
      acts->cg.push_back(cg);
      acts->c.push_back(cS);
      acts->h.push_back(hS);
      acts->cprev.push_back(cprev);
      acts->hprev.push_back(hprev);
    }
  }
  return loss;
}

} // namespace

double lstm_objective(const LstmIn& in) { return lstm_forward(in, nullptr); }

void lstm_grad(const LstmIn& L, LstmOut* r) {
  const int64_t bs = L.bs, n = L.n, d = L.d, h = L.h;
  LstmActs acts;
  r->objective = lstm_forward(L, &acts);
  r->d_wx.assign(z(4 * h * d), 0.0);
  r->d_wh.assign(z(4 * h * h), 0.0);
  r->d_b.assign(z(4 * h), 0.0);
  std::vector<double> dh(z(bs * h), 0.0), dc(z(bs * h), 0.0);
  for (int64_t t = n - 1; t >= 0; --t) {
    const double* xt = L.x + t * bs * d;
    const auto& ig = acts.ig[z(t)];
    const auto& fg = acts.fg[z(t)];
    const auto& og = acts.og[z(t)];
    const auto& cg = acts.cg[z(t)];
    const auto& cS = acts.c[z(t)];
    const auto& hS = acts.h[z(t)];
    const auto& cprev = acts.cprev[z(t)];
    const auto& hprev = acts.hprev[z(t)];
    std::vector<double> dh_next(z(bs * h), 0.0), dc_next(z(bs * h), 0.0);
    for (int64_t rr = 0; rr < bs; ++rr) {
      for (int64_t j = 0; j < h; ++j) {
        const size_t ix = z(rr * h + j);
        const double dht = dh[ix] + 2.0 * hS[ix];  // the loss adds 2h each step
        const double tc = std::tanh(cS[ix]);
        const double dog = dht * tc;
        const double dct = dht * og[ix] * (1.0 - tc * tc) + dc[ix];
        const double dig = dct * cg[ix];
        const double dfg = dct * cprev[ix];
        const double dcg = dct * ig[ix];
        dc_next[ix] = dct * fg[ix];
        const double dpre[4] = {dig * ig[ix] * (1 - ig[ix]), dfg * fg[ix] * (1 - fg[ix]),
                                dog * og[ix] * (1 - og[ix]), dcg * (1 - cg[ix] * cg[ix])};
        for (int g = 0; g < 4; ++g) {
          const int64_t row = g * h + j;
          r->d_b[z(row)] += dpre[g];
          double* dwxr = r->d_wx.data() + row * d;
          for (int64_t q = 0; q < d; ++q) dwxr[q] += dpre[g] * xt[rr * d + q];
          double* dwhr = r->d_wh.data() + row * h;
          const double* whr = L.wh + row * h;
          for (int64_t q = 0; q < h; ++q) {
            dwhr[q] += dpre[g] * hprev[z(rr * h + q)];
            dh_next[z(rr * h + q)] += dpre[g] * whr[q];
          }
        }
      }
    }
    dh = std::move(dh_next);
    dc = std::move(dc_next);
  }
}

// ----------------------------------------------------------------- GMM ----

double gmm_objective(const double* alphas, const double* means, const double* qs,
                     const double* x, int64_t n, int64_t d, int64_t k) {
  double total = 0;
  std::vector<double> qsum(z(k), 0.0), inner(z(k));
  for (int64_t c = 0; c < k; ++c)
    for (int64_t j = 0; j < d; ++j) qsum[z(c)] += qs[c * d + j];
  for (int64_t i = 0; i < n; ++i) {
    double mx = -1e300;
    for (int64_t c = 0; c < k; ++c) {
      double sq = 0;
      for (int64_t j = 0; j < d; ++j) {
        const double w = (x[i * d + j] - means[c * d + j]) * std::exp(qs[c * d + j]);
        sq += w * w;
      }
      inner[z(c)] = alphas[c] + qsum[z(c)] - 0.5 * sq;
      mx = std::max(mx, inner[z(c)]);
    }
    double den = 0;
    for (int64_t c = 0; c < k; ++c) den += std::exp(inner[z(c)] - mx);
    total += mx + std::log(den);
  }
  double amx = -1e300;
  for (int64_t c = 0; c < k; ++c) amx = std::max(amx, alphas[c]);
  double aden = 0;
  for (int64_t c = 0; c < k; ++c) aden += std::exp(alphas[c] - amx);
  total -= static_cast<double>(n) * (amx + std::log(aden));
  for (int64_t c = 0; c < k; ++c)
    for (int64_t j = 0; j < d; ++j) total += 0.5 * std::exp(2.0 * qs[c * d + j]) - qs[c * d + j];
  return total;
}

// ------------------------------------------------------- dual numbers -----

namespace {

// Forward-mode dual number: value and one directional derivative.
struct Dual {
  double v = 0, t = 0;
  Dual() = default;
  Dual(double value, double tangent = 0) : v(value), t(tangent) {}  // NOLINT
};

Dual operator+(Dual a, Dual b) { return {a.v + b.v, a.t + b.t}; }
Dual operator-(Dual a, Dual b) { return {a.v - b.v, a.t - b.t}; }
Dual operator*(Dual a, Dual b) { return {a.v * b.v, a.t * b.v + a.v * b.t}; }
Dual operator/(Dual a, Dual b) { return {a.v / b.v, (a.t * b.v - a.v * b.t) / (b.v * b.v)}; }
Dual operator+(double a, Dual b) { return Dual(a) + b; }
Dual operator-(double a, Dual b) { return Dual(a) - b; }
Dual operator*(double a, Dual b) { return Dual(a) * b; }
Dual operator/(double a, Dual b) { return Dual(a) / b; }
Dual sin(Dual a) { return {std::sin(a.v), a.t * std::cos(a.v)}; }
Dual cos(Dual a) { return {std::cos(a.v), -a.t * std::sin(a.v)}; }
Dual sqrt(Dual a) {
  const double s = std::sqrt(a.v);
  return {s, a.t / (2.0 * s)};
}

// Copy of the repository's templated BA projection (apps/ba.hpp).
template <class Real>
void ba_project(const Real cam[11], const Real X[3], Real out[2]) {
  using std::cos;
  using std::sin;
  using std::sqrt;
  Real d0 = X[0] - cam[3], d1 = X[1] - cam[4], d2 = X[2] - cam[5];
  const Real &r0 = cam[0], &r1 = cam[1], &r2 = cam[2];
  Real theta2 = r0 * r0 + r1 * r1 + r2 * r2 + Real(1e-12);
  Real theta = sqrt(theta2);
  Real c = cos(theta), s = sin(theta);
  Real it = 1.0 / theta;
  Real w0 = r0 * it, w1 = r1 * it, w2 = r2 * it;
  Real wd = w0 * d0 + w1 * d1 + w2 * d2;
  Real cx0 = w1 * d2 - w2 * d1, cx1 = w2 * d0 - w0 * d2, cx2 = w0 * d1 - w1 * d0;
  Real p0 = d0 * c + cx0 * s + w0 * wd * (1.0 - c);
  Real p1 = d1 * c + cx1 * s + w1 * wd * (1.0 - c);
  Real p2 = d2 * c + cx2 * s + w2 * wd * (1.0 - c);
  Real ix = p0 / p2, iy = p1 / p2;
  Real rr = ix * ix + iy * iy;
  Real distort = 1.0 + cam[9] * rr + cam[10] * rr * rr;
  out[0] = cam[6] * distort * ix + cam[7];
  out[1] = cam[6] * distort * iy + cam[8];
}

// Copy of the repository's templated HAND residuals (apps/hand.hpp), over
// raw arrays.
template <class Real>
void hand_residuals(const HandIn& d, const Real* theta, const Real* us, Real* out) {
  using std::cos;
  using std::sin;
  const int64_t nb = d.nbones, nv = d.nverts;
  std::vector<Real> R(z(nb * 9));
  Real prev[9] = {Real(1.0), Real(0.0), Real(0.0), Real(0.0), Real(1.0),
                  Real(0.0), Real(0.0), Real(0.0), Real(1.0)};
  for (int64_t b = 0; b < nb; ++b) {
    const Real& ax = theta[3 * b];
    const Real& ay = theta[3 * b + 1];
    const Real& az = theta[3 * b + 2];
    Real cx = cos(ax), sx = sin(ax), cy = cos(ay), sy = sin(ay), cz = cos(az), sz = sin(az);
    // R = Rz * Ry * Rx
    Real rot[9] = {cz * cy,
                   cz * sy * sx - sz * cx,
                   cz * sy * cx + sz * sx,
                   sz * cy,
                   sz * sy * sx + cz * cx,
                   sz * sy * cx - cz * sx,
                   Real(0.0) - sy,
                   cy * sx,
                   cy * cx};
    Real cur[9];
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        Real s(0.0);
        for (int k = 0; k < 3; ++k) s = s + prev[i * 3 + k] * rot[k * 3 + j];
        cur[i * 3 + j] = s;
      }
    }
    for (int i = 0; i < 9; ++i) {
      R[z(b * 9 + i)] = cur[i];
      prev[i] = cur[i];
    }
  }
  for (int64_t v = 0; v < nv; ++v) {
    Real pos[3];
    for (int i = 0; i < 3; ++i) pos[i] = Real(d.base[v * 3 + i]);
    for (int i = 0; i < 3; ++i) {
      pos[i] = pos[i] + us[2 * v] * Real(d.dirs[v * 6 + i]) +
               us[2 * v + 1] * Real(d.dirs[v * 6 + 3 + i]);
    }
    const Real* Rb = R.data() + d.bone_of[v] * 9;
    for (int i = 0; i < 3; ++i) {
      Real s = Rb[i * 3] * pos[0] + Rb[i * 3 + 1] * pos[1] + Rb[i * 3 + 2] * pos[2];
      out[v * 3 + i] = s - Real(d.targets[v * 3 + i]);
    }
  }
}

} // namespace

void ba_jacobian(const BaIn& in, std::vector<double>* jac) {
  const int64_t p = in.n_obs;
  jac->assign(z(15 * 3 * p), 0.0);
  for (int64_t o = 0; o < p; ++o) {
    const double* cam = in.cams + in.cam_idx[o] * 11;
    const double* X = in.pts + in.pt_idx[o] * 3;
    for (int col = 0; col < 15; ++col) {
      Dual dc[11], dx[3];
      for (int j = 0; j < 11; ++j) dc[j] = Dual(cam[j], col == j ? 1.0 : 0.0);
      for (int j = 0; j < 3; ++j) dx[j] = Dual(X[j], col == 11 + j ? 1.0 : 0.0);
      const Dual w(in.weights[o], col == 14 ? 1.0 : 0.0);
      Dual proj[2];
      ba_project(dc, dx, proj);
      const Dual e0 = w * (proj[0] - Dual(in.feats[o * 2]));
      const Dual e1 = w * (proj[1] - Dual(in.feats[o * 2 + 1]));
      const Dual werr = 1.0 - w * w;
      (*jac)[z((col * 3 + 0) * p + o)] = e0.t;
      (*jac)[z((col * 3 + 1) * p + o)] = e1.t;
      (*jac)[z((col * 3 + 2) * p + o)] = werr.t;
    }
  }
}

void hand_jacobian(const HandIn& in, std::vector<double>* jac) {
  const int64_t nb = in.nbones, nv = in.nverts, ncols = 3 * nb + 2;
  jac->assign(z(ncols * 3 * nv), 0.0);
  std::vector<Dual> th(z(3 * nb)), us(z(2 * nv)), out(z(3 * nv));
  for (int64_t col = 0; col < ncols; ++col) {
    for (int64_t i = 0; i < 3 * nb; ++i) th[z(i)] = Dual(in.theta[i], col == i ? 1.0 : 0.0);
    for (int64_t i = 0; i < 2 * nv; ++i) {
      us[z(i)] = Dual(in.us[i], col >= 3 * nb && i % 2 == col - 3 * nb ? 1.0 : 0.0);
    }
    hand_residuals(in, th.data(), us.data(), out.data());
    for (int64_t v = 0; v < nv; ++v) {
      for (int c = 0; c < 3; ++c) (*jac)[z((col * 3 + c) * nv + v)] = out[z(v * 3 + c)].t;
    }
  }
}

} // namespace perfbench::ref
