#include "krylov/batch.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "krylov/cacg_detail.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::krylov {

using detail::BasisCoeffs;
using detail::Small;

// Both batched solvers keep b fully independent per-RHS recurrences:
// every floating-point operation an RHS sees is the same whatever
// else is in the batch, in the same order, so the iterates are
// bitwise-identical for any batch composition.  Nothing is shared
// and nothing is charged: these bodies are the per-RHS numerical
// reference the distributed solvers are pinned against at P = 1, and
// a solve's slow-memory words are counted on the Machine (see
// batch.hpp).  krylov::cg and krylov::ca_cg are these bodies at
// nrhs == 1.  CA-CG builds each RHS's whole basis in either storage
// mode: stored and streaming compute the same bits, so CaCgOptions'
// mode and block_rows change only what a Machine charges.

namespace {

void check_panels(std::size_t n, std::size_t nrhs, std::size_t bsz,
                  std::size_t xsz, const char* who) {
  if (bsz < n * nrhs || xsz < n * nrhs) {
    throw std::invalid_argument(std::string(who) +
                                ": panel spans must hold n*nrhs words");
  }
}

}  // namespace

BatchResult cg_batch(const sparse::Csr& A, std::span<const double> B,
                     std::span<double> X, std::size_t nrhs,
                     std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  check_panels(n, nrhs, B.size(), X.size(), "cg_batch");
  BatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> w(nrhs, std::vector<double>(n));
  std::vector<double> delta(nrhs), stop(nrhs);
  std::vector<char> done(nrhs, 0);

  // r = b - A x ; p = r.
  for (std::size_t j = 0; j < nrhs; ++j) {
    const auto bj = B.subspan(j * n, n);
    const auto xj = X.subspan(j * n, n);
    sparse::spmv(A, xj, w[j]);
    for (std::size_t i = 0; i < n; ++i) {
      r[j][i] = bj[i] - w[j][i];
      p[j][i] = r[j][i];
    }
    delta[j] = sparse::dot(r[j], r[j]);
    stop[j] = tol * tol * sparse::dot(bj, bj);
  }

  for (std::size_t it = 0; it < max_iters; ++it) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (done[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        done[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;

    for (const std::size_t j : act) {
      const auto xj = X.subspan(j * n, n);
      sparse::spmv(A, p[j], w[j]);
      const double alpha = delta[j] / sparse::dot(p[j], w[j]);
      sparse::axpy(alpha, p[j], xj);
      sparse::axpy(-alpha, w[j], r[j]);
      const double delta_new = sparse::dot(r[j], r[j]);
      const double beta = delta_new / delta[j];
      delta[j] = delta_new;
      for (std::size_t i = 0; i < n; ++i) p[j][i] = r[j][i] + beta * p[j][i];
      ++out.rhs[j].iterations;
    }
  }

  detail::finish_rhs(A, B, X, tol, 1.0, out.rhs);
  return out;
}

BatchResult ca_cg_batch(const sparse::Csr& A, std::span<const double> B,
                        std::span<double> X, std::size_t nrhs,
                        const CaCgOptions& opt) {
  const std::size_t n = A.n;
  const std::size_t s = opt.s;
  if (s == 0) throw std::invalid_argument("ca_cg_batch: s >= 1");
  check_panels(n, nrhs, B.size(), X.size(), "ca_cg_batch");
  const std::size_t m = 2 * s + 1;
  const BasisCoeffs bc =
      detail::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  BatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<double> delta(nrhs), stop(nrhs), delta_enter(nrhs);
  std::vector<char> finished(nrhs, 0);
  std::vector<std::size_t> restarts(nrhs, 0);
  constexpr std::size_t kMaxRestarts = 25;

  {
    std::vector<double> tmp(n);
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto bj = B.subspan(j * n, n);
      sparse::spmv(A, X.subspan(j * n, n), tmp);
      for (std::size_t i = 0; i < n; ++i) {
        r[j][i] = bj[i] - tmp[i];
        p[j][i] = r[j][i];
      }
      delta[j] = sparse::dot(r[j], r[j]);
      stop[j] = opt.tol * opt.tol * sparse::dot(bj, bj);
    }
  }

  std::vector<std::vector<double>> x_snap(nrhs), p_snap(nrhs), r_snap(nrhs);

  for (std::size_t outer = 0; outer < opt.max_outer; ++outer) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (finished[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        finished[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;

    for (const std::size_t j : act) {
      delta_enter[j] = delta[j];
      const auto xj = X.subspan(j * n, n);
      x_snap[j].assign(xj.begin(), xj.end());
      p_snap[j] = p[j];
      r_snap[j] = r[j];
    }

    // The basis [p, Ap, .., A^s p, r, Ar, .., A^(s-1) r] of every
    // active RHS, whole, then its Gram matrix.
    std::vector<Small> G(nrhs, Small(m));
    std::vector<std::vector<std::vector<double>>> V(nrhs);
    for (const std::size_t j : act) {
      V[j].assign(m, std::vector<double>(n, 0.0));
      V[j][0] = p[j];
      V[j][s + 1] = r[j];
    }
    for (std::size_t lev = 0; lev < s; ++lev) {
      for (const std::size_t j : act) {
        sparse::spmv(A, V[j][lev], V[j][lev + 1]);
        for (std::size_t i = 0; i < n; ++i) {
          V[j][lev + 1][i] =
              (V[j][lev + 1][i] - bc.theta[lev] * V[j][lev][i]) / bc.sigma;
        }
      }
    }
    for (std::size_t lev = 0; lev + 1 < s; ++lev) {
      for (const std::size_t j : act) {
        sparse::spmv(A, V[j][s + 1 + lev], V[j][s + 1 + lev + 1]);
        for (std::size_t i = 0; i < n; ++i) {
          V[j][s + 1 + lev + 1][i] =
              (V[j][s + 1 + lev + 1][i] -
               bc.theta[lev] * V[j][s + 1 + lev][i]) /
              bc.sigma;
        }
      }
    }
    for (const std::size_t j : act) {
      std::vector<const double*> vp(m);
      for (std::size_t a = 0; a < m; ++a) vp[a] = V[j][a].data();
      linalg::active_kernels().gram_upper_acc(G[j].a.data(), m, vp.data(), 0,
                                              n);
      linalg::gram_mirror(G[j].a.data(), m);
    }

    // ---- Inner s steps in coordinates, per RHS.  A breakdown only
    // retires that RHS: its iterates keep their entry values.
    std::vector<std::vector<double>> xh(nrhs), ph(nrhs), rh(nrhs);
    std::vector<std::size_t> act2;
    for (const std::size_t j : act) {
      xh[j].assign(m, 0.0);
      ph[j].assign(m, 0.0);
      rh[j].assign(m, 0.0);
      ph[j][0] = 1.0;
      rh[j][s + 1] = 1.0;
      const auto inner =
          detail::inner_steps(s, bc, G[j], xh[j], ph[j], rh[j], delta[j]);
      if (inner.breakdown) {
        finished[j] = 1;
        continue;
      }
      out.rhs[j].iterations += s;
      act2.push_back(j);
    }
    if (act2.empty()) continue;

    // Recovery: [p, r, x] = [P, R] [ph, rh, xh] + [0, 0, x].
    for (const std::size_t j : act2) {
      const auto xj = X.subspan(j * n, n);
      for (std::size_t i = 0; i < n; ++i) {
        double np = 0, nr = 0, nx = xj[i];
        for (std::size_t a = 0; a < m; ++a) {
          np += V[j][a][i] * ph[j][a];
          nr += V[j][a][i] * rh[j][a];
          nx += V[j][a][i] * xh[j][a];
        }
        p[j][i] = np;
        r[j][i] = nr;
        xj[i] = nx;
      }
    }

    // Recompute delta from the recovered residual; a large
    // disagreement flags basis breakdown and rolls that RHS back.
    std::vector<std::size_t> restart_set;
    for (const std::size_t j : act2) {
      const double delta_true = sparse::dot(r[j], r[j]);
      if (!std::isfinite(delta_true) ||
          delta_true > 16.0 * delta_enter[j]) {
        if (++restarts[j] > kMaxRestarts) {
          finished[j] = 1;
          continue;
        }
        out.rhs[j].iterations -= s;
        const auto xj = X.subspan(j * n, n);
        std::copy(x_snap[j].begin(), x_snap[j].end(), xj.begin());
        for (std::size_t i = 0; i < n; ++i) {
          p[j][i] = p_snap[j][i];
          r[j][i] = r_snap[j][i];
        }
        delta[j] = delta_enter[j];
        restart_set.push_back(j);
      } else {
        delta[j] = delta_true;
      }
    }

    // Classical-CG fallback for the rolled-back RHS: s steps for every
    // RHS still in the fallback.  A non-positive or non-finite den
    // retires that RHS from the fallback only (it rejoins the outer
    // loop).
    if (!restart_set.empty()) {
      std::vector<std::vector<double>> w(nrhs);
      std::vector<char> fb_done(nrhs, 0);
      for (std::size_t step = 0; step < s; ++step) {
        std::vector<std::size_t> R;
        for (const std::size_t j : restart_set) {
          if (!fb_done[j] && delta[j] > stop[j]) R.push_back(j);
        }
        if (R.empty()) break;
        for (const std::size_t j : R) {
          if (w[j].empty()) w[j].assign(n, 0.0);
          sparse::spmv(A, p[j], w[j]);
          const double den = sparse::dot(p[j], w[j]);
          if (den <= 0 || !std::isfinite(den)) {
            fb_done[j] = 1;
            continue;
          }
          const double alpha = delta[j] / den;
          const auto xj = X.subspan(j * n, n);
          for (std::size_t i = 0; i < n; ++i) {
            xj[i] += alpha * p[j][i];
            r[j][i] -= alpha * w[j][i];
          }
          const double dn = sparse::dot(r[j], r[j]);
          const double beta = dn / delta[j];
          delta[j] = dn;
          for (std::size_t i = 0; i < n; ++i) {
            p[j][i] = r[j][i] + beta * p[j][i];
          }
          ++out.rhs[j].iterations;
        }
      }
    }
  }

  detail::finish_rhs(A, B, X, opt.tol, 10.0, out.rhs);
  return out;
}

}  // namespace wa::krylov
