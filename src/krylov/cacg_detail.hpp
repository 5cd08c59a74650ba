#pragma once
// wa::krylov::detail -- the numerical core shared by the
// shared-memory solvers (krylov/batch.cpp) and the distributed ones
// (dist/krylov.cpp): basis recurrence coefficients, the coordinate-
// space inner steps, the row-wise kernels, and the result tail every
// solver body ends in.  Both layers MUST run the identical arithmetic
// in the identical order -- the distributed solvers are pinned
// bitwise-equal to the shared-memory ones on P = 1 -- so these live in
// one header instead of two anonymous namespaces that could drift
// apart.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::krylov::detail {

/// Infinity-norm estimate used to scale the monomial basis
/// (rho_{j+1}(A) y = A rho_j(A) y / sigma keeps columns near unit
/// norm, which keeps the Gram matrix usable for moderate s).
inline double inf_norm(const sparse::Csr& A) {
  double m = 0;
  for (std::size_t i = 0; i < A.n; ++i) {
    double s = 0;
    for (std::size_t p = A.row_ptr[i]; p < A.row_ptr[i + 1]; ++p) {
      s += std::abs(A.values[p]);
    }
    m = std::max(m, s);
  }
  return m == 0 ? 1.0 : m;
}

/// Dense symmetric m-by-m matrix in a flat vector.
struct Small {
  std::size_t m;
  std::vector<double> a;
  explicit Small(std::size_t mm) : m(mm), a(mm * mm, 0.0) {}
  double& operator()(std::size_t i, std::size_t j) { return a[i * m + j]; }
  double operator()(std::size_t i, std::size_t j) const {
    return a[i * m + j];
  }
};

inline double quad(const Small& G, std::span<const double> u,
                   std::span<const double> v) {
  double s = 0;
  for (std::size_t i = 0; i < G.m; ++i) {
    double t = 0;
    for (std::size_t j = 0; j < G.m; ++j) t += G(i, j) * v[j];
    s += u[i] * t;
  }
  return s;
}

/// Basis recurrence coefficients: rho_{j+1}(A) y = (A - theta_j I)
/// rho_j(A) y / sigma.  Monomial: theta = 0; Newton: Leja-ordered
/// Chebyshev points on the Gershgorin interval.
struct BasisCoeffs {
  std::vector<double> theta;  // length s
  double sigma = 1.0;
};

// CaCgBasis lives in krylov/cacg.hpp, which includes this header only
// from the .cpp side; take the basis kind as a bool to keep the two
// headers dependency-free of each other.
inline BasisCoeffs make_basis(const sparse::Csr& A, std::size_t s,
                              bool newton) {
  BasisCoeffs bc;
  bc.theta.assign(s, 0.0);
  if (!newton) {
    bc.sigma = inf_norm(A);
    return bc;
  }
  // Gershgorin bounds.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::size_t i = 0; i < A.n; ++i) {
    double diag = 0, off = 0;
    for (std::size_t p = A.row_ptr[i]; p < A.row_ptr[i + 1]; ++p) {
      if (A.col_idx[p] == i) {
        diag = A.values[p];
      } else {
        off += std::abs(A.values[p]);
      }
    }
    lo = std::min(lo, diag - off);
    hi = std::max(hi, diag + off);
  }
  const double center = 0.5 * (lo + hi);
  const double radius = std::max(0.5 * (hi - lo), 1e-30);
  // Chebyshev points of the interval...
  std::vector<double> pts(s);
  for (std::size_t k = 0; k < s; ++k) {
    pts[k] = center +
             radius * std::cos((2.0 * double(k) + 1.0) /
                               (2.0 * double(s)) * std::numbers::pi);
  }
  // ...in Leja order (greedy max-distance-product), the standard
  // stabilization for Newton bases.
  std::vector<bool> used(s, false);
  for (std::size_t j = 0; j < s; ++j) {
    std::size_t best = s;
    double best_val = -1;
    for (std::size_t k = 0; k < s; ++k) {
      if (used[k]) continue;
      double val = j == 0 ? std::abs(pts[k]) : 1.0;
      for (std::size_t t = 0; t < j; ++t) {
        val *= std::abs(pts[k] - bc.theta[t]);
      }
      if (val > best_val) {
        best_val = val;
        best = k;
      }
    }
    used[best] = true;
    bc.theta[j] = pts[best];
  }
  bc.sigma = radius;
  return bc;
}

/// w = H * p for the shifted basis: A [P,R](:,i) = sigma * next +
/// theta_i * same, within both the P block (cols 0..s) and the R
/// block (cols s+1..2s).
inline void apply_h(std::size_t s, const BasisCoeffs& bc,
                    std::span<const double> p, std::span<double> w) {
  std::fill(w.begin(), w.end(), 0.0);
  for (std::size_t i = 0; i < s; ++i) {
    w[i + 1] += bc.sigma * p[i];
    w[i] += bc.theta[i] * p[i];
  }
  for (std::size_t i = 0; i + 1 < s; ++i) {
    w[s + 1 + i + 1] += bc.sigma * p[s + 1 + i];
    w[s + 1 + i] += bc.theta[i] * p[s + 1 + i];
  }
}

/// Inner s-step loop shared by both modes and both solvers.  Returns
/// delta after the last step; coordinate vectors are updated in place.
struct InnerResult {
  double delta;
  bool breakdown;
};

inline InnerResult inner_steps(std::size_t s, const BasisCoeffs& bc,
                               const Small& G, std::vector<double>& xh,
                               std::vector<double>& ph,
                               std::vector<double>& rh, double& delta) {
  const std::size_t m = 2 * s + 1;
  std::vector<double> wh(m);
  for (std::size_t j = 0; j < s; ++j) {
    apply_h(s, bc, ph, wh);
    const double den = quad(G, ph, wh);
    if (den == 0.0 || !std::isfinite(den)) return {delta, true};
    const double alpha = delta / den;
    for (std::size_t i = 0; i < m; ++i) {
      xh[i] += alpha * ph[i];
      rh[i] -= alpha * wh[i];
    }
    const double delta_new = quad(G, rh, rh);
    if (!std::isfinite(delta_new)) return {delta, true};
    const double beta = delta_new / delta;
    delta = delta_new;
    for (std::size_t i = 0; i < m; ++i) ph[i] = rh[i] + beta * ph[i];
  }
  return {delta, false};
}

/// The tail of every solver body: each RHS's true residual
/// ||b - A x|| of its final iterate (computed globally, never
/// charged), and for an RHS the loop did not already mark converged,
/// whether that residual is within (tol * ||b||) * slack -- slack 1
/// for CG, 10 for CA-CG, whose s-step recurrence lets the updated
/// residual drift further from the true one.  B and X are
/// column-major n x rhs.size() panels.
inline void finish_rhs(const sparse::Csr& A, std::span<const double> B,
                       std::span<const double> X, double tol, double slack,
                       std::vector<SolveResult>& rhs) {
  const std::size_t n = A.n;
  std::vector<double> ax(n);
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    const auto bj = B.subspan(j * n, n);
    sparse::spmv(A, X.subspan(j * n, n), ax);
    double rn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = bj[i] - ax[i];
      rn += d * d;
    }
    rhs[j].residual_norm = std::sqrt(rn);
    if (!rhs[j].converged) {
      rhs[j].converged =
          rhs[j].residual_norm <= tol * sparse::norm2(bj) * slack;
    }
  }
}

}  // namespace wa::krylov::detail
