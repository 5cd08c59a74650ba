#include "core/traced_kernels.hpp"

#include <cmath>
#include <stdexcept>

#include "core/loop_order.hpp"
#include "core/nbody.hpp"

namespace wa::core {

namespace {

using TMat = cachesim::TracedMatrix<double>;

// In-block micro-kernels over traced elements.  Only the block-level
// order matters to Propositions 6.1/6.2; these run simple elementwise
// loops inside a resident block set.

/// C[bi] -= A[bk] * B[bj] over b-by-b blocks at the given offsets.
void micro_gemm_neg(TMat& C, std::size_t ci, std::size_t cj, const TMat& A,
                    std::size_t ai, std::size_t aj, const TMat& B,
                    std::size_t bi, std::size_t bj, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t k = 0; k < b; ++k) {
      const double a = A.get(ai + i, aj + k);
      for (std::size_t j = 0; j < b; ++j) {
        C.add(ci + i, cj + j, -a * B.get(bi + k, bj + j));
      }
    }
  }
}

/// C -= A * A^T restricted to the lower triangle (SYRK).
void micro_syrk_neg(TMat& C, std::size_t ci, std::size_t cj, const TMat& A,
                    std::size_t ai, std::size_t aj, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < b; ++k) {
        s += A.get(ai + i, aj + k) * A.get(ai + j, aj + k);
      }
      C.add(ci + i, cj + j, -s);
    }
  }
}

/// Solve T(d,d) X = B in place (T upper triangular block).
void micro_trsm_left_upper(const TMat& T, std::size_t ti, std::size_t tj,
                           TMat& B, std::size_t bi, std::size_t bj,
                           std::size_t b) {
  for (std::size_t j = 0; j < b; ++j) {
    for (std::size_t i = b; i-- > 0;) {
      double s = B.get(bi + i, bj + j);
      for (std::size_t k = i + 1; k < b; ++k) {
        s -= T.get(ti + i, tj + k) * B.get(bi + k, bj + j);
      }
      B.set(bi + i, bj + j, s / T.get(ti + i, tj + i));
    }
  }
}

/// Solve X L^T = B in place (L lower triangular block).
void micro_trsm_rlt(const TMat& L, std::size_t li, std::size_t lj, TMat& B,
                    std::size_t bi, std::size_t bj, std::size_t b) {
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      double s = B.get(bi + i, bj + j);
      for (std::size_t k = 0; k < j; ++k) {
        s -= B.get(bi + i, bj + k) * L.get(li + j, lj + k);
      }
      B.set(bi + i, bj + j, s / L.get(li + j, lj + j));
    }
  }
}

/// In-place Cholesky of a diagonal block's lower triangle.
void micro_cholesky(TMat& A, std::size_t ai, std::size_t aj, std::size_t b) {
  for (std::size_t j = 0; j < b; ++j) {
    double d = A.get(ai + j, aj + j);
    for (std::size_t k = 0; k < j; ++k) {
      const double v = A.get(ai + j, aj + k);
      d -= v * v;
    }
    if (d <= 0.0) throw std::domain_error("traced cholesky: bad pivot");
    const double ljj = std::sqrt(d);
    A.set(ai + j, aj + j, ljj);
    for (std::size_t i = j + 1; i < b; ++i) {
      double s = A.get(ai + i, aj + j);
      for (std::size_t k = 0; k < j; ++k) {
        s -= A.get(ai + i, aj + k) * A.get(ai + j, aj + k);
      }
      A.set(ai + i, aj + j, s / ljj);
    }
  }
}

}  // namespace

void traced_trsm_wa(const TMat& T, TMat& B, std::size_t b) {
  check_block_sizes({&b, 1}, "traced_trsm_wa");
  const std::size_t n = T.rows();
  if (n % b != 0 || B.cols() % b != 0 || B.rows() != n) {
    throw std::invalid_argument("traced_trsm: bad shapes");
  }
  const std::size_t nb = n / b, nj = B.cols() / b;
  for (std::size_t j = 0; j < nj; ++j) {
    for (std::size_t i = nb; i-- > 0;) {
      for (std::size_t k = i + 1; k < nb; ++k) {
        micro_gemm_neg(B, i * b, j * b, T, i * b, k * b, B, k * b, j * b, b);
      }
      micro_trsm_left_upper(T, i * b, i * b, B, i * b, j * b, b);
    }
  }
}

void traced_cholesky_wa(TMat& A, std::size_t b) {
  check_block_sizes({&b, 1}, "traced_cholesky_wa");
  const std::size_t n = A.rows();
  if (n % b != 0 || A.cols() != n) {
    throw std::invalid_argument("traced_cholesky: bad shapes");
  }
  const std::size_t nb = n / b;
  for (std::size_t i = 0; i < nb; ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      micro_syrk_neg(A, i * b, i * b, A, i * b, k * b, b);
    }
    micro_cholesky(A, i * b, i * b, b);
    for (std::size_t j = i + 1; j < nb; ++j) {
      for (std::size_t k = 0; k < i; ++k) {
        // A(j,i) -= A(j,k) * A(i,k)^T.
        for (std::size_t r = 0; r < b; ++r) {
          for (std::size_t c = 0; c < b; ++c) {
            double s = 0;
            for (std::size_t t = 0; t < b; ++t) {
              s += A.get(j * b + r, k * b + t) * A.get(i * b + c, k * b + t);
            }
            A.add(j * b + r, i * b + c, -s);
          }
        }
      }
      micro_trsm_rlt(A, i * b, i * b, A, j * b, i * b, b);
    }
  }
}

void traced_nbody2_wa(const cachesim::TracedArray<double>& P,
                      cachesim::TracedArray<double>& F, std::size_t b) {
  check_block_sizes({&b, 1}, "traced_nbody2_wa");
  const std::size_t n = P.size();
  if (n % b != 0 || F.size() != n) {
    throw std::invalid_argument("traced_nbody: bad shapes");
  }
  const std::size_t nb = n / b;
  for (std::size_t bi = 0; bi < nb; ++bi) {
    for (std::size_t i = bi * b; i < (bi + 1) * b; ++i) F.set(i, 0.0);
    for (std::size_t bj = 0; bj < nb; ++bj) {
      for (std::size_t i = bi * b; i < (bi + 1) * b; ++i) {
        double acc = 0;
        const double pi = P.get(i);
        for (std::size_t j = bj * b; j < (bj + 1) * b; ++j) {
          if (i != j) acc += pair_force(pi, P.get(j));
        }
        F.add(i, acc);
      }
    }
  }
}

}  // namespace wa::core
