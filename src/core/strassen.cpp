#include "core/strassen.hpp"

#include <bit>
#include <stdexcept>

#include "core/loop_order.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::core {

namespace {

using TMat = cachesim::TracedMatrix<double>;

struct Quad {
  std::size_t i0, j0, n;
};

// Traced helpers over square sub-blocks identified by (i0, j0, n).

void t_add(TMat& out, const Quad& qo, const TMat& x, const Quad& qx,
           const TMat& y, const Quad& qy) {
  for (std::size_t i = 0; i < qo.n; ++i)
    for (std::size_t j = 0; j < qo.n; ++j)
      out.set(qo.i0 + i, qo.j0 + j, x.get(qx.i0 + i, qx.j0 + j) +
                                        y.get(qy.i0 + i, qy.j0 + j));
}

void t_sub(TMat& out, const Quad& qo, const TMat& x, const Quad& qx,
           const TMat& y, const Quad& qy) {
  for (std::size_t i = 0; i < qo.n; ++i)
    for (std::size_t j = 0; j < qo.n; ++j)
      out.set(qo.i0 + i, qo.j0 + j, x.get(qx.i0 + i, qx.j0 + j) -
                                        y.get(qy.i0 + i, qy.j0 + j));
}

void t_copy(TMat& out, const Quad& qo, const TMat& x, const Quad& qx) {
  for (std::size_t i = 0; i < qo.n; ++i)
    for (std::size_t j = 0; j < qo.n; ++j)
      out.set(qo.i0 + i, qo.j0 + j, x.get(qx.i0 + i, qx.j0 + j));
}

void t_classical(TMat& C, const Quad& qc, const TMat& A, const Quad& qa,
                 const TMat& B, const Quad& qb) {
  for (std::size_t i = 0; i < qc.n; ++i)
    for (std::size_t j = 0; j < qc.n; ++j) {
      double s = 0;
      for (std::size_t k = 0; k < qc.n; ++k)
        s += A.get(qa.i0 + i, qa.j0 + k) * B.get(qb.i0 + k, qb.j0 + j);
      C.set(qc.i0 + i, qc.j0 + j, s);
    }
}

void strassen_rec(TMat& C, const Quad& qc, const TMat& A, const Quad& qa,
                  const TMat& B, const Quad& qb,
                  cachesim::CacheHierarchy& sim, cachesim::AddressSpace& as,
                  std::size_t cutoff) {
  const std::size_t n = qc.n;
  if (n <= cutoff) {
    t_classical(C, qc, A, qa, B, qb);
    return;
  }
  const std::size_t h = n / 2;
  auto q = [&](const Quad& base, int bi, int bj) {
    return Quad{base.i0 + std::size_t(bi) * h, base.j0 + std::size_t(bj) * h,
                h};
  };
  const Quad a11 = q(qa, 0, 0), a12 = q(qa, 0, 1), a21 = q(qa, 1, 0),
             a22 = q(qa, 1, 1);
  const Quad b11 = q(qb, 0, 0), b12 = q(qb, 0, 1), b21 = q(qb, 1, 0),
             b22 = q(qb, 1, 1);
  const Quad c11 = q(qc, 0, 0), c12 = q(qc, 0, 1), c21 = q(qc, 1, 0),
             c22 = q(qc, 1, 1);

  // Temporaries: two operand scratch blocks and seven products, all
  // heap-allocated like a straightforward implementation would.
  TMat t1(sim, as, h, h), t2(sim, as, h, h);
  TMat m1(sim, as, h, h), m2(sim, as, h, h), m3(sim, as, h, h),
      m4(sim, as, h, h), m5(sim, as, h, h), m6(sim, as, h, h),
      m7(sim, as, h, h);
  const Quad full{0, 0, h};

  t_add(t1, full, A, a11, A, a22);
  t_add(t2, full, B, b11, B, b22);
  strassen_rec(m1, full, t1, full, t2, full, sim, as, cutoff);

  t_add(t1, full, A, a21, A, a22);
  t_copy(t2, full, B, b11);
  strassen_rec(m2, full, t1, full, t2, full, sim, as, cutoff);

  t_copy(t1, full, A, a11);
  t_sub(t2, full, B, b12, B, b22);
  strassen_rec(m3, full, t1, full, t2, full, sim, as, cutoff);

  t_copy(t1, full, A, a22);
  t_sub(t2, full, B, b21, B, b11);
  strassen_rec(m4, full, t1, full, t2, full, sim, as, cutoff);

  t_add(t1, full, A, a11, A, a12);
  t_copy(t2, full, B, b22);
  strassen_rec(m5, full, t1, full, t2, full, sim, as, cutoff);

  t_sub(t1, full, A, a21, A, a11);
  t_add(t2, full, B, b11, B, b12);
  strassen_rec(m6, full, t1, full, t2, full, sim, as, cutoff);

  t_sub(t1, full, A, a12, A, a22);
  t_add(t2, full, B, b21, B, b22);
  strassen_rec(m7, full, t1, full, t2, full, sim, as, cutoff);

  // C11 = M1 + M4 - M5 + M7 ; C12 = M3 + M5
  // C21 = M2 + M4           ; C22 = M1 - M2 + M3 + M6
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      C.set(c11.i0 + i, c11.j0 + j, m1.get(i, j) + m4.get(i, j) -
                                        m5.get(i, j) + m7.get(i, j));
      C.set(c12.i0 + i, c12.j0 + j, m3.get(i, j) + m5.get(i, j));
      C.set(c21.i0 + i, c21.j0 + j, m2.get(i, j) + m4.get(i, j));
      C.set(c22.i0 + i, c22.j0 + j, m1.get(i, j) - m2.get(i, j) +
                                        m3.get(i, j) + m6.get(i, j));
    }
  }
}

}  // namespace

void traced_strassen(TMat& C, const TMat& A, const TMat& B,
                     cachesim::CacheHierarchy& sim,
                     cachesim::AddressSpace& as, std::size_t cutoff) {
  check_block_sizes({&cutoff, 1}, "traced_strassen");
  const std::size_t n = C.rows();
  if (n != C.cols() || n != A.rows() || n != A.cols() || n != B.rows() ||
      n != B.cols()) {
    throw std::invalid_argument("strassen: square matrices required");
  }
  if (!std::has_single_bit(n)) {
    throw std::invalid_argument("strassen: n must be a power of two");
  }
  strassen_rec(C, Quad{0, 0, n}, A, Quad{0, 0, n}, B, Quad{0, 0, n}, sim, as,
               cutoff);
}

namespace {

linalg::Matrix<double> strassen_ref_rec(const linalg::Matrix<double>& A,
                                        const linalg::Matrix<double>& B,
                                        std::size_t cutoff) {
  const std::size_t n = A.rows();
  linalg::Matrix<double> C(n, n, 0.0);
  if (n <= cutoff) {
    linalg::active_kernels().gemm_acc(C.view(), A.view(), B.view(), 1.0);
    return C;
  }
  const std::size_t h = n / 2;
  auto blk = [&](const linalg::Matrix<double>& M, int bi, int bj) {
    linalg::Matrix<double> out(h, h);
    for (std::size_t i = 0; i < h; ++i)
      for (std::size_t j = 0; j < h; ++j)
        out(i, j) = M(std::size_t(bi) * h + i, std::size_t(bj) * h + j);
    return out;
  };
  auto add = [&](const linalg::Matrix<double>& X,
                 const linalg::Matrix<double>& Y, double sy) {
    linalg::Matrix<double> out(h, h);
    for (std::size_t i = 0; i < h; ++i)
      for (std::size_t j = 0; j < h; ++j) out(i, j) = X(i, j) + sy * Y(i, j);
    return out;
  };
  auto a11 = blk(A, 0, 0), a12 = blk(A, 0, 1), a21 = blk(A, 1, 0),
       a22 = blk(A, 1, 1);
  auto b11 = blk(B, 0, 0), b12 = blk(B, 0, 1), b21 = blk(B, 1, 0),
       b22 = blk(B, 1, 1);
  auto m1 = strassen_ref_rec(add(a11, a22, 1), add(b11, b22, 1), cutoff);
  auto m2 = strassen_ref_rec(add(a21, a22, 1), b11, cutoff);
  auto m3 = strassen_ref_rec(a11, add(b12, b22, -1), cutoff);
  auto m4 = strassen_ref_rec(a22, add(b21, b11, -1), cutoff);
  auto m5 = strassen_ref_rec(add(a11, a12, 1), b22, cutoff);
  auto m6 = strassen_ref_rec(add(a21, a11, -1), add(b11, b12, 1), cutoff);
  auto m7 = strassen_ref_rec(add(a12, a22, -1), add(b21, b22, 1), cutoff);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t j = 0; j < h; ++j) {
      C(i, j) = m1(i, j) + m4(i, j) - m5(i, j) + m7(i, j);
      C(i, j + h) = m3(i, j) + m5(i, j);
      C(i + h, j) = m2(i, j) + m4(i, j);
      C(i + h, j + h) = m1(i, j) - m2(i, j) + m3(i, j) + m6(i, j);
    }
  }
  return C;
}

}  // namespace

linalg::Matrix<double> strassen_reference(const linalg::Matrix<double>& A,
                                          const linalg::Matrix<double>& B,
                                          std::size_t cutoff) {
  check_block_sizes({&cutoff, 1}, "strassen_reference");
  if (A.rows() != A.cols() || B.rows() != B.cols() || A.rows() != B.rows()) {
    throw std::invalid_argument("strassen_reference: square required");
  }
  if (!std::has_single_bit(A.rows())) {
    throw std::invalid_argument("strassen_reference: power of two required");
  }
  return strassen_ref_rec(A, B, cutoff);
}

}  // namespace wa::core
