#include "core/cholesky_explicit.hpp"

#include <stdexcept>
#include <vector>

#include "core/loop_order.hpp"
#include "core/matmul_explicit.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::core {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;

void trsm_rlt_ml_rec(ConstMatrixView<double> L, MatrixView<double> B,
                     std::span<const std::size_t> bs, memsim::Hierarchy& h) {
  if (bs.empty()) {
    linalg::active_kernels().trsm_right_lower_t(L, B);
    h.flops(std::uint64_t(L.rows()) * L.rows() * B.rows());
    return;
  }
  const std::size_t t = bs.size() - 1, b = bs[t];
  const std::size_t n = L.rows(), m = B.rows();
  if (n % b != 0 || m % b != 0) {
    throw std::invalid_argument("trsm_rlt_ml: dims must divide block size");
  }
  const std::size_t nb = n / b, mi = m / b;
  const std::size_t bb = b * b;
  const auto inner = bs.first(t);
  const std::vector<LoopOrder> wa(t, LoopOrder::kIJK);

  auto lb = [&](std::size_t r, std::size_t c) {
    return L.block(r * b, c * b, b, b);
  };
  auto bblk = [&](std::size_t r, std::size_t c) {
    return B.block(r * b, c * b, b, b);
  };

  for (std::size_t i = 0; i < mi; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      h.load(t, bb);  // B(i,j) held for the k loop
      for (std::size_t k = 0; k < j; ++k) {
        h.load(t, 2 * bb);  // X(i,k), L(j,k)
        blocked_matmul_multilevel_at(bblk(i, j), bblk(i, k), lb(j, k), inner,
                                     wa, h, -1.0, /*b_transposed=*/true);
        h.discard(t, 2 * bb);
      }
      h.load(t, bb);  // L(j,j)
      trsm_rlt_ml_rec(lb(j, j), bblk(i, j), inner, h);
      h.discard(t, bb);
      h.store(t, bb);  // solved B(i,j)
    }
  }
}

/// Algorithm 3 at level t = bs.size() - 1: level t holds the lower half
/// of each diagonal block (b(b+1)/2 words), the GEMM updates run the
/// multi-level WA matmul on the levels below, and the diagonal factor
/// and the panel solve recurse (Section 4.3's induction).  The
/// diagonal update is the SYRK kernel when no level is left below, as
/// in Algorithm 3, and the whole-block multi-level matmul above it.
/// With one block size this is Algorithm 3 verbatim.
void chol_ml_rec(MatrixView<double> A, std::span<const std::size_t> bs,
                 memsim::Hierarchy& h) {
  if (bs.empty()) {
    linalg::cholesky_unblocked(A);
    h.flops(std::uint64_t(A.rows()) * A.rows() * A.rows() / 3);
    return;
  }
  const std::size_t t = bs.size() - 1, b = bs[t];
  const std::size_t n = A.rows();
  if (n % b != 0) {
    throw std::invalid_argument("cholesky: n must be divisible by b");
  }
  const std::size_t nb = n / b;
  const std::size_t bb = b * b;
  const std::size_t half = (b * (b + 1)) / 2;  // lower half of a block
  const auto inner = bs.first(t);
  const std::vector<LoopOrder> wa(t, LoopOrder::kIJK);

  auto blk = [&](std::size_t i, std::size_t k) {
    return A.block(i * b, k * b, b, b);
  };

  for (std::size_t i = 0; i < nb; ++i) {
    h.load(t, half);  // A(i,i) lower half
    for (std::size_t k = 0; k < i; ++k) {
      h.load(t, bb);  // A(i,k)
      if (inner.empty()) {
        linalg::active_kernels().syrk_lower_acc(blk(i, i), blk(i, k),
                                                blk(i, k));
        h.flops(std::uint64_t(b) * b * b);
      } else {
        blocked_matmul_multilevel_at(blk(i, i), blk(i, k), blk(i, k), inner,
                                     wa, h, -1.0, /*b_transposed=*/true);
      }
      h.discard(t, bb);
    }
    chol_ml_rec(blk(i, i), inner, h);
    h.store(t, half);  // factored diagonal block: its only store

    for (std::size_t j = i + 1; j < nb; ++j) {
      h.load(t, bb);  // A(j,i)
      for (std::size_t k = 0; k < i; ++k) {
        h.load(t, 2 * bb);  // A(i,k), A(j,k)
        blocked_matmul_multilevel_at(blk(j, i), blk(j, k), blk(i, k), inner,
                                     wa, h, -1.0, /*b_transposed=*/true);
        h.discard(t, 2 * bb);
      }
      h.load(t, half);  // A(i,i) lower half (the factor L(i,i))
      trsm_rlt_ml_rec(blk(i, i), blk(j, i), inner, h);
      h.discard(t, half);
      h.store(t, bb);  // solved panel block A(j,i): its only store
    }
  }
}

}  // namespace

void blocked_cholesky_explicit(MatrixView<double> A, std::size_t b,
                               memsim::Hierarchy& h, CholeskyVariant variant) {
  check_block_sizes({&b, 1}, "blocked_cholesky_explicit");
  if (A.rows() != A.cols()) throw std::invalid_argument("cholesky: square");
  if (variant == CholeskyVariant::kLeftLookingWA) {
    chol_ml_rec(A, {&b, 1}, h);
    return;
  }
  const std::size_t n = A.rows();
  if (n % b != 0) {
    throw std::invalid_argument("cholesky: n must be divisible by b");
  }
  const std::size_t nb = n / b;
  const std::size_t bb = b * b;
  const std::size_t half = (b * (b + 1)) / 2;  // lower half of a block

  auto blk = [&](std::size_t i, std::size_t k) {
    return A.block(i * b, k * b, b, b);
  };

  // Right-looking: factor the panel, then eagerly update the whole
  // trailing Schur complement, writing every trailing block back.
  for (std::size_t i = 0; i < nb; ++i) {
    h.load(0, half);
    linalg::cholesky_unblocked(blk(i, i));
    h.flops(std::uint64_t(b) * b * b / 3);
    h.store(0, half);

    for (std::size_t j = i + 1; j < nb; ++j) {
      h.load(0, bb + half);  // A(j,i) and L(i,i)
      linalg::active_kernels().trsm_right_lower_t(blk(i, i), blk(j, i));
      h.flops(std::uint64_t(b) * b * b);
      h.discard(0, half);
      h.store(0, bb);
    }
    // Schur complement update: A(j,k) -= L(j,i) * L(k,i)^T, k <= j.
    for (std::size_t j = i + 1; j < nb; ++j) {
      for (std::size_t k = i + 1; k <= j; ++k) {
        const std::size_t out_words = (j == k) ? half : bb;
        h.load(0, out_words + 2 * bb);
        if (j == k) {
          linalg::active_kernels().syrk_lower_acc(blk(j, j), blk(j, i), blk(j, i));
          h.flops(std::uint64_t(b) * b * b);
        } else {
          linalg::active_kernels().gemm_acc_bt(blk(j, k), blk(j, i), blk(k, i), -1.0);
          h.flops(2ull * b * b * b);
        }
        h.discard(0, 2 * bb);
        h.store(0, out_words);  // partially-updated block written back
      }
    }
  }
}

void blocked_trsm_rlt_multilevel_explicit(
    ConstMatrixView<double> L, MatrixView<double> B,
    std::span<const std::size_t> block_sizes, memsim::Hierarchy& h) {
  check_block_sizes(block_sizes, "blocked_trsm_rlt_multilevel_explicit");
  if (L.rows() != L.cols() || L.rows() != B.cols()) {
    throw std::invalid_argument("trsm_rlt_ml: shape mismatch");
  }
  trsm_rlt_ml_rec(L, B, block_sizes, h);
}

void blocked_cholesky_multilevel_explicit(
    MatrixView<double> A, std::span<const std::size_t> block_sizes,
    memsim::Hierarchy& h) {
  check_block_sizes(block_sizes, "blocked_cholesky_multilevel_explicit");
  if (A.rows() != A.cols()) {
    throw std::invalid_argument("chol_ml: square matrix required");
  }
  if (block_sizes.size() + 1 != h.levels()) {
    throw std::invalid_argument(
        "chol_ml: hierarchy must have one more level than block sizes");
  }
  chol_ml_rec(A, block_sizes, h);
}

std::uint64_t algorithm3_expected_stores(std::size_t n, std::size_t b) {
  check_block_sizes({&b, 1}, "algorithm3_expected_stores");
  const std::uint64_t nb = n / b;
  const std::uint64_t bb = std::uint64_t(b) * b;
  const std::uint64_t half = (std::uint64_t(b) * (b + 1)) / 2;
  // nb diagonal half-blocks + nb*(nb-1)/2 full panel blocks.
  return nb * half + (nb * (nb - 1) / 2) * bb;
}

}  // namespace wa::core
