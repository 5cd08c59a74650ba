#include "core/lu_explicit.hpp"

#include <stdexcept>

#include "core/loop_order.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::core {

namespace {
using linalg::MatrixView;
}  // namespace

void blocked_lu_explicit(MatrixView<double> A, std::size_t b,
                         memsim::Hierarchy& h, LuVariant variant) {
  check_block_sizes({&b, 1}, "blocked_lu_explicit");
  if (A.rows() != A.cols()) throw std::invalid_argument("lu: square");
  const std::size_t n = A.rows();
  if (n % b != 0) throw std::invalid_argument("lu: n % b != 0");
  const std::size_t nb = n / b;
  const std::size_t bb = b * b;

  auto blk = [&](std::size_t i, std::size_t k) {
    return A.block(i * b, k * b, b, b);
  };

  if (variant == LuVariant::kLeftLookingWA) {
    // Left-looking by block columns: every A(i,j) is fully updated by
    // the factored blocks to its left (k innermost, block held in
    // fast memory), then finalized and stored exactly once.
    for (std::size_t j = 0; j < nb; ++j) {
      for (std::size_t i = 0; i < nb; ++i) {
        h.load(0, bb);  // A(i,j) held across the k loop
        const std::size_t kmax = std::min(i, j);
        for (std::size_t k = 0; k < kmax; ++k) {
          h.load(0, 2 * bb);  // L(i,k), U(k,j)
          linalg::active_kernels().gemm_acc(blk(i, j), blk(i, k), blk(k, j), -1.0);
          h.flops(2ull * b * b * b);
          h.discard(0, 2 * bb);
        }
        if (i < j) {
          // U(i,j) = L(i,i)^{-1} A(i,j) with unit-lower L(i,i).
          h.load(0, bb);
          linalg::active_kernels().trsm_left_unit_lower(blk(i, i), blk(i, j));
          h.flops(std::uint64_t(b) * b * b);
          h.discard(0, bb);
        } else if (i == j) {
          linalg::lu_nopivot_unblocked(blk(i, i));
          h.flops(2ull * b * b * b / 3);
        } else {
          // L(i,j) = A(i,j) U(j,j)^{-1}.
          h.load(0, bb);
          linalg::active_kernels().trsm_right_upper(blk(j, j), blk(i, j));
          h.flops(std::uint64_t(b) * b * b);
          h.discard(0, bb);
        }
        h.store(0, bb);  // finalized block: its only store
      }
    }
    return;
  }

  // Right-looking: factor the panel, then eagerly update the whole
  // trailing matrix, writing every trailing block back each step.
  for (std::size_t k = 0; k < nb; ++k) {
    h.load(0, bb);
    linalg::lu_nopivot_unblocked(blk(k, k));
    h.flops(2ull * b * b * b / 3);
    h.store(0, bb);
    for (std::size_t i = k + 1; i < nb; ++i) {
      h.load(0, 2 * bb);  // A(i,k), U(k,k)
      linalg::active_kernels().trsm_right_upper(blk(k, k), blk(i, k));
      h.flops(std::uint64_t(b) * b * b);
      h.discard(0, bb);
      h.store(0, bb);
      h.load(0, 2 * bb);  // A(k,i), L(k,k)
      linalg::active_kernels().trsm_left_unit_lower(blk(k, k), blk(k, i));
      h.flops(std::uint64_t(b) * b * b);
      h.discard(0, bb);
      h.store(0, bb);
    }
    for (std::size_t i = k + 1; i < nb; ++i) {
      for (std::size_t j = k + 1; j < nb; ++j) {
        h.load(0, 3 * bb);  // A(i,j), L(i,k), U(k,j)
        linalg::active_kernels().gemm_acc(blk(i, j), blk(i, k), blk(k, j), -1.0);
        h.flops(2ull * b * b * b);
        h.discard(0, 2 * bb);
        h.store(0, bb);  // partially-updated block written back
      }
    }
  }
}

}  // namespace wa::core
