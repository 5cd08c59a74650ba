#include "core/matmul_traced.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/block_schedule.hpp"

namespace wa::core {

namespace {

/// Register-style micro-kernel: the A element is held in a register
/// while a row of C accumulates (the in-L1 order is irrelevant to the
/// L2/L3 counters the experiments read, exactly as the paper argues
/// for its MKL base case).
void micro_kernel(TracedMat& C, const TracedMat& A, const TracedMat& B,
                  const MatmulBlock& e) {
  for (std::size_t i = 0; i < e.m; ++i) {
    for (std::size_t t = 0; t < e.n; ++t) {
      const double a = A.get(e.i0 + i, e.k0 + t);
      for (std::size_t j = 0; j < e.l; ++j) {
        C.add(e.i0 + i, e.j0 + j, a * B.get(e.k0 + t, e.j0 + j));
      }
    }
  }
}

/// The traced memory model of the matmul block schedule: the cache
/// simulator decides what stays resident, so staging does nothing; the
/// leaf is the micro-kernel.
struct TracedMatmul {
  TracedMat& C;
  const TracedMat& A;
  const TracedMat& B;

  static auto stage(std::size_t /*level*/) {
    return [](BlockIndex, const MatmulBlock&) {};
  }
  void leaf(const MatmulBlock& e) { micro_kernel(C, A, B, e); }
};

}  // namespace

void traced_blocked_matmul(TracedMat& C, const TracedMat& A,
                           const TracedMat& B,
                           std::span<const std::size_t> block_sizes,
                           std::span<const LoopOrder> orders) {
  check_block_schedule(block_sizes, orders);
  if (A.rows() != C.rows() || B.cols() != C.cols() || A.cols() != B.rows()) {
    throw std::invalid_argument("matmul: shape mismatch");
  }
  TracedMatmul model{C, A, B};
  matmul_schedule(model, MatmulBlock{0, 0, 0, C.rows(), A.cols(), C.cols()},
                  block_sizes, orders);
}

void traced_wa_matmul_multilevel(TracedMat& C, const TracedMat& A,
                                 const TracedMat& B,
                                 std::span<const std::size_t> block_sizes) {
  const std::vector<LoopOrder> orders(block_sizes.size(), LoopOrder::kIJK);
  traced_blocked_matmul(C, A, B, block_sizes, orders);
}

void traced_wa_matmul_twolevel(TracedMat& C, const TracedMat& A,
                               const TracedMat& B,
                               std::span<const std::size_t> block_sizes) {
  std::vector<LoopOrder> orders(block_sizes.size(), LoopOrder::kKIJ);
  if (!orders.empty()) orders.back() = LoopOrder::kIJK;
  traced_blocked_matmul(C, A, B, block_sizes, orders);
}

namespace {

void co_rec(TracedMat& C, const TracedMat& A, const TracedMat& B,
            const MatmulBlock& e, std::size_t base_dim) {
  if (e.m <= base_dim && e.n <= base_dim && e.l <= base_dim) {
    micro_kernel(C, A, B, e);
    return;
  }
  // Split the largest of the three dimensions in half [FLPR99]; ties
  // go to C's rows, then C's columns, then the contraction.
  MatmulBlock lo = e, hi = e;
  if (e.m >= e.l && e.m >= e.n) {
    lo.m = e.m / 2;
    hi.m = e.m - lo.m;
    hi.i0 = e.i0 + lo.m;
  } else if (e.l >= e.n) {
    lo.l = e.l / 2;
    hi.l = e.l - lo.l;
    hi.j0 = e.j0 + lo.l;
  } else {
    lo.n = e.n / 2;
    hi.n = e.n - lo.n;
    hi.k0 = e.k0 + lo.n;
  }
  co_rec(C, A, B, lo, base_dim);
  co_rec(C, A, B, hi, base_dim);
}

}  // namespace

void traced_co_matmul(TracedMat& C, const TracedMat& A, const TracedMat& B,
                      std::size_t base_dim) {
  check_block_sizes({&base_dim, 1}, "traced_co_matmul");
  co_rec(C, A, B, MatmulBlock{0, 0, 0, C.rows(), A.cols(), C.cols()},
         base_dim);
}

void traced_mkl_like_matmul(TracedMat& C, const TracedMat& A,
                            const TracedMat& B, std::size_t panel_k,
                            std::size_t tile_mn) {
  const std::size_t sizes[] = {panel_k, tile_mn};
  check_block_sizes(sizes, "traced_mkl_like_matmul");
  // Packed-panel schedule: for each contraction panel, sweep every
  // C tile.  C tiles are revisited (read + written) once per panel.
  const std::size_t m = C.rows(), n = C.cols(), l = A.cols();
  for (std::size_t k0 = 0; k0 < l; k0 += panel_k) {
    const std::size_t kb = std::min(panel_k, l - k0);
    for (std::size_t i0 = 0; i0 < m; i0 += tile_mn) {
      const std::size_t ib = std::min(tile_mn, m - i0);
      for (std::size_t j0 = 0; j0 < n; j0 += tile_mn) {
        const std::size_t jb = std::min(tile_mn, n - j0);
        micro_kernel(C, A, B, MatmulBlock{i0, j0, k0, ib, kb, jb});
      }
    }
  }
}

}  // namespace wa::core
