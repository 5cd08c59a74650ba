#include "core/trsm_explicit.hpp"

#include <stdexcept>
#include <vector>

#include "core/loop_order.hpp"
#include "core/matmul_explicit.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::core {

namespace {

using linalg::ConstMatrixView;
using linalg::MatrixView;

/// Algorithm 2 at level t = bs.size() - 1: B(i,j) is held across its k
/// loop and T(i,k), X(k,j) are loaded as two messages; the block update
/// runs the multi-level WA matmul on the levels below and the diagonal
/// solve recurses (Section 4.2's induction).  With one block size this
/// is Algorithm 2 verbatim.
void trsm_ml_rec(ConstMatrixView<double> T, MatrixView<double> B,
                 std::span<const std::size_t> bs, memsim::Hierarchy& h) {
  if (bs.empty()) {
    linalg::active_kernels().trsm_left_upper(T, B);
    h.flops(std::uint64_t(T.rows()) * T.rows() * B.cols());
    return;
  }
  const std::size_t t = bs.size() - 1, b = bs[t];
  const std::size_t n = T.rows(), nrhs = B.cols();
  if (n % b != 0 || nrhs % b != 0) {
    throw std::invalid_argument("trsm: dims must be divisible by block size");
  }
  const std::size_t nb = n / b, nj = nrhs / b;
  const std::size_t bb = b * b;
  const auto inner = bs.first(t);
  const std::vector<LoopOrder> wa(t, LoopOrder::kIJK);

  auto tb = [&](std::size_t i, std::size_t k) {
    return T.block(i * b, k * b, b, b);
  };
  auto bblk = [&](std::size_t i, std::size_t j) {
    return B.block(i * b, j * b, b, b);
  };

  // For each rhs block column j, sweep block rows bottom-up; the k
  // loop (innermost) accumulates updates from already-solved rows.
  for (std::size_t j = 0; j < nj; ++j) {
    for (std::size_t i = nb; i-- > 0;) {
      h.load(t, bb);  // B(i,j) held for the whole k loop
      for (std::size_t k = i + 1; k < nb; ++k) {
        h.load(t, bb);  // T(i,k)
        h.load(t, bb);  // X(k,j)
        blocked_matmul_multilevel_at(bblk(i, j), tb(i, k), bblk(k, j), inner,
                                     wa, h, -1.0);
        h.discard(t, 2 * bb);
      }
      h.load(t, bb);  // T(i,i)
      trsm_ml_rec(tb(i, i), bblk(i, j), inner, h);
      h.discard(t, bb);
      h.store(t, bb);  // solved B(i,j): its only store at this level
    }
  }
}

}  // namespace

void blocked_trsm_explicit(ConstMatrixView<double> T, MatrixView<double> B,
                           std::size_t b, memsim::Hierarchy& h,
                           TrsmVariant variant) {
  check_block_sizes({&b, 1}, "blocked_trsm_explicit");
  if (T.rows() != T.cols() || T.rows() != B.rows()) {
    throw std::invalid_argument("trsm: shape mismatch");
  }
  if (variant == TrsmVariant::kLeftLookingWA) {
    trsm_ml_rec(T, B, {&b, 1}, h);
    return;
  }
  const std::size_t n = T.rows(), nrhs = B.cols();
  if (n % b != 0 || nrhs % b != 0) {
    throw std::invalid_argument("trsm: dims must be divisible by block size");
  }
  const std::size_t nb = n / b, nj = nrhs / b;
  const std::size_t bb = b * b;

  auto tb = [&](std::size_t i, std::size_t k) {
    return T.block(i * b, k * b, b, b);
  };
  auto bb_blk = [&](std::size_t i, std::size_t j) {
    return B.block(i * b, j * b, b, b);
  };

  // Right-looking: solve a block row, then immediately update every
  // remaining block of B.  Each trailing B block is loaded *and
  // stored* once per outer step => Theta(n^3/b) writes to slow memory.
  for (std::size_t i = nb; i-- > 0;) {
    for (std::size_t j = 0; j < nj; ++j) {
      h.load(0, 2 * bb);  // T(i,i), B(i,j)
      linalg::active_kernels().trsm_left_upper(tb(i, i), bb_blk(i, j));
      h.flops(std::uint64_t(b) * b * b);
      h.discard(0, bb);
      h.store(0, bb);  // solved B(i,j)
      // Eager update of the rows above.
      for (std::size_t ii = 0; ii < i; ++ii) {
        h.load(0, 3 * bb);  // B(ii,j), T(ii,i), X(i,j)
        linalg::active_kernels().gemm_acc(bb_blk(ii, j), tb(ii, i), bb_blk(i, j), -1.0);
        h.flops(2ull * b * b * b);
        h.discard(0, 2 * bb);
        h.store(0, bb);  // partially-updated B(ii,j) written back
      }
    }
  }
}

void blocked_trsm_multilevel_explicit(ConstMatrixView<double> T,
                                      MatrixView<double> B,
                                      std::span<const std::size_t> block_sizes,
                                      memsim::Hierarchy& h) {
  check_block_sizes(block_sizes, "blocked_trsm_multilevel_explicit");
  if (T.rows() != T.cols() || T.rows() != B.rows()) {
    throw std::invalid_argument("trsm_ml: shape mismatch");
  }
  if (block_sizes.size() + 1 != h.levels()) {
    throw std::invalid_argument(
        "trsm_ml: hierarchy must have one more level than block sizes");
  }
  trsm_ml_rec(T, B, block_sizes, h);
}

Alg2Counts algorithm2_expected_counts(std::size_t n, std::size_t b) {
  check_block_sizes({&b, 1}, "algorithm2_expected_counts");
  const std::uint64_t nb = n / b;
  const std::uint64_t bb = std::uint64_t(b) * b;
  std::uint64_t loads = 0;
  for (std::uint64_t j = 0; j < nb; ++j) {
    for (std::uint64_t i = 0; i < nb; ++i) {
      loads += bb;                       // B(i,j)
      loads += 2 * bb * (nb - 1 - i);    // T(i,k) and X(k,j)
      loads += bb;                       // T(i,i)
    }
  }
  return Alg2Counts{loads, std::uint64_t(n) * n};
}

}  // namespace wa::core
