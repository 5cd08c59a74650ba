#pragma once
// Explicitly blocked classical matrix multiplication with modelled data
// movement -- Algorithm 1 of the paper and its non-WA loop-order
// siblings, plus the multi-level recursive extension of Section 4.1.
//
// The algorithms run on real matrices (numerics are checkable) while
// every block transfer is recorded in a wa::memsim::Hierarchy, which
// also enforces the fast-memory capacity the block size was derived
// from.

#include <cstddef>
#include <span>

#include "core/loop_order.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::core {

/// Two-level blocked C += A*B with block size @p b, staging blocks in
/// level 0 of @p h: the multi-level recursion below at one level.
///
/// With a contraction-innermost @p order this is exactly Algorithm 1:
/// writes to slow memory equal the output size.  Other orders evict
/// the C block once per contraction step and are not write-avoiding.
/// A one-slot block cache per operand models "hold the block while the
/// inner loops reuse it", matching the paper's pseudocode annotations.
void blocked_matmul_explicit(linalg::MatrixView<double> C,
                             linalg::ConstMatrixView<double> A,
                             linalg::ConstMatrixView<double> B, std::size_t b,
                             memsim::Hierarchy& h, LoopOrder order);

/// Multi-level recursive blocked matmul: C += alpha * A * op(B), on the
/// block schedule of core/block_schedule.hpp.  block_sizes[t] is the
/// block side staged into level t of @p h (fastest first) and
/// orders[t] the order at that level.  All-kIJK reproduces WAMatMul
/// (Fig. 4a): write-avoiding at every level.  kKIJ below the top level
/// reproduces ABMatMul (Fig. 4b): write-avoiding only at the outermost
/// boundary.  With b_transposed, op(B) = B^T (the SYRK-shaped update
/// the multi-level Cholesky needs).
void blocked_matmul_multilevel_explicit(linalg::MatrixView<double> C,
                                        linalg::ConstMatrixView<double> A,
                                        linalg::ConstMatrixView<double> B,
                                        std::span<const std::size_t> block_sizes,
                                        std::span<const LoopOrder> orders,
                                        memsim::Hierarchy& h,
                                        double alpha = 1.0,
                                        bool b_transposed = false);

/// Same recursion, entered with the operands already resident at
/// hierarchy level block_sizes.size() (used by the multi-level TRSM /
/// Cholesky below, whose blocks are staged one level up), without the
/// argument checks.
void blocked_matmul_multilevel_at(linalg::MatrixView<double> C,
                                  linalg::ConstMatrixView<double> A,
                                  linalg::ConstMatrixView<double> B,
                                  std::span<const std::size_t> block_sizes,
                                  std::span<const LoopOrder> orders,
                                  memsim::Hierarchy& h, double alpha = 1.0,
                                  bool b_transposed = false);

/// Naive non-CA dot-product matmul (three scalar loops, C entry kept
/// in a register): minimizes writes to slow memory but maximizes
/// reads, so the paper dismisses it; included as the contrast case.
/// Counts element-granularity traffic in @p h.
void naive_dot_matmul_explicit(linalg::MatrixView<double> C,
                               linalg::ConstMatrixView<double> A,
                               linalg::ConstMatrixView<double> B,
                               memsim::Hierarchy& h);

/// Loads/stores Algorithm 1 performs in exact words, for tests:
/// loads = ml + 2mnl/b, stores = ml (m,l = C dims, n = contraction).
struct Alg1Counts {
  std::uint64_t loads;
  std::uint64_t stores;
};
Alg1Counts algorithm1_expected_counts(std::size_t m, std::size_t n,
                                      std::size_t l, std::size_t b);

}  // namespace wa::core
