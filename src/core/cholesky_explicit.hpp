#pragma once
// Explicitly blocked Cholesky factorization (Algorithm 3 of the paper,
// left-looking) and the right-looking contrast variant.
//
// Factors a symmetric positive-definite A into L * L^T; L overwrites
// the lower triangle of A.  The left-looking order writes each output
// block exactly once (writes to slow memory ~ n^2/2); the
// right-looking order rewrites the Schur complement after every panel
// and is not write-avoiding.

#include <cstddef>
#include <span>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::core {

enum class CholeskyVariant {
  kLeftLookingWA,  ///< Algorithm 3: k innermost, output stored once
  kRightLooking,   ///< eager Schur update: Theta(n^3/b) slow writes
};

/// Two-level blocked Cholesky with block size @p b staged at level 0
/// of @p h.  Only the lower triangle of A is referenced.  The
/// left-looking variant is the multi-level recursion below at one
/// level.
void blocked_cholesky_explicit(linalg::MatrixView<double> A, std::size_t b,
                               memsim::Hierarchy& h, CholeskyVariant variant);

/// Stores (writes to slow) Algorithm 3 performs: one store per output
/// block -- full blocks below the diagonal, half blocks on it.
std::uint64_t algorithm3_expected_stores(std::size_t n, std::size_t b);

/// Multi-level recursive left-looking Cholesky (Section 4.3's
/// induction, executable): Algorithm 3 at every level.  Each level
/// holds only the lower half of its diagonal blocks; the GEMM updates
/// call the multi-level WA matmul, and the diagonal factor and the
/// panel TRSM recurse.  The diagonal update is the SYRK kernel at the
/// innermost level; above it, it is the whole-block multi-level matmul
/// (which stages whole sub-blocks one level down, a constant-factor
/// deviation on a lower-order term).  Stores to the slowest level
/// equal algorithm3_expected_stores(n, block_sizes.back()).
void blocked_cholesky_multilevel_explicit(
    linalg::MatrixView<double> A, std::span<const std::size_t> block_sizes,
    memsim::Hierarchy& h);

/// Multi-level solve X * L^T = B (L lower triangular), the panel
/// operation of the multi-level Cholesky; exposed for testing.
void blocked_trsm_rlt_multilevel_explicit(
    linalg::ConstMatrixView<double> L, linalg::MatrixView<double> B,
    std::span<const std::size_t> block_sizes, memsim::Hierarchy& h);

}  // namespace wa::core
