#pragma once
// Explicitly blocked triangular solve (Algorithm 2 of the paper) and a
// non-WA right-looking contrast variant.
//
// Solves T * X = B for X, where T is n-by-n upper triangular and B is
// n-by-nrhs; X overwrites B.  The WA (left-looking, k-innermost)
// variant stores each B block exactly once: writes to slow memory =
// n * nrhs.  The right-looking variant updates the trailing blocks
// eagerly and writes Theta(n^3 / b) words.

#include <cstddef>
#include <span>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::core {

enum class TrsmVariant {
  kLeftLookingWA,   ///< Algorithm 2: k innermost, B(i,j) held in fast
  kRightLooking,    ///< eager trailing update: not write-avoiding
};

/// Two-level blocked TRSM with block size @p b staged at level 0 of
/// @p h.  The left-looking variant is the multi-level recursion below
/// at one level.
void blocked_trsm_explicit(linalg::ConstMatrixView<double> T,
                           linalg::MatrixView<double> B, std::size_t b,
                           memsim::Hierarchy& h, TrsmVariant variant);

/// Multi-level recursive TRSM (Section 4.2's induction, executable):
/// Algorithm 2 at every level.  Level t holds B(i,j) across its k loop
/// and loads T(i,k) and X(k,j) as two messages; the block update calls
/// the multi-level WA matmul and the diagonal solve recurses, so
/// writes at every boundary s stay O(n^3 / sqrt(M_s)) and writes to
/// the slowest level equal the output.  block_sizes as in
/// blocked_matmul_multilevel_explicit (fastest first).
void blocked_trsm_multilevel_explicit(linalg::ConstMatrixView<double> T,
                                      linalg::MatrixView<double> B,
                                      std::span<const std::size_t> block_sizes,
                                      memsim::Hierarchy& h);

/// Exact load/store words for Algorithm 2 on an n-by-n system with
/// n right-hand sides and divisible block size (paper Section 4.2):
/// loads ~ n^3/b + 1.5 n^2 (plus diagonal loads), stores = n^2.
struct Alg2Counts {
  std::uint64_t loads;
  std::uint64_t stores;
};
Alg2Counts algorithm2_expected_counts(std::size_t n, std::size_t b);

}  // namespace wa::core
