#pragma once
// Sequential blocked LU without pivoting with modelled data movement.
//
// Section 4.3 of the paper conjectures that "similar conclusions hold
// for LU, QR and related factorizations" based on the structure of
// one-sided factorizations.  This module makes the LU half of that
// conjecture executable: the left-looking blocked LU stores each
// output block exactly once (writes = n^2), while the right-looking
// variant rewrites the trailing Schur complement every panel step
// (writes Theta(n^3/b)).  Both are communication-avoiding.

#include <cstddef>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::core {

enum class LuVariant {
  kLeftLookingWA,  ///< each output block written once
  kRightLooking,   ///< eager Schur update: Theta(n^3/b) slow writes
};

/// Two-level blocked LU without pivoting; L (unit lower) and U
/// overwrite A.  Block size @p b staged at level 0 of @p h.
void blocked_lu_explicit(linalg::MatrixView<double> A, std::size_t b,
                         memsim::Hierarchy& h, LuVariant variant);

}  // namespace wa::core
