#pragma once
// The loop of lu_nopivot_unblocked, the diagonal factor of both LU
// schedules.  This header is compiled into two translation units --
// kernels.cpp (portable codegen, the reference) and
// local_kernels_avx512.cpp (AVX-512F codegen, which vectorizes the row
// update 8 doubles wide) -- and is `static` for the same reason as the
// lk_engine templates: each TU keeps its own instance.  Every element
// takes the same steps in both: divide by the pivot, then one multiply
// and one subtract per earlier pivot, each rounded on its own
// (-ffp-contract=off), so the two instances agree bit for bit.

#include <cstddef>
#include <stdexcept>

#include "linalg/matrix.hpp"

namespace wa::linalg::lu_impl {

/// L (unit lower) and U overwrite the square A; a zero pivot throws
/// std::domain_error with the steps before it applied.
static void lu_nopivot(MatrixView<double> A) {
  const std::size_t n = A.rows();
  for (std::size_t k = 0; k < n; ++k) {
    if (A(k, k) == 0.0) throw std::domain_error("lu: zero pivot");
    for (std::size_t i = k + 1; i < n; ++i) {
      A(i, k) /= A(k, k);
      const double lik = A(i, k);
      for (std::size_t j = k + 1; j < n; ++j) A(i, j) -= lik * A(k, j);
    }
  }
}

}  // namespace wa::linalg::lu_impl
