#pragma once
// Conjugate gradient (Algorithm 6 of the paper) with slow-memory
// traffic accounting: each iteration writes the four n-vectors
// x, p, r, w once, so W12 ~ 4n per iteration.

#include <cstddef>
#include <span>

#include "krylov/traffic.hpp"
#include "sparse/csr.hpp"

namespace wa::krylov {

struct SolveResult {
  std::size_t iterations = 0;     ///< CG steps taken (inner steps for s-step)
  double residual_norm = 0.0;     ///< ||b - A x|| at exit
  bool converged = false;
  Traffic traffic;
};

/// Solve A x = b by CG; x holds the initial guess on entry and the
/// approximate solution on exit.  Runs cg_batch (krylov/batch.hpp) at
/// nrhs = 1; throws std::invalid_argument unless b and x hold A.n
/// words.
SolveResult cg(const sparse::Csr& A, std::span<const double> b,
               std::span<double> x, std::size_t max_iters, double tol);

}  // namespace wa::krylov
