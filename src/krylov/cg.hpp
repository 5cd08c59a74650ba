#pragma once
// Conjugate gradient (Algorithm 6 of the paper), the shared-memory
// numerical reference.  It counts nothing: each iteration writes the
// four n-vectors x, p, r, w once (W12 = 4n per iteration), and the
// Machine counts those words -- dist::cg on one rank runs these
// iterates bit for bit (see krylov/batch.hpp).

#include <cstddef>
#include <span>

#include "sparse/csr.hpp"

namespace wa::krylov {

struct SolveResult {
  std::size_t iterations = 0;     ///< CG steps taken (inner steps for s-step)
  double residual_norm = 0.0;     ///< ||b - A x|| at exit
  bool converged = false;
};

/// Solve A x = b by CG; x holds the initial guess on entry and the
/// approximate solution on exit.  Runs cg_batch (krylov/batch.hpp) at
/// nrhs = 1; throws std::invalid_argument unless b and x hold A.n
/// words.
SolveResult cg(const sparse::Csr& A, std::span<const double> b,
               std::span<double> x, std::size_t max_iters, double tol);

}  // namespace wa::krylov
