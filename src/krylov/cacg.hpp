#pragma once
// Communication-avoiding conjugate gradient (Algorithm 7 of the paper)
// and its write-avoiding "streaming matrix powers" variant (§8).
//
// CA-CG takes s CG steps per outer iteration: it builds the Krylov
// bases P = [p, Ap, ..., A^s p] and R = [r, ..., A^{s-1} r], forms the
// Gram matrix G = [P,R]^T [P,R], runs s inner steps on 2s+1-length
// coordinate vectors, then recovers [p, r, x].
//
//   * kStored:    the bases are materialized in slow memory --
//                 W12 stays Theta(n) per CG step (no write savings,
//                 matching the paper's observation).
//   * kStreaming: the bases are produced chunkwise TWICE (once fused
//                 with the Gram-matrix accumulation, once fused with
//                 the [p,r,x] recovery) and discarded chunk by chunk;
//                 only x, p, r are ever written to slow memory --
//                 W12 = Theta(n/s) per CG step, for twice the flops and
//                 the chunks' ghost reads.
//
// Both modes compute the same iterates.  The shared-memory solver
// builds the whole basis either way and counts nothing; the
// distributed solvers (dist/krylov.hpp) run the chunked schedule and
// charge what each mode reads and writes on the Machine.

#include <cstddef>
#include <span>

#include "krylov/cg.hpp"

namespace wa::krylov {

enum class CaCgMode { kStored, kStreaming };

/// Polynomial basis for the Krylov recurrence (the paper notes the
/// rounding behaviour "can be alleviated by the choice of rho").
enum class CaCgBasis {
  kMonomial,  ///< scaled monomial: rho_{j+1} = A rho_j / sigma
  kNewton,    ///< shifted: rho_{j+1} = (A - theta_j I) rho_j / sigma;
              ///< theta_j are Leja-ordered Chebyshev points on the
              ///< Gershgorin spectrum estimate
};

struct CaCgOptions {
  std::size_t s = 4;            ///< inner steps per outer iteration
  CaCgMode mode = CaCgMode::kStored;
  CaCgBasis basis = CaCgBasis::kMonomial;
  /// Target rows per streaming chunk of the distributed solvers, in
  /// whole mesh lines on a box partition.  0 sizes chunks from the
  /// partition, s and the Machine's M2 (dist/krylov.cpp, stream_chunks).
  std::size_t block_rows = 0;
  std::size_t max_outer = 1000;
  double tol = 1e-10;
};

/// Solve A x = b by CA-CG.  In exact arithmetic the iterates match CG.
/// Runs ca_cg_batch (krylov/batch.hpp) at nrhs = 1; throws
/// std::invalid_argument unless b and x hold A.n words, or if s == 0.
SolveResult ca_cg(const sparse::Csr& A, std::span<const double> b,
                  std::span<double> x, const CaCgOptions& opt);

}  // namespace wa::krylov
