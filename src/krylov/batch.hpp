#pragma once
// wa::krylov -- batched multi-RHS variants of CG and s-step CA-CG.
//
// The batched solvers run b independent per-RHS recurrences: each
// RHS's arithmetic is bitwise-identical whatever else is in the
// batch, and per-RHS convergence, breakdown and restart let finished
// systems drop out without perturbing the others' bits.
//
// These are the only shared-memory CG and CA-CG bodies: krylov::cg
// and krylov::ca_cg run them at nrhs == 1 (size-checked).  They are
// the per-RHS numerical reference the distributed solvers in
// dist/krylov.hpp are pinned bitwise-equal to at P = 1, and they
// count nothing.  A solve's slow-memory words (and the A traversal a
// batch shares) are counted by the Machine: run dist::cg / ca_cg (or
// the batches) on a one-rank Machine, whose iterates are bitwise
// these, and read rank 0's l3_write and l3_read.
//
// Panels are column-major: RHS j occupies [j*n, (j+1)*n) of the B and
// X spans.

#include <span>
#include <vector>

#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::krylov {

/// Result of a batched solve: one SolveResult per RHS.
struct BatchResult {
  std::vector<SolveResult> rhs;
};

/// Batched classical CG on an n x nrhs column-major panel.
BatchResult cg_batch(const sparse::Csr& A, std::span<const double> B,
                     std::span<double> X, std::size_t nrhs,
                     std::size_t max_iters, double tol);

/// Batched s-step CA-CG (monomial or Newton basis) on an n x nrhs
/// column-major panel.  Both storage modes run the same recurrence.
BatchResult ca_cg_batch(const sparse::Csr& A, std::span<const double> B,
                        std::span<double> X, std::size_t nrhs,
                        const CaCgOptions& opt);

}  // namespace wa::krylov
