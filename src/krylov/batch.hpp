#pragma once
// wa::krylov -- batched multi-RHS variants of CG and s-step CA-CG.
//
// Production traffic is many concurrent solves of the *same* operator.
// The batched solvers run b independent per-RHS recurrences but share
// every read of A: one matrix traversal per basis level (or SpMV)
// serves all b right-hand sides, so the A-word stream per solve drops
// toward 1/b of the one-RHS cost while each RHS's arithmetic stays
// bitwise-identical whatever else is in the batch.  Per-RHS
// convergence, breakdown, and restart are tracked so finished systems
// drop out of the batch without perturbing the others' bits.
//
// These are the only CG and CA-CG bodies: krylov::cg and krylov::ca_cg
// run them at nrhs == 1 (size-checked), so the single-RHS solvers
// match the batch at b = 1 -- iterates AND traffic -- by construction.
//
// Panels are column-major: RHS j occupies [j*n, (j+1)*n) of the B and
// X spans.

#include <span>
#include <vector>

#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::krylov {

/// Result of a batched solve: one SolveResult per RHS (its `traffic`
/// member is left zero -- traffic is shared across the batch and not
/// attributable per RHS) plus the whole-batch traffic tally.
struct BatchResult {
  std::vector<SolveResult> rhs;
  Traffic traffic;
};

/// Batched classical CG on an n x nrhs column-major panel.
BatchResult cg_batch(const sparse::Csr& A, std::span<const double> B,
                     std::span<double> X, std::size_t nrhs,
                     std::size_t max_iters, double tol);

/// Batched s-step CA-CG (stored + streaming, monomial + Newton) on an
/// n x nrhs column-major panel.  One basis build per outer iteration
/// is shared across all active RHS.
BatchResult ca_cg_batch(const sparse::Csr& A, std::span<const double> B,
                        std::span<double> X, std::size_t nrhs,
                        const CaCgOptions& opt);

}  // namespace wa::krylov
