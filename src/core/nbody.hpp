#pragma once
// Direct N-body algorithms of Section 4.4.
//
// Particles are modelled as one word each (the paper's unit); the
// pairwise force is a softened inverse-square interaction on 1-D
// positions -- only the access pattern matters to the write analysis,
// but forces are real numbers so results are checkable.
//
// Provided variants:
//   * Algorithm 4: blocked (N,2)-body -- write-avoiding, F written once;
//   * the force-symmetry (Newton's third law) variant -- halves the
//     arithmetic but provably cannot be write-avoiding;
//   * the blocked (N,k)-body generalization with k nested block loops.

#include <cstddef>
#include <span>
#include <vector>

#include "memsim/hierarchy.hpp"

namespace wa::core {

/// Softened pairwise force of particle at @p xj on particle at @p xi.
double pair_force(double xi, double xj);

/// Reference all-pairs forces: F[i] = sum_j pair_force(P[i], P[j]).
std::vector<double> nbody2_reference(std::span<const double> P);

/// Algorithm 4: two-level blocked direct (N,2)-body with block size
/// @p b staged at level 0 of @p h: the multi-level recursion below at
/// one level.  Writes to slow memory = N.
std::vector<double> nbody2_blocked_explicit(std::span<const double> P,
                                            std::size_t b,
                                            memsim::Hierarchy& h);

/// Multi-level recursive (N,2)-body: the "update F(i)" line of
/// Algorithm 4 calls the same routine with the next smaller block
/// size, which the paper's induction shows keeps the write bound at
/// every level.  block_sizes[t] is staged into level t (fastest
/// first, like the matmul recursion); blocks need not divide N.
std::vector<double> nbody2_multilevel_explicit(
    std::span<const double> P, std::span<const std::size_t> block_sizes,
    memsim::Hierarchy& h);

/// Force-symmetry variant: visits each unordered block pair once and
/// updates both force blocks (half the interactions), which forces
/// Theta(N^2/b) writes to slow memory -- not write-avoiding.
std::vector<double> nbody2_symmetric_explicit(std::span<const double> P,
                                              std::size_t b,
                                              memsim::Hierarchy& h);

/// Synthetic k-tuple force kernel (k >= 2): contribution to the first
/// particle from a tuple; returns 0 when any two tuple members are the
/// same particle index (the paper's Phi_k convention).
double tuple_force(std::span<const double> xs);

/// Reference all-k-tuples forces for one input array.
std::vector<double> nbodyk_reference(std::span<const double> P, unsigned k);

/// Blocked (N,k)-body with k nested block loops, block size b = M/(k+1).
/// Writes to slow memory = N; writes to fast = O(N^k / b^(k-1)).
std::vector<double> nbodyk_blocked_explicit(std::span<const double> P,
                                            unsigned k, std::size_t b,
                                            memsim::Hierarchy& h);

}  // namespace wa::core
