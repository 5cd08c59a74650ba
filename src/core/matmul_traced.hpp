#pragma once
// Instruction orders of Section 6, replayed against the cache
// simulator.  These are the codes of Figure 4 (multi-level WAMatMul
// and two-level ABMatMul), the recursive cache-oblivious matmul of
// [FLPR99] used in Figure 2a, and an MKL-like packed-panel order used
// as the stand-in for Figure 2b.
//
// All variants compute C += A * B on real data held in TracedMatrix
// objects, so results remain numerically checkable while the cache
// counters play the role of the paper's hardware events.

#include <cstddef>
#include <span>
#include <vector>

#include "cachesim/traced.hpp"
#include "core/loop_order.hpp"

namespace wa::core {

using TracedMat = cachesim::TracedMatrix<double>;

/// Recursive blocked matmul on the block schedule the explicit matmul
/// runs (core/block_schedule.hpp): block_sizes lists the block side
/// per recursion level *fastest first*, as the cache levels are
/// numbered, and orders[t] picks the order at level t.  The base case
/// (all blocking consumed) is a register-style micro-kernel, the
/// stand-in for the paper's L1-sized MKL call.
void traced_blocked_matmul(TracedMat& C, const TracedMat& A,
                           const TracedMat& B,
                           std::span<const std::size_t> block_sizes,
                           std::span<const LoopOrder> orders);

/// Figure 4a: WAMatMul -- C-resident (contraction-innermost, kIJK)
/// order at every recursion level.
void traced_wa_matmul_multilevel(TracedMat& C, const TracedMat& A,
                                 const TracedMat& B,
                                 std::span<const std::size_t> block_sizes);

/// Figure 4b: two-level WA -- C-resident order at the top (slowest)
/// level only, slab order (kKIJ) below.
void traced_wa_matmul_twolevel(TracedMat& C, const TracedMat& A,
                               const TracedMat& B,
                               std::span<const std::size_t> block_sizes);

/// Figure 2a: recursive cache-oblivious matmul, splitting the largest
/// dimension in half until the subproblem is at most base_dim on every
/// side (the paper's base case fits L1 and calls MKL).
void traced_co_matmul(TracedMat& C, const TracedMat& A, const TracedMat& B,
                      std::size_t base_dim);

/// Figure 2b stand-in: an MKL-like order.  MKL dgemm is proprietary;
/// we emulate the well-known packed-panel schedule (contraction
/// blocked in panels, C tile revisited once per panel) which, like the
/// measured MKL, optimizes for locality of A/B but rewrites C blocks
/// once per contraction panel -- not write-avoiding at L3.
void traced_mkl_like_matmul(TracedMat& C, const TracedMat& A,
                            const TracedMat& B, std::size_t panel_k,
                            std::size_t tile_mn);

}  // namespace wa::core
