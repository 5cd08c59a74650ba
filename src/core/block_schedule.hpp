#pragma once
// The block schedule of classical matmul -- Algorithm 1 and its
// multi-level recursion (Section 4.1; Figure 4a/4b's WAMatMul and
// ABMatMul) -- shared by both memory models.  The explicit model
// (matmul_explicit.cpp) stages blocks in a wa::memsim::Hierarchy, the
// traced model (matmul_traced.cpp) replays accesses through the cache
// simulator; each supplies only how a block is staged and what the
// leaf computes.
//
// Levels are numbered fastest first, as memsim and cachesim number
// theirs: block_sizes[t] is the block side staged into level t and
// orders[t] the order of its sub-blocks.

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "core/loop_order.hpp"

namespace wa::core {

/// One sub-block of a triple block loop: i indexes C's block rows, j
/// C's block columns, k the contraction.
struct BlockIndex {
  std::size_t i, j, k;
};

/// Drive a triple block loop over ni x nj x nk blocks in @p order.
template <class Body>
void for_each_block(LoopOrder order, std::size_t ni, std::size_t nj,
                    std::size_t nk, Body body) {
  switch (order) {
    case LoopOrder::kIJK:
      for (std::size_t i = 0; i < ni; ++i)
        for (std::size_t j = 0; j < nj; ++j)
          for (std::size_t k = 0; k < nk; ++k) body(BlockIndex{i, j, k});
      break;
    case LoopOrder::kIKJ:
      for (std::size_t i = 0; i < ni; ++i)
        for (std::size_t k = 0; k < nk; ++k)
          for (std::size_t j = 0; j < nj; ++j) body(BlockIndex{i, j, k});
      break;
    case LoopOrder::kJIK:
      for (std::size_t j = 0; j < nj; ++j)
        for (std::size_t i = 0; i < ni; ++i)
          for (std::size_t k = 0; k < nk; ++k) body(BlockIndex{i, j, k});
      break;
    case LoopOrder::kJKI:
      for (std::size_t j = 0; j < nj; ++j)
        for (std::size_t k = 0; k < nk; ++k)
          for (std::size_t i = 0; i < ni; ++i) body(BlockIndex{i, j, k});
      break;
    case LoopOrder::kKIJ:
      for (std::size_t k = 0; k < nk; ++k)
        for (std::size_t i = 0; i < ni; ++i)
          for (std::size_t j = 0; j < nj; ++j) body(BlockIndex{i, j, k});
      break;
    case LoopOrder::kKJI:
      for (std::size_t k = 0; k < nk; ++k)
        for (std::size_t j = 0; j < nj; ++j)
          for (std::size_t i = 0; i < ni; ++i) body(BlockIndex{i, j, k});
      break;
  }
}

/// One block of C += A * op(B) in the paper's notation (C is m x l, A
/// is m x n, B is n x l): C's rows [i0, i0+m) and columns [j0, j0+l),
/// contraction [k0, k0+n).  A's block is (i0, k0) of m x n; B's is
/// (k0, j0) of n x l, or (j0, k0) of l x n when op(B) = B^T.
struct MatmulBlock {
  std::size_t i0, j0, k0;
  std::size_t m, n, l;

  /// Sub-block @p ix of side @p b; the last one along an axis is
  /// ragged when b does not divide the extent.
  MatmulBlock sub(BlockIndex ix, std::size_t b) const {
    const std::size_t i = ix.i * b, j = ix.j * b, k = ix.k * b;
    return {i0 + i, j0 + j, k0 + k,
            std::min(b, m - i), std::min(b, n - k), std::min(b, l - j)};
  }
};

/// Rejects a schedule with other than one order per blocking level,
/// with a zero block size, or with block sizes that shrink toward the
/// slow end.
inline void check_block_schedule(std::span<const std::size_t> block_sizes,
                                 std::span<const LoopOrder> orders) {
  check_block_sizes(block_sizes, "block schedule");
  if (block_sizes.size() != orders.size()) {
    throw std::invalid_argument("one order per blocking level required");
  }
  if (!std::is_sorted(block_sizes.begin(), block_sizes.end())) {
    throw std::invalid_argument("block sizes must grow with level");
  }
}

/// The matmul recursion.  At level t = block_sizes.size() - 1 it visits
/// the sub-blocks of @p blk of side block_sizes[t] in orders[t]; each
/// visit calls the stage that model.stage(t) returned, then recurses
/// on the levels below.  Below level 0 it calls model.leaf(blk).  The
/// stage lives for the whole level, so it can keep a block resident
/// across consecutive visits.
template <class Model>
void matmul_schedule(Model& model, const MatmulBlock& blk,
                     std::span<const std::size_t> block_sizes,
                     std::span<const LoopOrder> orders) {
  if (block_sizes.empty()) {
    model.leaf(blk);
    return;
  }
  const std::size_t t = block_sizes.size() - 1, b = block_sizes[t];
  auto stage = model.stage(t);
  for_each_block(orders[t], (blk.m + b - 1) / b, (blk.l + b - 1) / b,
                 (blk.n + b - 1) / b, [&](BlockIndex ix) {
                   const MatmulBlock s = blk.sub(ix, b);
                   stage(ix, s);
                   matmul_schedule(model, s, block_sizes.first(t),
                                   orders.first(t));
                 });
}

}  // namespace wa::core
