#pragma once
// wa::dist::detail -- shared charging helpers for the distributed
// algorithms.  Numerics run on ordinary matrices; these helpers charge
// the corresponding local data movement to a processor's
// memsim::Hierarchy in capacity-respecting chunks, so an algorithm
// that claims to be blocked for M1/M2 words cannot silently cheat.

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist::detail {

/// Throw unless C, A, B are all square with the same edge; returns n.
inline std::size_t require_square_equal(linalg::ConstMatrixView<double> C,
                                        linalg::ConstMatrixView<double> A,
                                        linalg::ConstMatrixView<double> B,
                                        const char* who) {
  const std::size_t n = C.rows();
  if (C.cols() != n || A.rows() != n || A.cols() != n || B.rows() != n ||
      B.cols() != n) {
    throw std::invalid_argument(std::string(who) +
                                ": matrices must be square and equal");
  }
  return n;
}

/// Largest square tile edge b with 3 b^2 <= M1 (>= 1).
inline std::size_t l1_tile(std::size_t M1) {
  std::size_t b = 1;
  while (3 * (b + 1) * (b + 1) <= M1) ++b;
  return b;
}

/// Chunk size for streaming through L2 without evicting residents.
inline std::size_t l2_chunk(std::size_t M2) {
  return std::max<std::size_t>(1, M2 / 4);
}

/// Charge the L1<->L2 traffic of a blocked local C(m x n) += A(m x k)
/// * B(k x n): each C tile is loaded into L1 once and stored back to
/// L2 exactly once; A/B tiles stream through and are discarded.
inline void charge_local_gemm(memsim::Hierarchy& h, std::size_t m,
                              std::size_t n, std::size_t k, std::size_t b) {
  for (std::size_t i0 = 0; i0 < m; i0 += b) {
    const std::size_t bi = std::min(b, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += b) {
      const std::size_t bj = std::min(b, n - j0);
      h.load(0, bi * bj);  // C tile
      for (std::size_t k0 = 0; k0 < k; k0 += b) {
        const std::size_t bk = std::min(b, k - k0);
        h.load(0, bi * bk);
        h.load(0, bk * bj);
        h.flops(2 * std::uint64_t(bi) * bj * bk);
        h.discard(0, bi * bk + bk * bj);
      }
      h.store(0, bi * bj);  // one write-back per tile
    }
  }
}

/// Charge the L1<->L2 traffic of an in-place blocked triangular solve
/// or panel factor on an m x n tile against a k-wide triangle: the
/// tile moves exactly like a blocked gemm of that shape (each output
/// tile loaded and stored once, operand tiles streamed), so the gemm
/// charger is reused rather than duplicating its loop.
inline void charge_local_solve(memsim::Hierarchy& h, std::size_t m,
                               std::size_t n, std::size_t k, std::size_t b) {
  charge_local_gemm(h, m, n, k, b);
}

/// Chunk size that fits next to @p reserved resident words in L2.
/// An over-reserved L2 (reserved > M2 - 2, leaving no room to stream
/// even a one-word chunk next to its double buffer) is a modeling
/// error in the caller: it used to degenerate silently into per-word
/// charge loops (quadratic simulated event counts); now it throws.
inline std::size_t l2_room(std::size_t M2, std::size_t reserved) {
  if (M2 < 2 || reserved > M2 - 2) {
    throw std::invalid_argument(
        "l2_room: " + std::to_string(reserved) + " reserved words leave no "
        "streaming room in an M2=" + std::to_string(M2) + "-word L2");
  }
  return std::max<std::size_t>(1,
                               std::min((M2 - reserved) / 2, l2_chunk(M2)));
}

/// Stream @p words from L3 through L2 (read and discard), chunked so
/// they coexist with @p reserved already-resident L2 words.
inline void charge_l3_read(memsim::Hierarchy& h, std::size_t words,
                           std::size_t M2, std::size_t reserved = 0) {
  const std::size_t chunk = l2_room(M2, reserved);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.load(1, w);
    h.discard(1, w);
    words -= w;
  }
}

/// Stream @p words from L2 into L3 (NVM writes), chunked so they
/// coexist with @p reserved already-resident L2 words.
inline void charge_l3_write(memsim::Hierarchy& h, std::size_t words,
                            std::size_t M2, std::size_t reserved = 0) {
  const std::size_t chunk = l2_room(M2, reserved);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.alloc(1, w);
    h.store(1, w);
    words -= w;
  }
}

/// Hold @p words transiently resident in L2 alongside @p reserved
/// already-resident words, chunked so the level's capacity is never
/// exceeded (pure occupancy bookkeeping: no channel traffic).
inline void charge_l2_transit(memsim::Hierarchy& h, std::size_t words,
                              std::size_t M2, std::size_t reserved) {
  if (M2 < 2 || reserved > M2 - 2) {
    throw std::invalid_argument(
        "charge_l2_transit: " + std::to_string(reserved) + " reserved words "
        "leave no transit room in an M2=" + std::to_string(M2) +
        "-word L2");
  }
  const std::size_t chunk = std::max<std::size_t>(1, (M2 - reserved) / 2);
  while (words > 0) {
    const std::size_t w = std::min(chunk, words);
    h.alloc(1, w);
    h.discard(1, w);
    words -= w;
  }
}

/// Views covering words [@p off, @p off + @p w) of @p block in
/// row-major order, for a collective that carries part of a block:
/// the rest of one row, then whole rows, then the start of a row (at
/// most three views, none empty; none at all when @p w is zero).
inline std::vector<linalg::ConstMatrixView<double>> word_range(
    linalg::ConstMatrixView<double> block, std::size_t off, std::size_t w) {
  const std::size_t cols = block.cols();
  if (off + w > block.rows() * cols) {
    throw std::out_of_range("word_range: words past the end of the block");
  }
  std::vector<linalg::ConstMatrixView<double>> views;
  if (w == 0) return views;
  std::size_t r = off / cols;
  if (const std::size_t c = off % cols; c > 0) {
    const std::size_t head = std::min(cols - c, w);
    views.push_back(block.block(r++, c, 1, head));
    w -= head;
  }
  if (w >= cols) {
    views.push_back(block.block(r, 0, w / cols, cols));
    r += w / cols;
    w %= cols;
  }
  if (w > 0) views.push_back(block.block(r, 0, 1, w));
  return views;
}

/// Split @p words into @p pieces sizes differing by at most one word
/// (their sum is exactly @p words).
inline std::vector<std::size_t> split_words(std::size_t words,
                                            std::size_t pieces) {
  pieces = std::max<std::size_t>(1, pieces);
  std::vector<std::size_t> out(pieces, words / pieces);
  for (std::size_t i = 0; i < words % pieces; ++i) ++out[i];
  return out;
}

}  // namespace wa::dist::detail
