#pragma once
// Loop-order vocabulary, and the block-size check, shared by the
// blocked algorithms of Section 4 and the traced instruction orders of
// Section 6.

#include <array>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>

namespace wa::core {

/// Order of the three block loops of classical matmul.  Letters name
/// the loops outermost-first: i indexes C's block rows, j indexes C's
/// block columns, k the contraction dimension.  The paper's Algorithm 1
/// is kIJK (k innermost => write-avoiding); any order with k innermost
/// is WA, any other order is merely communication-avoiding.  Per
/// recursion level of Figure 4, kIJK is WAMatMul's C-resident order
/// (Fig. 4a) and kKIJ ABMatMul's slab order (Fig. 4b), which runs the
/// contraction outermost in slabs parallel to C.
enum class LoopOrder { kIJK, kIKJ, kJIK, kJKI, kKIJ, kKJI };

inline constexpr std::array<LoopOrder, 6> kAllLoopOrders = {
    LoopOrder::kIJK, LoopOrder::kIKJ, LoopOrder::kJIK,
    LoopOrder::kJKI, LoopOrder::kKIJ, LoopOrder::kKJI};

inline bool contraction_innermost(LoopOrder o) {
  return o == LoopOrder::kIJK || o == LoopOrder::kJIK;
}

inline std::string to_string(LoopOrder o) {
  switch (o) {
    case LoopOrder::kIJK: return "ijk";
    case LoopOrder::kIKJ: return "ikj";
    case LoopOrder::kJIK: return "jik";
    case LoopOrder::kJKI: return "jki";
    case LoopOrder::kKIJ: return "kij";
    case LoopOrder::kKJI: return "kji";
  }
  return "?";
}

/// Throws std::invalid_argument naming @p who when any of @p sizes (a
/// block, base, panel, tile or cutoff size) is zero: every blocked
/// loop steps by it, divides by it or recurses toward it.
inline void check_block_sizes(std::span<const std::size_t> sizes,
                              const char* who) {
  for (const std::size_t b : sizes) {
    if (b == 0) {
      throw std::invalid_argument(std::string(who) +
                                  ": block sizes must be positive");
    }
  }
}

}  // namespace wa::core
