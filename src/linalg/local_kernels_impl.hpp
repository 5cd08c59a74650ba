#pragma once
// The cache-blocked GEMM engine behind the kBlocked LocalKernels
// table.  This header is compiled into THREE translation units --
// local_kernels.cpp (portable baseline codegen, 4x8 generic
// micro-kernel), local_kernels_x86.cpp (AVX2+FMA codegen, which
// supplies a 6x8 intrinsics micro-kernel) and local_kernels_avx512.cpp
// (AVX-512F codegen: the same 6x8 kernel plus a pair kernel that takes
// two adjacent full tiles per call) -- so the same engine runs with a
// per-ISA register block.  Every function here is `static` on
// purpose: the templates get internal linkage, each TU owns private
// instantiations, and the linker can never merge the
// differently-compiled copies (which would either strand the fast
// path or leak AVX2 or AVX-512 code into the portable one).
//
// Shape of the engine (the paper's Section 4 blocking story, applied
// to the simulator's own host):
//   * operands are packed from their (possibly strided) MatrixView
//     sub-blocks into contiguous micro-panels -- A in MR-row panels
//     with alpha folded in, B in NR-column panels, both zero-padded
//     to full panels so the micro-kernel never branches on edges;
//   * the micro-kernel holds an MR x NR register block of C and
//     streams one packed k-slice per step, reusing every loaded A
//     value NR times and every B value MR times (the
//     "columns-at-a-time" reuse that turns the naive kernel's
//     bandwidth bound into a flop bound);
//   * panels are sized so a packed A block stays L2-resident and the
//     in-flight A/B micro-panels stay L1-sized while C tiles stream.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"

namespace wa::linalg::lk_engine {

inline constexpr std::size_t kKC = 256; // packed panel depth (L1-sized slices)
inline constexpr std::size_t kMC = 192; // packed A rows (multiple of every MR)
inline constexpr std::size_t kNC = 512; // packed B cols per sweep

/// c[r*ldc + q] += sum_k apanel[k-slice] (x) bpanel[k-slice]: the
/// register-blocked inner kernel accumulates straight into the MR x
/// NR output tile (a C tile for interior work, a zeroed scratch tile
/// for masked edges), so full tiles never round-trip a buffer.
using MicroFn = void (*)(std::size_t kc, const double* apanel,
                         const double* bpanel, double* c, std::size_t ldc);

/// The autovectorizable reference micro-kernel.  The accumulator
/// block never escapes the loop, so it is register-promoted; keep
/// MR * NR at or under 32 doubles or GCC spills it.
template <std::size_t MR, std::size_t NR>
static void generic_micro(std::size_t kc, const double* apanel,
                          const double* bpanel, double* c, std::size_t ldc) {
  double t[MR * NR] = {};
  for (std::size_t k = 0; k < kc; ++k) {
    const double* a = apanel + k * MR;
    const double* b = bpanel + k * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const double ar = a[r];
      for (std::size_t q = 0; q < NR; ++q) t[r * NR + q] += ar * b[q];
    }
  }
  for (std::size_t r = 0; r < MR; ++r) {
    for (std::size_t q = 0; q < NR; ++q) c[r * ldc + q] += t[r * NR + q];
  }
}

/// apack layout: ceil(mc/MR) row panels; panel p stores k-major
/// slices [alpha * A(ic + p*MR + r, pc + k)]_{r < MR}, rows past mc
/// zero-padded.
template <std::size_t MR>
static void pack_a(ConstMatrixView<double> A, std::size_t ic, std::size_t pc,
                   std::size_t mc, std::size_t kc, double alpha,
                   double* apack) {
  for (std::size_t p = 0; p * MR < mc; ++p) {
    double* dst = apack + p * MR * kc;
    const std::size_t rows = std::min(MR, mc - p * MR);
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t r = 0; r < rows; ++r) {
        dst[k * MR + r] = alpha * A(ic + p * MR + r, pc + k);
      }
      for (std::size_t r = rows; r < MR; ++r) dst[k * MR + r] = 0.0;
    }
  }
}

/// bpack layout: ceil(nc/NR) column panels; panel q stores k-major
/// slices [B(pc + k, jc + q*NR + c)]_{c < NR} (or the transposed
/// source B(jc + q*NR + c, pc + k) for C += A * B^T), columns past
/// nc zero-padded.
template <std::size_t NR>
static void pack_b(ConstMatrixView<double> B, std::size_t pc, std::size_t jc,
                   std::size_t kc, std::size_t nc, bool b_transposed,
                   double* bpack) {
  for (std::size_t q = 0; q * NR < nc; ++q) {
    double* dst = bpack + q * NR * kc;
    const std::size_t cols = std::min(NR, nc - q * NR);
    if (!b_transposed && cols == NR) {
      // Full panel from a plain B: each k-slice is NR contiguous
      // doubles of a B row, so the copy vectorizes.
      for (std::size_t k = 0; k < kc; ++k) {
        const double* src = &B(pc + k, jc + q * NR);
        for (std::size_t c = 0; c < NR; ++c) dst[k * NR + c] = src[c];
      }
      continue;
    }
    for (std::size_t k = 0; k < kc; ++k) {
      for (std::size_t c = 0; c < cols; ++c) {
        dst[k * NR + c] = b_transposed ? B(jc + q * NR + c, pc + k)
                                       : B(pc + k, jc + q * NR + c);
      }
      for (std::size_t c = cols; c < NR; ++c) dst[k * NR + c] = 0.0;
    }
  }
}

/// C(mc x nc block at ic, jc) += packed A block * packed B block.
/// Full tiles accumulate straight into C; edge tiles go through a
/// zeroed scratch tile whose padded lanes the write-back masks out.
/// The optional pair kernel takes a full MR-row panel against two
/// adjacent full NR-column panels in one call (packed B panel q + 1
/// starts NR * kc doubles after panel q, so it is handed panel q);
/// every other tile -- a pair's edge rows, each panel through its own
/// scratch tile, an unpaired last full panel, a ragged last panel --
/// runs micro.  A pair kernel must give each element micro's
/// arithmetic, so pairing never moves a bit.
template <std::size_t MR, std::size_t NR>
static void macro_kernel(MatrixView<double> C, std::size_t ic, std::size_t jc,
                         std::size_t mc, std::size_t nc, std::size_t kc,
                         const double* apack, const double* bpack,
                         MicroFn micro, MicroFn pair) {
  const std::size_t ldc = C.stride();
  double* cbase = C.data() + ic * ldc + jc;
  const auto tile = [&](std::size_t ir, std::size_t jr) {
    const std::size_t rows = std::min(MR, mc - ir);
    const std::size_t cols = std::min(NR, nc - jr);
    const double* apanel = apack + (ir / MR) * MR * kc;
    const double* bpanel = bpack + (jr / NR) * NR * kc;
    if (rows == MR && cols == NR) {
      micro(kc, apanel, bpanel, cbase + ir * ldc + jr, ldc);
      return;
    }
    double acc[MR * NR] = {};
    micro(kc, apanel, bpanel, acc, NR);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        C(ic + ir + r, jc + jr + c) += acc[r * NR + c];
      }
    }
  };
  std::size_t jr = 0;
  while (jr < nc) {
    const bool two = pair != nullptr && jr + 2 * NR <= nc;
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      if (two && ir + MR <= mc) {
        pair(kc, apack + (ir / MR) * MR * kc, bpack + (jr / NR) * NR * kc,
             cbase + ir * ldc + jr, ldc);
        continue;
      }
      tile(ir, jr);
      if (two) tile(ir, jr + NR);
    }
    jr += two ? 2 * NR : NR;
  }
}

/// C += alpha * A * B (or alpha * A * B^T): the packed, blocked
/// driver, with an optional pair kernel (see macro_kernel).  Shapes
/// are checked by the dispatching caller.
template <std::size_t MR, std::size_t NR>
static void gemm_blocked(MatrixView<double> C, ConstMatrixView<double> A,
                         ConstMatrixView<double> B, double alpha,
                         bool b_transposed, MicroFn micro,
                         MicroFn pair = nullptr) {
  static_assert(kMC % MR == 0, "A block must hold whole micro-panels");
  const std::size_t m = C.rows(), n = C.cols(), kdim = A.cols();
  // 64-byte-aligned pack buffers: every full B panel slice is then a
  // cache-line-aligned vector load in the micro-kernel.  One grow-only
  // pair per thread, kept across calls, so a call neither zero-fills
  // nor page-faults its buffers: pack_a / pack_b write every element a
  // call reads, padding included.
  thread_local std::vector<double> astore, bstore;
  const auto aligned = [](std::vector<double>& v, std::size_t need) {
    if (v.size() < need + 8) v.resize(need + 8);
    // Pointer-to-integer probe for cache-line alignment only; the
    // integer is never converted back to a pointer.
    // NOLINT(wa-cast): alignment probe, no type-punned access
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    return v.data() + (64 - addr % 64) % 64 / 8;
  };
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t ncr = (nc + NR - 1) / NR * NR;
    for (std::size_t pc = 0; pc < kdim; pc += kKC) {
      const std::size_t kc = std::min(kKC, kdim - pc);
      double* bpack = aligned(bstore, ncr * kc);
      pack_b<NR>(B, pc, jc, kc, nc, b_transposed, bpack);
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        const std::size_t mcr = (mc + MR - 1) / MR * MR;
        double* apack = aligned(astore, mcr * kc);
        pack_a<MR>(A, ic, pc, mc, kc, alpha, apack);
        macro_kernel<MR, NR>(C, ic, jc, mc, nc, kc, apack, bpack, micro,
                             pair);
      }
    }
  }
}

}  // namespace wa::linalg::lk_engine
