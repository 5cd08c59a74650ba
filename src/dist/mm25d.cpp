#include "dist/mm25d.hpp"

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/detail.hpp"
#include "dist/grid.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

/// One rank's part of the step loop: its owned block of C, the
/// k-panels it multiplies, and what charging needs to know.
struct Share {
  const ProcessGrid3D& g;
  BlockRange rb, cb;
  std::span<const BlockRange> panels;
  std::size_t M2;  // L2 words
  std::size_t b1;  // L1 tile edge

  std::size_t blk() const { return rb.sz * cb.sz; }

  /// Network words the rank receives: its A and B replicas and the C
  /// reduction along its fiber, then one A and one B panel per step.
  std::size_t received() const {
    const ProcessGrid& lg = g.layer();
    std::size_t words = 3 * Machine::bcast_rounds(g.layers()) * blk();
    for (const BlockRange& k : panels) {
      words += Machine::bcast_rounds(lg.cols()) * rb.sz * k.sz +
               Machine::bcast_rounds(lg.rows()) * k.sz * cb.sz;
    }
    return words;
  }
};

/// Per step: the received A and B panels pass through L2 next to
/// @p reserved resident words (chunked when larger than the room
/// left), then the local multiply.
void transit_and_multiply(memsim::Hierarchy& h, const Share& s,
                          std::size_t reserved) {
  for (const BlockRange& k : s.panels) {
    detail::charge_l2_transit(h, s.rb.sz * k.sz + k.sz * s.cb.sz, s.M2,
                              reserved);
    detail::charge_local_gemm(h, s.rb.sz, s.cb.sz, k.sz, s.b1);
  }
}

// ---- residency policies ------------------------------------------------
// Where each rank keeps C, the replicas and the received panels (L2 or
// NVM) is the one thing the Section 7 matmuls differ in.  refuse()
// rejects, before anything is broadcast or charged, a shape whose
// resident data would overflow L2; charge() charges one rank's local
// traffic.

/// Defaults: multiply step by step; nothing resident to refuse.
struct PerStep {
  static constexpr bool kOneMultiply = false;
  static void refuse(const ProcessGrid&, std::size_t, std::size_t) {}
};

/// 2DMML2 and 2.5DMML2 (summa_2d, plain mm_25d): received panels pass
/// through L2.
struct L2Transit : PerStep {
  static void charge(memsim::Hierarchy& h, const Share& s) {
    transit_and_multiply(h, s, 0);
  }
};

/// 2.5DMML3 (use_l3, Model 2.1): the extra replicas and the partial C
/// live in NVM rather than DRAM: 1.5x of the replica volume written,
/// 1x read back.
struct NvmReplicas : PerStep {
  static void charge(memsim::Hierarchy& h, const Share& s) {
    detail::charge_l3_write(h, 3 * s.blk(), s.M2);
    detail::charge_l3_read(h, 3 * s.blk(), s.M2);
    transit_and_multiply(h, s, 0);
  }
};

/// 2.5DMML3ooL2 (data_in_l3, Model 2.2): nothing fits in L2, so every
/// word received over the network is staged through NVM and re-read
/// for compute (this is why Theorem 4 bites: L3 writes ~ W2 >> W1).
struct NvmStaged : PerStep {
  static void charge(memsim::Hierarchy& h, const Share& s) {
    const std::size_t received = s.received();
    detail::charge_l3_read(h, 2 * s.blk(), s.M2);  // own A/B blocks
    detail::charge_l3_write(h, received, s.M2);
    detail::charge_l3_read(h, received, s.M2);
    for (const BlockRange& k : s.panels) {
      detail::charge_local_gemm(h, s.rb.sz, s.cb.sz, k.sz, s.b1);
    }
    detail::charge_l3_write(h, s.blk(), s.M2);  // the C output
  }
};

/// SUMMAL3ooL2 (summa_l3_ool2, Model 2.2): C accumulates in L2 across
/// every step and is written to NVM exactly once: W1-level L3 writes.
struct CResidentInL2 : PerStep {
  static void refuse(const ProcessGrid& lg, std::size_t n, std::size_t M2) {
    // The W1 write bound hinges on C staying resident: refuse rather
    // than silently cheat.
    if (lg.max_block_words(n) + 2 > M2) {
      throw std::invalid_argument(
          "summa_l3_ool2: the largest local C block (n/pr x n/pc words) "
          "must fit in L2");
    }
  }
  static void charge(memsim::Hierarchy& h, const Share& s) {
    const std::size_t blk = s.blk();
    h.alloc(1, blk);
    // The rank's own A and B blocks are read from NVM once each, in the
    // step where it broadcasts them; received panels stream through the
    // L2 room left next to the resident C block.
    detail::charge_l3_read(h, 2 * blk, s.M2, blk);
    transit_and_multiply(h, s, blk);
    h.store(1, blk);  // the only NVM write: the finished C block
  }
};

/// summa_2d_hoarding: hoard the full A row panel and B column panel in
/// L2 (alloc enforces that the extra memory exists), then multiply
/// once, so each C tile is written back exactly once.
struct HoardPanels {
  static constexpr bool kOneMultiply = true;
  static void refuse(const ProcessGrid& lg, std::size_t n, std::size_t M2) {
    if ((lg.row_block(n, 0).sz + lg.col_block(n, 0).sz) * n > M2) {
      throw std::invalid_argument(
          "summa_2d_hoarding: the hoarded row+column panels "
          "((n/pr + n/pc) * n words for the largest grid blocks) must fit "
          "in L2");
    }
  }
  static void charge(memsim::Hierarchy& h, const Share& s) {
    const std::size_t k = s.panels.front().sz;
    const std::size_t hoard = (s.rb.sz + s.cb.sz) * k;
    h.alloc(1, hoard);
    detail::charge_local_gemm(h, s.rb.sz, s.cb.sz, k, s.b1);
    h.discard(1, hoard);
  }
};

/// The SUMMA step sequence of every Section 7 matmul, on c layers of
/// the machine's grid: replicate A and B along the fibers, broadcast
/// each layer's share of the panels, then one local phase in which
/// every rank multiplies into its own block of C (or of its layer's
/// partial) and charges its traffic under @p Policy, and finally sum
/// the partials into C.  @p who names the entry point in errors.
template <class Policy>
void step_loop(Machine& m, const char* who, std::size_t c,
               std::size_t chunk_c2, linalg::MatrixView<double> C,
               linalg::ConstMatrixView<double> A,
               linalg::ConstMatrixView<double> B) {
  if (c == 0 || m.nprocs() % c != 0) {
    throw std::invalid_argument(std::string(who) + ": c must divide P");
  }
  const std::size_t n = detail::require_square_equal(C, A, B, who);
  if (n == 0) {
    throw std::invalid_argument(std::string(who) +
                                ": matrix must be nonempty");
  }
  const ProcessGrid3D g(m.nprocs(), c);
  const ProcessGrid& lg = g.layer();
  Policy::refuse(lg, n, m.M2());
  const std::vector<BlockRange> panels = lg.k_panels(n);

  // Replication and reduction along the layer dimension, optionally
  // chunked: the same words in more, smaller broadcasts.  Ceiling
  // division so a chunk_c2 that does not divide c still broadcasts in
  // pieces no coarser than chunk_c2 layer units.
  if (c > 1) {
    const std::size_t chunk = std::min(chunk_c2 == 0 ? c : chunk_c2, c);
    for (std::size_t i = 0; i < lg.rows(); ++i) {
      for (std::size_t j = 0; j < lg.cols(); ++j) {
        const BlockRange rb = lg.row_block(n, i);
        const BlockRange cb = lg.col_block(n, j);
        const std::size_t blk = rb.sz * cb.sz;
        if (blk == 0) continue;
        const auto fiber = g.fiber_group(i, j);
        const auto pieces =
            detail::split_words(blk, (c + chunk - 1) / chunk);
        // Replicas move piecewise: each piece carries the next words of
        // the owned A and B blocks, row-major.
        const auto a_blk = A.block(rb.off, cb.off, rb.sz, cb.sz);
        const auto b_blk = B.block(rb.off, cb.off, rb.sz, cb.sz);
        std::size_t off = 0;
        for (std::size_t w : pieces) {
          m.bcast(fiber, detail::word_range(a_blk, off, w));
          m.bcast(fiber, detail::word_range(b_blk, off, w));
          off += w;
        }
        // The partial C blocks do not exist yet at charge time; the
        // transport moves (and combines) synthetic partials instead.
        for (std::size_t w : pieces) m.reduce(fiber, w);
      }
    }
  }

  // SUMMA panel broadcasts within each layer, over the layer's
  // balanced share of the step sequence: A(:,k) along rows, B(k,:)
  // along columns.  On a padded grid the panel words vary with the
  // owner's edge-block sizes.
  for (std::size_t l = 0; l < c; ++l) {
    const BlockRange steps = g.layer_steps(panels.size(), l);
    for (std::size_t t = steps.off; t < steps.off + steps.sz; ++t) {
      const BlockRange& panel = panels[t];
      for (std::size_t i = 0; i < lg.rows(); ++i) {
        const BlockRange rb = lg.row_block(n, i);
        m.bcast(g.row_group(i, l),
                {A.block(rb.off, panel.off, rb.sz, panel.sz)});
      }
      for (std::size_t j = 0; j < lg.cols(); ++j) {
        const BlockRange cb = lg.col_block(n, j);
        m.bcast(g.col_group(j, l),
                {B.block(panel.off, cb.off, panel.sz, cb.sz)});
      }
    }
  }

  // Local phase: every rank computes its layer's partial of its own C
  // block and charges its local traffic.  Layer 0 accumulates into C
  // directly; layers >= 1 write disjoint blocks of per-layer scratch
  // matrices which are reduced into C afterwards in layer order, so
  // the result is deterministic under any backend.
  std::vector<linalg::Matrix<double>> partial;
  partial.reserve(c - 1);
  for (std::size_t l = 1; l < c; ++l) partial.emplace_back(n, n, 0.0);

  const BlockRange all_of_k{0, n};
  const std::size_t b1 = detail::l1_tile(m.M1());
  m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
    const std::size_t l = g.layer_of(p);
    const std::size_t lr = g.layer_rank_of(p);
    const BlockRange steps = g.layer_steps(panels.size(), l);
    const Share s{g,
                  lg.row_block(n, lg.row_of(lr)),
                  lg.col_block(n, lg.col_of(lr)),
                  Policy::kOneMultiply
                      ? std::span<const BlockRange>(&all_of_k, 1)
                      : std::span(panels).subspan(steps.off, steps.sz),
                  m.M2(),
                  b1};
    if (s.blk() > 0) {
      linalg::MatrixView<double> out =
          l == 0 ? C.block(s.rb.off, s.cb.off, s.rb.sz, s.cb.sz)
                 : partial[l - 1].block(s.rb.off, s.cb.off, s.rb.sz,
                                        s.cb.sz);
      for (const BlockRange& k : s.panels) {
        if (k.sz == 0) continue;
        linalg::active_kernels().gemm_acc(
            out, A.block(s.rb.off, k.off, s.rb.sz, k.sz),
            B.block(k.off, s.cb.off, k.sz, s.cb.sz), 1.0);
      }
    }
    Policy::charge(h, s);
  });

  // The fiber reduction's numerics: each layer-0 rank sums the layer
  // partials into its own C block, in layer order (fixed order =>
  // deterministic floating point).  A second backend pass over just
  // the layer-0 ranks, so the reduction is parallelized and counted
  // in local_wall_seconds like every other local phase; it charges
  // nothing (the reduce() calls above already modelled its traffic).
  if (c > 1) {
    std::vector<std::size_t> layer0(lg.size());
    for (std::size_t lr = 0; lr < lg.size(); ++lr) layer0[lr] = lr;
    m.run_local_on(layer0, [&](std::size_t p, memsim::Hierarchy&) {
      const BlockRange rb = lg.row_block(n, lg.row_of(p));
      const BlockRange cb = lg.col_block(n, lg.col_of(p));
      for (const auto& part : partial) {
        for (std::size_t i = rb.off; i < rb.off + rb.sz; ++i) {
          for (std::size_t j = cb.off; j < cb.off + cb.sz; ++j) {
            C(i, j) += part(i, j);
          }
        }
      }
    });
  }
}

}  // namespace

void mm_25d(Machine& m, linalg::MatrixView<double> C,
            linalg::ConstMatrixView<double> A,
            linalg::ConstMatrixView<double> B, const Mm25dOptions& opt) {
  if (opt.data_in_l3) {
    step_loop<NvmStaged>(m, "mm_25d", opt.c, opt.chunk_c2, C, A, B);
  } else if (opt.use_l3) {
    step_loop<NvmReplicas>(m, "mm_25d", opt.c, opt.chunk_c2, C, A, B);
  } else {
    step_loop<L2Transit>(m, "mm_25d", opt.c, opt.chunk_c2, C, A, B);
  }
}

void summa_2d(Machine& m, linalg::MatrixView<double> C,
              linalg::ConstMatrixView<double> A,
              linalg::ConstMatrixView<double> B) {
  step_loop<L2Transit>(m, "summa_2d", 1, 0, C, A, B);
}

void summa_2d_hoarding(Machine& m, linalg::MatrixView<double> C,
                       linalg::ConstMatrixView<double> A,
                       linalg::ConstMatrixView<double> B) {
  step_loop<HoardPanels>(m, "summa_2d_hoarding", 1, 0, C, A, B);
}

void summa_l3_ool2(Machine& m, linalg::MatrixView<double> C,
                   linalg::ConstMatrixView<double> A,
                   linalg::ConstMatrixView<double> B) {
  step_loop<CResidentInL2>(m, "summa_l3_ool2", 1, 0, C, A, B);
}

}  // namespace wa::dist
