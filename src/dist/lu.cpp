#include "dist/lu.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "dist/detail.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

// Validate shapes and build the 2-D topology the panels and trailing
// matrix are dealt onto block-cyclically (block size = panel width b,
// block (ib, jb) owned by rank (ib % pr, jb % pc)).
ProcessGrid validate_lu(const Machine& m, linalg::ConstMatrixView<double> A,
                        std::size_t b) {
  if (A.rows() != A.cols() || A.rows() == 0) {
    throw std::invalid_argument("lu: matrix must be square and nonempty");
  }
  if (b == 0 || b > A.rows()) {
    throw std::invalid_argument("lu: panel width out of range");
  }
  return ProcessGrid(m.nprocs());
}

// Grid row i and grid column j as one deterministic rank list (the
// panel-solve group of step (i, j)); the shared corner appears once.
std::vector<std::size_t> cross_group(const ProcessGrid& g, std::size_t i,
                                     std::size_t j) {
  std::vector<std::size_t> ranks = g.row_group(i);
  for (std::size_t r : g.col_group(j)) {
    if (g.row_of(r) != i) ranks.push_back(r);
  }
  return ranks;
}

}  // namespace

void lu_right_looking(Machine& m, linalg::MatrixView<double> A,
                      std::size_t b) {
  const ProcessGrid g = validate_lu(m, A, b);
  const std::size_t n = A.rows();
  const std::size_t b1 = detail::l1_tile(m.M1());

  for (std::size_t k0 = 0; k0 < n; k0 += b) {
    const std::size_t kb = k0 / b;
    const std::size_t bs = std::min(b, n - k0);
    const std::size_t lo = k0 + bs;  // trailing matrix starts here
    const std::size_t or_ = g.cyclic_row_owner(kb);
    const std::size_t oc = g.cyclic_col_owner(kb);

    // Factor the diagonal block on its owner; the finished L11/U11
    // tile is read from and written back to NVM exactly once.
    m.run_local_on({g.rank(or_, oc)}, [&](std::size_t, memsim::Hierarchy& h) {
      linalg::lu_nopivot_unblocked(A.block(k0, k0, bs, bs));
      detail::charge_l3_read(h, bs * bs, m.M2());
      detail::charge_local_solve(h, bs, bs, bs, b1);
      detail::charge_l3_write(h, bs * bs, m.M2());
    });
    if (lo >= n) break;

    // The factored diagonal goes only to the ranks solving the two
    // panels: its grid row (U row-panel) and grid column (L column-
    // panel) -- not all_procs.  It was factored just above, so the
    // broadcasts carry the real L11/U11 tile.
    const Machine::Tiles diag = {A.block(k0, k0, bs, bs)};
    m.bcast(g.row_group(or_), diag);
    m.bcast(g.col_group(oc), diag);

    // Panel solves: rank (or_, j) owns the U tiles of block row kb in
    // its cyclic trailing columns; rank (i, oc) owns the L tiles of
    // block column kb in its cyclic trailing rows.  Every charge is
    // the rank's actual owned words; each finished panel tile is
    // written to NVM exactly once, here.
    m.run_local_on(
        cross_group(g, or_, oc), [&](std::size_t p, memsim::Hierarchy& h) {
          const std::size_t i = g.row_of(p), j = g.col_of(p);
          const std::size_t u_words =
              i == or_ ? bs * g.cyclic_col_words(n, b, j, lo) : 0;
          const std::size_t l_words =
              j == oc ? g.cyclic_row_words(n, b, i, lo) * bs : 0;
          detail::charge_l2_transit(h, bs * bs, m.M2(), 0);  // received diag
          detail::charge_l3_read(h, u_words + l_words, m.M2());
          if (i == or_) {
            for (const BlockRange& cb : g.cyclic_col_blocks(n, b, j, lo)) {
              linalg::active_kernels().trsm_left_unit_lower(A.block(k0, k0, bs, bs),
                                           A.block(k0, cb.off, bs, cb.sz));
              detail::charge_local_solve(h, bs, cb.sz, bs, b1);
            }
          }
          if (j == oc) {
            for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, lo)) {
              linalg::active_kernels().trsm_right_upper(A.block(k0, k0, bs, bs),
                                       A.block(rb.off, k0, rb.sz, bs));
              detail::charge_local_solve(h, rb.sz, bs, bs, b1);
            }
          }
          detail::charge_l3_write(h, u_words + l_words, m.M2());
        });

    // Finished panel tiles travel to their gemm consumers: L tiles
    // along the owning grid row, U tiles along the owning grid column.
    // The panels were just solved, so the batched broadcasts carry the
    // real concatenated tiles.
    for (std::size_t i = 0; i < g.rows(); ++i) {
      Machine::Tiles tiles;
      for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, lo)) {
        tiles.push_back(A.block(rb.off, k0, rb.sz, bs));
      }
      m.bcast(g.row_group(i), tiles);
    }
    for (std::size_t j = 0; j < g.cols(); ++j) {
      Machine::Tiles tiles;
      for (const BlockRange& cb : g.cyclic_col_blocks(n, b, j, lo)) {
        tiles.push_back(A.block(k0, cb.off, bs, cb.sz));
      }
      m.bcast(g.col_group(j), tiles);
    }

    // Trailing update: every rank streams its own cyclic tiles of the
    // trailing matrix out of NVM, applies its gemms, and writes them
    // straight back -- the CA schedule's write amplification, charged
    // from the rank's actual owned words.
    m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
      const auto rbs = g.cyclic_row_blocks(n, b, g.row_of(p), lo);
      const auto cbs = g.cyclic_col_blocks(n, b, g.col_of(p), lo);
      const std::size_t own_rows = block_words(rbs);
      const std::size_t own_cols = block_words(cbs);
      detail::charge_l2_transit(h, (own_rows + own_cols) * bs, m.M2(), 0);
      detail::charge_l3_read(h, own_rows * own_cols, m.M2());
      for (const BlockRange& rb : rbs) {
        for (const BlockRange& cb : cbs) {
          linalg::active_kernels().gemm_acc(A.block(rb.off, cb.off, rb.sz, cb.sz),
                           A.block(rb.off, k0, rb.sz, bs),
                           A.block(k0, cb.off, bs, cb.sz), -1.0);
        }
      }
      detail::charge_local_gemm(h, own_rows, own_cols, bs, b1);
      detail::charge_l3_write(h, own_rows * own_cols, m.M2());
    });
  }
}

void lu_left_looking(Machine& m, linalg::MatrixView<double> A, std::size_t b,
                     std::size_t s) {
  const ProcessGrid g = validate_lu(m, A, b);
  if (s == 0) throw std::invalid_argument("lu: s must be positive");
  const std::size_t n = A.rows();
  const std::size_t b1 = detail::l1_tile(m.M1());

  for (std::size_t j0 = 0; j0 < n; j0 += b) {
    const std::size_t jb = j0 / b;
    const std::size_t w = std::min(b, n - j0);
    const std::size_t jc = g.cyclic_col_owner(jb);
    const std::vector<std::size_t> colg = g.col_group(jc);

    // Prior-panel refetch, the LL re-communication: every rank reads
    // the L tiles it owns in block columns < jb from its NVM and
    // ships them along its grid row to the column group factoring
    // block column jb (the group's own tiles ship to themselves, read
    // but not sent).  @p s batches the shipments into s-panel groups
    // (fewer, larger messages; the words are unchanged).  The
    // shipments are independent, so they go out as one batch.
    if (j0 > 0) {
      std::vector<Transfer> refetch;
      for (std::size_t i = 0; i < g.rows(); ++i) {
        for (std::size_t j = 0; j < g.cols(); ++j) {
          std::size_t batched = 0, in_batch = 0;
          for (std::size_t q0 = 0; q0 < j0; q0 += b) {
            if (g.cyclic_col_owner(q0 / b) != j) continue;
            const std::size_t qw = std::min(b, j0 - q0);
            batched += g.cyclic_row_words(n, b, i, q0 + qw) * qw;
            if (++in_batch == s) {
              if (batched > 0) {
                refetch.push_back({g.rank(i, j), g.rank(i, jc), batched});
              }
              batched = 0;
              in_batch = 0;
            }
          }
          if (batched > 0) {
            refetch.push_back({g.rank(i, j), g.rank(i, jc), batched});
          }
        }
      }
      std::vector<std::size_t> shipped(m.nprocs(), 0);
      for (const Transfer& t : refetch) shipped[t.src] += t.words;
      m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
        detail::charge_l3_read(h, shipped[p], m.M2());
      });
      m.send_all(refetch);
    }

    // Top-triangle chain: the U tiles of column jb in block-row order.
    // Each tile pulls every earlier tile's update into itself, then
    // solves against the stored unit-lower diagonal -- the forward-
    // substitution dependency that makes this the sequential spine of
    // LL.  It runs right-looking on the column group: once U(q) is
    // solved and broadcast, every group rank applies it to its own
    // later tiles in one job, and the owner of tile q + 1 solves that
    // tile at the end of the same job.  Each tile still takes the same
    // gemms, in ascending q, and the same solve, and its owner is
    // charged for it in one phase.  j0 is a multiple of b, so every
    // top tile is b tall.
    const auto solve_u = [&](std::size_t k0, memsim::Hierarchy& h) {
      detail::charge_l3_read(h, b * w, m.M2());  // own U tile, once
      // Received L row tiles and earlier U blocks pass through L2.
      detail::charge_l2_transit(h, k0 * b + k0 * w, m.M2(), 0);
      linalg::active_kernels().trsm_left_unit_lower(A.block(k0, k0, b, b),
                                                    A.block(k0, j0, b, w));
      detail::charge_local_gemm(h, b, w, k0, b1);
      detail::charge_local_solve(h, b, w, b, b1);
    };
    const auto u_owner = [&](std::size_t k0) {
      return g.rank(g.cyclic_row_owner(k0 / b), jc);
    };
    if (j0 > 0) {
      m.run_local_on({u_owner(0)}, [&](std::size_t, memsim::Hierarchy& h) {
        solve_u(0, h);
      });
    }
    std::vector<std::size_t> later_owners;  // of a tile in [next, j0)
    for (std::size_t q0 = 0; q0 < j0; q0 += b) {
      // The fresh U tile feeds every later tile of the column.
      m.bcast(colg, {A.block(q0, j0, b, w)});
      const std::size_t next = q0 + b;
      if (next >= j0) break;
      later_owners.clear();
      for (std::size_t p : colg) {
        if (g.cyclic_row_words(j0, b, g.row_of(p), next) > 0) {
          later_owners.push_back(p);
        }
      }
      m.run_local_on(later_owners, [&](std::size_t p, memsim::Hierarchy& h) {
        for (const BlockRange& rb :
             g.cyclic_row_blocks(j0, b, g.row_of(p), next)) {
          linalg::active_kernels().gemm_acc(A.block(rb.off, j0, rb.sz, w),
                                            A.block(rb.off, q0, rb.sz, b),
                                            A.block(q0, j0, b, w), -1.0);
        }
        if (p == u_owner(next)) solve_u(next, h);
      });
    }

    // Below-diagonal update: each rank of the column group applies
    // all prior panels to its cyclic rows of [j0, n), reading its
    // column blocks from NVM once (they stay resident until the final
    // write below -- no intermediate write-back).
    m.run_local_on(colg, [&](std::size_t p, memsim::Hierarchy& h) {
      const auto rbs = g.cyclic_row_blocks(n, b, g.row_of(p), j0);
      const std::size_t own_rows = block_words(rbs);
      detail::charge_l3_read(h, own_rows * w, m.M2());
      detail::charge_l2_transit(h, own_rows * j0 + j0 * w, m.M2(), 0);
      for (const BlockRange& rb : rbs) {
        for (std::size_t q0 = 0; q0 < j0; q0 += b) {
          const std::size_t qw = std::min(b, j0 - q0);
          linalg::active_kernels().gemm_acc(A.block(rb.off, j0, rb.sz, w),
                           A.block(rb.off, q0, rb.sz, qw),
                           A.block(q0, j0, qw, w), -1.0);
        }
      }
      detail::charge_local_gemm(h, own_rows, w, j0, b1);
    });

    // Factor the diagonal block (its tile was already read by the
    // update phase) and send it down the column group for the solves.
    m.run_local_on({g.rank(g.cyclic_row_owner(jb), jc)},
                   [&](std::size_t, memsim::Hierarchy& h) {
                     linalg::lu_nopivot_unblocked(A.block(j0, j0, w, w));
                     detail::charge_local_solve(h, w, w, w, b1);
                   });
    m.bcast(colg, {A.block(j0, j0, w, w)});

    // Solve below the diagonal and write the finished block column to
    // NVM exactly once -- the WA schedule's defining property.  Each
    // rank writes precisely the rows it owns, over the full column
    // height (top U tiles included).
    m.run_local_on(colg, [&](std::size_t p, memsim::Hierarchy& h) {
      const std::size_t i = g.row_of(p);
      detail::charge_l2_transit(h, w * w, m.M2(), 0);  // received diag
      for (const BlockRange& rb : g.cyclic_row_blocks(n, b, i, j0 + w)) {
        linalg::active_kernels().trsm_right_upper(A.block(j0, j0, w, w),
                                 A.block(rb.off, j0, rb.sz, w));
        detail::charge_local_solve(h, rb.sz, w, w, b1);
      }
      detail::charge_l3_write(h, g.cyclic_row_words(n, b, i, 0) * w, m.M2());
    });
  }
}

}  // namespace wa::dist
