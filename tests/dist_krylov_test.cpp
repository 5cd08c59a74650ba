// The distributed Section 8 Krylov solvers (dist/krylov.hpp): the
// 1-D row and 2-D block partitions and their ghost-exchange geometry,
// bitwise equality with the shared-memory solvers on P = 1, residual
// parity on ragged rank counts, serial-vs-threaded counter identity,
// the exact Theta(s) write reduction of the streaming matrix-powers
// variant, the bandwidth-halo blow-up the 2-D partition fixes, known
// answers over every channel and partition kind, the exact
// slow-memory words of a solve at P = 1, and the streaming chunk size
// rule against its floor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {
namespace {

using krylov::CaCgBasis;
using krylov::CaCgMode;
using krylov::CaCgOptions;

Machine make_machine(std::size_t P,
                     std::unique_ptr<Backend> backend = nullptr) {
  return Machine(P, 192, 4096, 1 << 24, HwParams{}, std::move(backend));
}

/// Deterministic SPD test system: a (2b+1)-point stencil with a
/// random smooth solution.
struct Problem {
  sparse::Csr A;
  std::vector<double> b;
  std::vector<double> x_true;
};

Problem make_problem(std::size_t n, unsigned bw, unsigned seed) {
  Problem prob;
  prob.A = sparse::stencil_1d(n, bw);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  prob.x_true.resize(n);
  for (auto& v : prob.x_true) v = dist(rng);
  prob.b.resize(n);
  sparse::spmv(prob.A, prob.x_true, prob.b);
  return prob;
}

// ---- 1-D partition + halo geometry --------------------------------------

TEST(Halo, TransfersClipAtDomainEdges) {
  // n = 12, ghost 2: interior ranks exchange 2 rows with each
  // neighbour; the first and last rank have one one-sided zone only.
  const auto hs = halo_transfers_2d(ProcessGrid(1, 4), 12, 1, 2);
  std::size_t total = 0;
  for (const auto& t : hs) {
    EXPECT_NE(t.src, t.dst);
    total += t.rows;
  }
  // Each of the 3 internal boundaries moves 2 rows in each direction.
  EXPECT_EQ(total, 3u * 2u * 2u);
}

TEST(Halo, WideGhostSpillsAcrossSeveralRanks) {
  // n = 8 (blocks of 2), ghost 3 > block size: rank 0's ghost zone
  // [2, 5) spans ranks 1 and 2.
  const auto hs = halo_transfers_2d(ProcessGrid(1, 4), 8, 1, 3);
  std::size_t to0_from1 = 0, to0_from2 = 0;
  for (const auto& t : hs) {
    if (t.dst == 0 && t.src == 1) to0_from1 += t.rows;
    if (t.dst == 0 && t.src == 2) to0_from2 += t.rows;
  }
  EXPECT_EQ(to0_from1, 2u);
  EXPECT_EQ(to0_from2, 1u);
}

TEST(Halo, EmptyForSingleRankOrZeroGhost) {
  EXPECT_TRUE(halo_transfers_2d(ProcessGrid(1, 1), 100, 1, 5).empty());
  EXPECT_TRUE(halo_transfers_2d(ProcessGrid(1, 4), 100, 1, 0).empty());
}

bool same_transfers(const std::vector<HaloTransfer>& got,
                    const std::vector<HaloTransfer>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].src != want[i].src || got[i].dst != want[i].dst ||
        got[i].rows != want[i].rows) {
      return false;
    }
  }
  return true;
}

TEST(Halo, GhostCoveringWholeDomainShipsEveryOtherBlock) {
  // ghost >= n: every rank requests the whole rest of the vector.
  // Blocks of 2 on n = 8; each rank's two zones are split by owner in
  // ascending order, the rows before its block first -- pinned exactly.
  const auto hs = halo_transfers_2d(ProcessGrid(1, 4), 8, 1, 8);
  const std::vector<HaloTransfer> want = {
      {1, 0, 2}, {2, 0, 2}, {3, 0, 2},   // rank 0: rows after only
      {0, 1, 2}, {2, 1, 2}, {3, 1, 2},   // rank 1: [0,2) then [4,8)
      {0, 2, 2}, {1, 2, 2}, {3, 2, 2},   // rank 2
      {0, 3, 2}, {1, 3, 2}, {2, 3, 2}};  // rank 3: rows before only
  EXPECT_TRUE(same_transfers(hs, want));
}

TEST(Halo, EmptyBlocksRequestAndShipNothing) {
  // n = 4 < P = 6: ranks 4 and 5 own nothing, so they appear in no
  // shipment; the populated ranks exchange single rows -- pinned.
  const auto hs = halo_transfers_2d(ProcessGrid(1, 6), 4, 1, 1);
  const std::vector<HaloTransfer> want = {
      {1, 0, 1},                          // rank 0: rows after only
      {0, 1, 1}, {2, 1, 1},               // rank 1
      {1, 2, 1}, {3, 2, 1},               // rank 2
      {2, 3, 1}};                         // rank 3: rows before only
  EXPECT_TRUE(same_transfers(hs, want));
}

// ---- 2-D block partition + halo geometry --------------------------------

TEST(Halo2D, InteriorTileShipsFacesAndCorners) {
  // 64 x 64 mesh on a 4 x 4 grid (16 x 16 tiles), ghost 4: an
  // interior tile's dilated box is 24 x 24, so it receives exactly
  // 24^2 - 16^2 = 320 nodes -- 4 faces of 4*16 plus 4 corners of 4^2.
  const ProcessGrid g(4, 4);
  const auto hs = halo_transfers_2d(g, 64, 64, 4);
  std::size_t recv5 = 0, sent5 = 0;
  for (const auto& t : hs) {
    EXPECT_NE(t.src, t.dst);
    if (t.dst == 5) recv5 += t.rows;
    if (t.src == 5) sent5 += t.rows;
  }
  EXPECT_EQ(recv5, 320u);
  EXPECT_EQ(sent5, 320u);  // interior exchange is symmetric
  EXPECT_DOUBLE_EQ(double(recv5), halo_words_2d_model(64, 64, 1, 4, 4, 4));
}

TEST(Halo2D, LayeredPartitionShipsWholePencils) {
  // poisson_3d-style layered tiles: every 2-D shipment carries its nz
  // mesh layers.
  const ProcessGrid g(2, 2);
  BlockPartition2D flat(g, 8, 8, 1, 1);
  BlockPartition2D layered(g, 8, 8, 5, 1);
  const auto h1 = flat.halo(2);
  const auto h5 = layered.halo(2);
  ASSERT_EQ(h1.size(), h5.size());
  for (std::size_t i = 0; i < h1.size(); ++i) {
    EXPECT_EQ(h5[i].rows, 5 * h1[i].rows);
  }
}

TEST(Halo2D, DiamondShipsExactWordCountForCrossStencils) {
  // 64 x 64 mesh on a 4 x 4 grid, ghost 4 (s = 4 hops of a 5-point
  // stencil): the box variant ships 4 faces of 4*16 plus 4 corners of
  // 4^2 = 320 nodes into an interior tile; the diamond keeps the
  // faces but each corner wedge carries only 4*3/2 = 6 nodes -- 280
  // total, pinned exactly against the box and the closed form.
  const ProcessGrid g(4, 4);
  const auto box = halo_transfers_2d(g, 64, 64, 4);
  const auto dia = halo_transfers_2d(g, 64, 64, 4, /*diamond=*/true);
  const auto recv = [](const std::vector<HaloTransfer>& hs, std::size_t p) {
    std::size_t r = 0;
    for (const auto& t : hs) {
      if (t.dst == p) r += t.rows;
    }
    return r;
  };
  EXPECT_EQ(recv(box, 5), 320u);
  EXPECT_EQ(recv(dia, 5), 280u);
  EXPECT_DOUBLE_EQ(double(recv(dia, 5)),
                   halo_words_2d_diamond_model(64, 64, 1, 4, 4, 4));

  // The cross-stencil generator routes BlockPartition2D through the
  // diamond list (scaled by nz pencils like the box path).
  const auto A = sparse::stencil_2d_cross(64, 64, 1);
  EXPECT_TRUE(A.cross);
  const auto part = make_partition(16, A);
  EXPECT_EQ(recv(part->halo(4), 5), 280u);
  EXPECT_EQ(recv(make_partition(16, sparse::stencil_2d(64, 64, 1))->halo(4),
                 5),
            320u);
}

TEST(Halo2D, DiamondIsSubsetOfBoxOnRaggedMesh) {
  // Uneven tiles, ghost spilling across neighbours: every diamond
  // shipment is bounded by the box shipment between the same pair,
  // and the per-rank received counts never exceed the box's.
  const std::size_t nx = 13, ny = 7, ghost = 3;
  const ProcessGrid g(2, 3);
  const auto box = halo_transfers_2d(g, nx, ny, ghost);
  const auto dia = halo_transfers_2d(g, nx, ny, ghost, /*diamond=*/true);
  const auto pair_rows = [](const std::vector<HaloTransfer>& hs,
                            std::size_t src, std::size_t dst) {
    std::size_t r = 0;
    for (const auto& t : hs) {
      if (t.src == src && t.dst == dst) r += t.rows;
    }
    return r;
  };
  std::size_t box_total = 0, dia_total = 0;
  for (std::size_t s = 0; s < g.size(); ++s) {
    for (std::size_t d = 0; d < g.size(); ++d) {
      EXPECT_LE(pair_rows(dia, s, d), pair_rows(box, s, d))
          << s << "->" << d;
      box_total += pair_rows(box, s, d);
      dia_total += pair_rows(dia, s, d);
    }
  }
  EXPECT_LT(dia_total, box_total);
  // Depth 1: one application of a 5-point stencil never touches the
  // diagonal neighbour, so purely-diagonal shipments (the box's
  // single corner node) vanish while face shipments match the box.
  const auto box1 = halo_transfers_2d(g, nx, ny, 1);
  const auto dia1 = halo_transfers_2d(g, nx, ny, 1, /*diamond=*/true);
  for (std::size_t s = 0; s < g.size(); ++s) {
    for (std::size_t d = 0; d < g.size(); ++d) {
      const bool diag = g.row_of(s) != g.row_of(d) && g.col_of(s) != g.col_of(d);
      EXPECT_EQ(pair_rows(dia1, s, d), diag ? 0 : pair_rows(box1, s, d))
          << s << "->" << d;
    }
  }
}

/// A depth-@p ghost exchange found by walking the mesh node by node:
/// for each non-empty destination tile, every node outside it whose
/// per-axis distances (gx, gy) to the tile satisfy max(gx, gy) <=
/// ghost (box) or gx + gy <= ghost (diamond) is shipped by the tile
/// owning it.  Listed by destination, then by source rank.
std::vector<HaloTransfer> node_by_node_halo(const ProcessGrid& g,
                                            std::size_t nx, std::size_t ny,
                                            std::size_t ghost, bool diamond) {
  const auto gap = [](std::size_t v, const BlockRange& t) -> std::size_t {
    if (v < t.off) return t.off - v;
    return v >= t.off + t.sz ? v - (t.off + t.sz) + 1 : 0;
  };
  std::vector<std::size_t> col_owner(nx), row_owner(ny);
  for (std::size_t j = 0; j < g.cols(); ++j) {
    const BlockRange t = g.col_block(nx, j);
    for (std::size_t x = t.off; x < t.off + t.sz; ++x) col_owner[x] = j;
  }
  for (std::size_t i = 0; i < g.rows(); ++i) {
    const BlockRange t = g.row_block(ny, i);
    for (std::size_t y = t.off; y < t.off + t.sz; ++y) row_owner[y] = i;
  }
  std::vector<HaloTransfer> out;
  for (std::size_t p = 0; p < g.size(); ++p) {
    const BlockRange ty = g.row_block(ny, g.row_of(p));
    const BlockRange tx = g.col_block(nx, g.col_of(p));
    if (tx.sz == 0 || ty.sz == 0) continue;
    std::vector<std::size_t> nodes(g.size(), 0);
    for (std::size_t y = 0; y < ny; ++y) {
      for (std::size_t x = 0; x < nx; ++x) {
        const std::size_t gx = gap(x, tx), gy = gap(y, ty);
        const bool near =
            diamond ? gx + gy <= ghost : std::max(gx, gy) <= ghost;
        if (near && gx + gy > 0) ++nodes[g.rank(row_owner[y], col_owner[x])];
      }
    }
    for (std::size_t q = 0; q < g.size(); ++q) {
      if (nodes[q] > 0) out.push_back(HaloTransfer{q, p, nodes[q]});
    }
  }
  return out;
}

TEST(Halo2D, MatchesNodeByNodeReference) {
  // Box and diamond lists on ragged tiles, empty tiles and ghosts
  // spanning several tiles or the whole mesh equal the node-by-node
  // reference entry by entry, in order.  The other Halo2D tests check
  // the diamond exactly at one interior tile and elsewhere only as a
  // subset of the box.
  std::size_t configs = 0, mismatches = 0;
  const auto check = [&](const ProcessGrid& g, std::size_t nx,
                         std::size_t ny, std::size_t ghost, bool diamond,
                         const std::vector<HaloTransfer>& got) {
    ++configs;
    if (!same_transfers(got, node_by_node_halo(g, nx, ny, ghost, diamond)) &&
        mismatches++ == 0) {
      ADD_FAILURE() << "first mismatch: " << g.rows() << " x " << g.cols()
                    << " grid, " << nx << " x " << ny << " mesh, ghost "
                    << ghost << (diamond ? ", diamond" : ", box");
    }
  };
  for (std::size_t pr = 1; pr <= 5; ++pr) {
    for (std::size_t pc = 1; pc <= 5; ++pc) {
      const ProcessGrid g(pr, pc);
      for (std::size_t nx : {1, 2, 5, 9, 13, 17}) {
        for (std::size_t ny : {1, 3, 4, 8, 11, 15}) {
          for (std::size_t ghost = 0; ghost <= 9; ++ghost) {
            for (const bool diamond : {false, true}) {
              check(g, nx, ny, ghost, diamond,
                    halo_transfers_2d(g, nx, ny, ghost, diamond));
            }
          }
        }
      }
    }
  }
  // The linear case: 1 x P grids of an n x 1 mesh, at every depth up
  // to past the whole mesh.
  for (std::size_t P = 1; P <= 12; ++P) {
    const ProcessGrid g(1, P);
    for (std::size_t n = 0; n <= 40; ++n) {
      for (std::size_t ghost = 0; ghost <= n + 3; ++ghost) {
        check(g, n, 1, ghost, false, halo_transfers_2d(g, n, 1, ghost));
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << configs << " configurations";
}

TEST(Halo2D, DiamondHaloLeavesIteratesBitwiseUnchanged) {
  // The halo list is charging geometry; the numerics read the same
  // exchanged ghosts either way.  Solving the same cross-stencil
  // system under diamond and box halos must agree bitwise while the
  // diamond puts strictly fewer words on the wire.
  const auto A = sparse::stencil_2d_cross(20, 13, 1);
  std::vector<double> b(A.n);
  {
    std::mt19937_64 rng(59);
    std::uniform_real_distribution<double> dist(-1, 1);
    std::vector<double> xt(A.n);
    for (auto& v : xt) v = dist(rng);
    sparse::spmv(A, xt, b);
  }
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-9;
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    opt.mode = mode;
    const std::size_t P = 6;
    const auto dia = make_partition(P, A);  // A.cross routes to diamond
    const BlockPartition2D box(best_grid_2d(P, A.nx, A.ny), A.nx, A.ny,
                               A.nz, A.radius, /*cross_halo=*/false);
    Machine md = make_machine(P), mb = make_machine(P);
    std::vector<double> xd(A.n, 0.0), xb(A.n, 0.0);
    const auto rd = ca_cg(md, *dia, A, b, xd, opt);
    const auto rb = ca_cg(mb, box, A, b, xb, opt);
    EXPECT_TRUE(rd.converged);
    EXPECT_EQ(rd.iterations, rb.iterations);
    EXPECT_EQ(std::memcmp(xd.data(), xb.data(), A.n * sizeof(double)), 0);
    std::uint64_t nw_d = 0, nw_b = 0;
    for (std::size_t p = 0; p < P; ++p) {
      nw_d += md.proc(p).nw.words;
      nw_b += mb.proc(p).nw.words;
    }
    EXPECT_LT(nw_d, nw_b);
  }
}

TEST(BestGrid2D, FitsTheMeshAspect) {
  // Square mesh: the most-square factorization minimizes the halo.
  EXPECT_EQ(best_grid_2d(16, 64, 64).rows(), 4u);
  // Long thin mesh: a 1 x 16 grid of 16 x 16 tiles beats 4 x 4.
  const ProcessGrid long_grid = best_grid_2d(16, 256, 16);
  EXPECT_EQ(long_grid.rows(), 1u);
  EXPECT_EQ(long_grid.cols(), 16u);
}

TEST(PartitionFactory, AutoPicksGeometryAwarePartition) {
  const auto A1 = sparse::stencil_1d(64, 2);
  const auto p1 = make_partition(4, A1);
  EXPECT_EQ(p1->ny(), 1u);
  EXPECT_EQ(p1->radius(), 2u);  // 1-D: radius == bandwidth
  const auto A2 = sparse::stencil_2d(16, 8, 1);
  const auto p2 = make_partition(4, A2);
  EXPECT_EQ(p2->nx(), 16u);
  EXPECT_EQ(p2->ny(), 8u);
  EXPECT_EQ(p2->radius(), 1u);  // 2-D: radius == stencil radius, not bw
  const auto A3 = sparse::poisson_3d(4, 4, 4);
  const auto p3 = make_partition(4, A3);
  EXPECT_EQ(p3->nz(), 4u);
  // A matrix without mesh geometry cannot be 2-D partitioned; kAuto
  // routes it to the graph partition, and the old bandwidth-halo 1-D
  // fallback stays reachable via explicit kRows1D.
  sparse::Csr bare = A1;
  bare.nx = bare.ny = bare.nz = bare.radius = 0;
  EXPECT_EQ(make_partition(4, bare)->ny(), 1u);
  EXPECT_NE(make_partition(4, bare)->graph(), nullptr);
  EXPECT_EQ(make_partition(4, bare, PartitionKind::kRows1D)->graph(),
            nullptr);
  EXPECT_THROW(make_partition(4, bare, PartitionKind::kBlocks2D),
               std::invalid_argument);
  // Inconsistent self-declared geometry is refused up front instead
  // of under-sizing the halos and reading out of bounds later.
  sparse::Csr lying = sparse::stencil_2d(16, 8, 2);
  lying.radius = 1;  // entries really reach 2 nodes per axis
  EXPECT_THROW(make_partition(4, lying, PartitionKind::kBlocks2D),
               std::invalid_argument);
  sparse::Csr shrunk = sparse::stencil_2d(16, 8, 1);
  shrunk.ny = 4;  // dims no longer cover the matrix
  EXPECT_THROW(make_partition(4, shrunk, PartitionKind::kBlocks2D),
               std::invalid_argument);
  // A false cross flag would ship the diamond while the 9-point basis
  // reads the whole box: 416 rows at depth 4 on P = 6 against 496.
  sparse::Csr boxy = sparse::stencil_2d(20, 13, 1);
  boxy.cross = true;  // its corner entries couple two axes at once
  EXPECT_THROW(make_partition(6, boxy), std::invalid_argument);
  for (const sparse::Csr& ok :
       {sparse::stencil_1d(20, 2), sparse::stencil_2d_cross(20, 13, 2),
        sparse::poisson_3d(6, 5, 4)}) {
    EXPECT_NO_THROW(make_partition(6, ok, PartitionKind::kBlocks2D));
  }
  EXPECT_TRUE(sparse::stencil_2d_cross(20, 13, 2).cross);
  EXPECT_TRUE(sparse::poisson_3d(6, 5, 4).cross);
}

TEST(Partition2D, HaloBlowupOfBandwidthDerived1DGhosts) {
  // The PR 4 bug, pinned as geometry: on a long 2-D mesh the 1-D
  // partition's bandwidth-derived ghost (s * bw rows, bw = b*nx + b)
  // saturates at "the whole rest of the vector" while the 2-D block
  // partition ships only faces -- >= 10x fewer ghost words.
  const auto A = sparse::stencil_2d(256, 16, 1);
  const std::size_t P = 16, s = 4;
  const std::size_t bw = A.bandwidth();
  EXPECT_EQ(bw, 257u);

  const auto part1 = make_partition(P, A, PartitionKind::kRows1D);
  const auto part2 = make_partition(P, A, PartitionKind::kBlocks2D);
  const auto max_recv = [&](const Partition& part, std::size_t depth) {
    std::vector<std::size_t> recv(P, 0);
    for (const auto& t : part.halo(depth)) recv[t.dst] += t.rows;
    return *std::max_element(recv.begin(), recv.end());
  };
  EXPECT_EQ(part1->radius(), bw);
  const std::size_t r1 = max_recv(*part1, s * part1->radius());
  const std::size_t r2 = max_recv(*part2, s * part2->radius());
  // 1-D: 2 * 4 * 257 = 2056 clipped to n - n/P = 3840 -> 2056 rows.
  // 2-D: 16 x 16 tiles on a 1 x 16 grid, two 4 * 16 faces = 128.
  EXPECT_EQ(r2, 128u);
  EXPECT_GE(r1, 10 * r2);
  EXPECT_DOUBLE_EQ(double(r2),
                   halo_words_2d_model(A.nx, A.ny, A.nz, 1, 16, s));
}

// ---- solves on the 2-D block partition ----------------------------------

struct Problem2D {
  sparse::Csr A;
  std::vector<double> b;
  std::vector<double> x_true;
};

Problem2D make_problem_2d(const sparse::Csr& A, unsigned seed) {
  Problem2D prob;
  prob.A = A;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  prob.x_true.resize(prob.A.n);
  for (auto& v : prob.x_true) v = dist(rng);
  prob.b.resize(prob.A.n);
  sparse::spmv(prob.A, prob.x_true, prob.b);
  return prob;
}

TEST(Partition2D, CaCgConvergesOnRaggedTiles) {
  // 20 x 13 mesh: indivisible by every grid edge, so every multi-rank
  // run has uneven tiles (and P = 6 gets a rectangular grid).
  const auto prob = make_problem_2d(sparse::stencil_2d(20, 13, 1), 37);
  const double tol = 1e-9;
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    for (std::size_t P : {1, 4, 6}) {
      Machine m = make_machine(P);
      const auto part = make_partition(P, prob.A);
      std::vector<double> x(prob.A.n, 0.0);
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = tol;
      opt.mode = mode;
      const auto res = dist::ca_cg(m, *part, prob.A, prob.b, x, opt);
      EXPECT_TRUE(res.converged) << "P=" << P;
      double err = 0;
      for (std::size_t i = 0; i < prob.A.n; ++i) {
        err = std::max(err, std::abs(x[i] - prob.x_true[i]));
      }
      EXPECT_LT(err, 1e-6) << "P=" << P;
    }
  }
}

TEST(Partition2D, CgAndCaCgConvergeOnLayered3D) {
  const auto prob = make_problem_2d(sparse::poisson_3d(6, 5, 4), 41);
  const double tol = 1e-9;
  for (std::size_t P : {1, 6}) {
    Machine m = make_machine(P);
    const auto part = make_partition(P, prob.A);
    std::vector<double> x(prob.A.n, 0.0);
    const auto res = dist::cg(m, *part, prob.A, prob.b, x, 2000, tol);
    EXPECT_TRUE(res.converged) << "P=" << P;

    std::vector<double> x2(prob.A.n, 0.0);
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = tol;
    opt.mode = CaCgMode::kStreaming;
    const auto res2 = dist::ca_cg(m, *part, prob.A, prob.b, x2, opt);
    EXPECT_TRUE(res2.converged) << "P=" << P;
  }
}

TEST(Partition2D, TinyMeshWithEmptyTilesStillSolves) {
  // n = 9 < P = 16: most tiles are empty, and with s = 4 the ghost
  // extent exceeds every tile -- the regression geometry for the
  // clamped validity windows (small n, large P, ext >= own block).
  const auto prob = make_problem_2d(sparse::stencil_2d(3, 3, 1), 43);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    Machine m = make_machine(16);
    const auto part = make_partition(16, prob.A);
    std::vector<double> x(prob.A.n, 0.0);
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    const auto res = dist::ca_cg(m, *part, prob.A, prob.b, x, opt);
    EXPECT_TRUE(res.converged);
  }
  // Same geometry under the 1-D partition: ext = s*bw >= block size.
  const auto prob1 = make_problem(6, 1, 47);
  Machine m = make_machine(4);
  std::vector<double> x(prob1.A.n, 0.0);
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-10;
  const auto res = dist::ca_cg(m, prob1.A, prob1.b, x, opt);
  EXPECT_TRUE(res.converged);
}

/// At P = 1, dist::ca_cg on @p A's default partition, streaming in
/// chunks of @p block_rows rows, against krylov::ca_cg in both storage
/// modes and both bases: equal iteration counts and x bits.  The
/// streaming run must read more than one cut into a single chunk, so
/// the pin really chunks.
void expect_p1_chunked_bitwise(const sparse::Csr& A, std::size_t block_rows,
                               unsigned seed) {
  const auto prob = make_problem_2d(A, seed);
  const auto part = make_partition(1, prob.A);
  for (auto basis : {CaCgBasis::kMonomial, CaCgBasis::kNewton}) {
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = 1e-10;
      opt.mode = mode;
      opt.basis = basis;
      opt.block_rows = block_rows;
      std::vector<double> x_shared(prob.A.n, 0.0), x_dist(prob.A.n, 0.0);
      const auto ref = krylov::ca_cg(prob.A, prob.b, x_shared, opt);
      Machine m = make_machine(1);
      const auto got = dist::ca_cg(m, *part, prob.A, prob.b, x_dist, opt);
      EXPECT_EQ(got.iterations, ref.iterations)
          << A.n << " rows, mode=" << int(mode) << " basis=" << int(basis);
      EXPECT_EQ(std::memcmp(x_shared.data(), x_dist.data(),
                            prob.A.n * sizeof(double)),
                0)
          << A.n << " rows, mode=" << int(mode) << " basis=" << int(basis);
      if (mode == CaCgMode::kStreaming) {
        opt.block_rows = prob.A.n;
        Machine one = make_machine(1);
        std::vector<double> x_one(prob.A.n, 0.0);
        dist::ca_cg(one, *part, prob.A, prob.b, x_one, opt);
        EXPECT_GT(m.proc(0).l3_read.words, one.proc(0).l3_read.words)
            << A.n << " rows: the pin never chunked";
      }
    }
  }
}

TEST(Partition2D, P1BitwiseEqualSharedMemory) {
  // On one rank the 2-D partition's extent is the full mesh and every
  // basis value is computed by the identical row-wise arithmetic, so
  // the iterates match the shared-memory solver bit for bit in both
  // storage modes.  Streaming cuts the 11 mesh lines into chunks of 2
  // (block_rows 24 on 12-node lines); y-chunks of a 2-D box list their
  // rows in ascending order, so the Gram partials sum in the order of
  // the one whole-vector sum.
  const auto A = sparse::stencil_2d(12, 11, 1);
  EXPECT_EQ(make_partition(1, A)->ny(), 11u);  // really the 2-D partition
  expect_p1_chunked_bitwise(A, 24, 53);
}

TEST(PartitionKinds, P1ChunkedBitwiseEqualSharedMemory) {
  // The same pin on the 1-D rows of a band, the 2-D cross (diamond
  // halos) and the graph partition, each streaming in 6 or 7 chunks of
  // 24 rows.  Layered 3-D boxes are left out: their y-chunks span every
  // z-plane, so a chunk's targets are no ascending run of rows and its
  // Gram partial sums in another order -- streaming on a 3-D box that
  // splits into several chunks misses krylov::ca_cg's bits by an ulp
  // (ROADMAP item 14), while its stored mode agrees.
  const auto band = sparse::stencil_1d(130, 2);
  EXPECT_EQ(make_partition(1, band)->ny(), 1u);
  expect_p1_chunked_bitwise(band, 24, 57);
  const auto cross = sparse::stencil_2d_cross(12, 11, 1);
  EXPECT_TRUE(cross.cross);
  expect_p1_chunked_bitwise(cross, 24, 59);
  const auto graph = sparse::small_world_graph(150, 2, 8, 5);
  EXPECT_NE(make_partition(1, graph)->graph(), nullptr);
  expect_p1_chunked_bitwise(graph, 24, 61);
}

// ---- known answers on non-linear box extents ----------------------------

/// FNV-1a over 64-bit words: a compact fingerprint of iterate bits and
/// counters.
struct Fnv64 {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void add(std::span<const double> v) {
    for (const double d : v) {
      std::uint64_t u = 0;
      std::memcpy(&u, &d, sizeof u);
      add(u);
    }
  }
};

/// Digest of the iterate bits alone: pins the numerics apart from the
/// counters, so a change that moves only charges leaves it unchanged.
std::uint64_t x_digest(std::span<const double> x) {
  Fnv64 f;
  f.add(x);
  return f.h;
}

/// Digest of the iterate bits and every rank's l3_write / nw words.
std::uint64_t solve_digest(const Machine& m, std::span<const double> x) {
  Fnv64 f;
  f.add(x);
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    f.add(m.proc(p).l3_write.words);
    f.add(m.proc(p).nw.words);
  }
  return f.h;
}

CaCgOptions known_answer_opts(CaCgMode mode) {
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-9;
  opt.mode = mode;
  return opt;
}

/// Solve digest and x-only digest of one CA-CG solve on the 2-D tiles.
std::pair<std::uint64_t, std::uint64_t> ca_cg_digest(const sparse::Csr& A,
                                                     std::size_t P,
                                                     CaCgMode mode,
                                                     unsigned seed) {
  const auto prob = make_problem_2d(A, seed);
  const auto part = make_partition(P, prob.A);
  EXPECT_LT(part->owned(0).dx(), part->nx());  // tiles, not row slabs
  Machine m = make_machine(P);
  std::vector<double> x(prob.A.n, 0.0);
  dist::ca_cg(m, *part, prob.A, prob.b, x, known_answer_opts(mode));
  return {solve_digest(m, x), x_digest(x)};
}

TEST(Partition2D, KnownAnswersOnNonLinearExtents) {
  // 2-D tiles and layered 3-D tiles: no extent box walks consecutive
  // global rows, so every basis row gathers its neighbours from
  // scattered extent slots.  The other 2-D tests compare such runs only
  // with each other; these constants pin them against fixed bits (x and
  // per-rank counters), so any change to the basis arithmetic -- even a
  // consistent one -- shows here.  The values assume IEEE doubles with
  // no FMA contraction (the x86-64 baseline codegen).
  const sparse::Csr mesh2 = sparse::stencil_2d(20, 13, 1);
  const sparse::Csr mesh3 = sparse::poisson_3d(12, 12, 4);
  std::vector<std::uint64_t> got, got_x;
  const auto record = [&](std::pair<std::uint64_t, std::uint64_t> d) {
    got.push_back(d.first);
    got_x.push_back(d.second);
  };
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    for (std::size_t P : {4, 6}) {
      record(ca_cg_digest(mesh2, P, mode, 67));
    }
    record(ca_cg_digest(mesh3, 16, mode, 71));
  }
  {
    const std::size_t P = 16, nrhs = 3, n = mesh3.n;
    std::vector<double> B(n * nrhs), X(n * nrhs, 0.0);
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto prob = make_problem_2d(mesh3, 73 + unsigned(j));
      std::copy(prob.b.begin(), prob.b.end(), B.begin() + j * n);
    }
    const auto part = make_partition(P, mesh3);
    Machine m = make_machine(P);
    dist::ca_cg_batch(m, *part, mesh3, B, X, nrhs,
                      known_answer_opts(CaCgMode::kStored));
    record({solve_digest(m, X), x_digest(X)});
  }
  const std::vector<std::uint64_t> want = {
      0xae64475078fbb41full, 0xab2925ae4ff0dee4ull, 0x25dba993da2e963cull,
      0x4c0f5834141f4207ull, 0x95a9d731900cd468ull, 0xb6f15266710a5f5cull,
      0x02988e41a9d6cd93ull};
  // The same solves' x bits alone, recorded before the counters last
  // moved: a change to what the basis build reads or charges must
  // leave these as they are.
  const std::vector<std::uint64_t> want_x = {
      0xea5668668608ceafull, 0xa1bdde32b2081b7cull, 0x39600fab80fa9b7cull,
      0xea5668668608ceafull, 0xa1bdde32b2081b7cull, 0x39600fab80fa9b7cull,
      0xfc994a9e5aff20b3ull};
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got_x.size(), want_x.size());
#if defined(__x86_64__)
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << "case " << k << std::hex << " got 0x"
                               << got[k];
    EXPECT_EQ(got_x[k], want_x[k]) << "case " << k << std::hex
                                   << " x bits 0x" << got_x[k];
  }
#endif

  // Mesh A, then mesh B, then mesh A again on one threaded machine:
  // the third solve must repeat the first bit for bit, so the basis
  // build's per-worker scratch carries no state across solves or
  // matrices.
  const auto probA = make_problem_2d(mesh2, 79);
  const auto probB = make_problem_2d(mesh3, 83);
  const std::size_t P = 4;
  Machine m = make_machine(P, std::make_unique<ThreadedBackend>(4));
  const auto partA = make_partition(P, probA.A);
  const auto partB = make_partition(P, probB.A);
  const CaCgOptions opt = known_answer_opts(CaCgMode::kStreaming);
  std::vector<double> x1(probA.A.n, 0.0), x2(probB.A.n, 0.0),
      x3(probA.A.n, 0.0);
  const auto r1 = dist::ca_cg(m, *partA, probA.A, probA.b, x1, opt);
  const auto r2 = dist::ca_cg(m, *partB, probB.A, probB.b, x2, opt);
  const auto r3 = dist::ca_cg(m, *partA, probA.A, probA.b, x3, opt);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r1.iterations, r3.iterations);
  EXPECT_EQ(std::memcmp(x1.data(), x3.data(), probA.A.n * sizeof(double)),
            0);
}

// ---- P = 1 bitwise equality with the shared-memory solvers --------------

TEST(DistCg, BitwiseEqualSharedMemoryOnP1) {
  const auto prob = make_problem(97, 1, 11);
  std::vector<double> x_shared(prob.A.n, 0.0), x_dist(prob.A.n, 0.0);

  const auto ref = krylov::cg(prob.A, prob.b, x_shared, 500, 1e-10);
  Machine m = make_machine(1);
  const auto got = dist::cg(m, prob.A, prob.b, x_dist, 500, 1e-10);

  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_DOUBLE_EQ(got.residual_norm, ref.residual_norm);
  EXPECT_EQ(std::memcmp(x_shared.data(), x_dist.data(),
                        prob.A.n * sizeof(double)),
            0);
}

struct CaseP1 {
  CaCgMode mode;
  CaCgBasis basis;
  std::size_t s;
  const char* name;
};

class DistCaCgP1 : public ::testing::TestWithParam<CaseP1> {};

TEST_P(DistCaCgP1, IteratesBitwiseEqualSharedMemory) {
  const auto& tc = GetParam();
  const auto prob = make_problem(130, 2, 13);
  std::vector<double> x_shared(prob.A.n, 0.0), x_dist(prob.A.n, 0.0);

  CaCgOptions opt;
  opt.s = tc.s;
  opt.mode = tc.mode;
  opt.basis = tc.basis;
  opt.tol = 1e-10;
  opt.max_outer = 500;

  const auto ref = krylov::ca_cg(prob.A, prob.b, x_shared, opt);
  Machine m = make_machine(1);
  const auto got = dist::ca_cg(m, prob.A, prob.b, x_dist, opt);

  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(got.converged, ref.converged);
  EXPECT_DOUBLE_EQ(got.residual_norm, ref.residual_norm);
  EXPECT_EQ(std::memcmp(x_shared.data(), x_dist.data(),
                        prob.A.n * sizeof(double)),
            0);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndBases, DistCaCgP1,
    ::testing::Values(
        CaseP1{CaCgMode::kStored, CaCgBasis::kMonomial, 4, "stored_monomial"},
        CaseP1{CaCgMode::kStreaming, CaCgBasis::kMonomial, 4,
               "streaming_monomial"},
        CaseP1{CaCgMode::kStored, CaCgBasis::kNewton, 4, "stored_newton"},
        CaseP1{CaCgMode::kStreaming, CaCgBasis::kNewton, 4,
               "streaming_newton"},
        CaseP1{CaCgMode::kStreaming, CaCgBasis::kMonomial, 2,
               "streaming_s2"},
        CaseP1{CaCgMode::kStreaming, CaCgBasis::kMonomial, 8,
               "streaming_s8"}),
    [](const auto& info) { return info.param.name; });

// ---- residual parity across processor counts ----------------------------

TEST(DistCaCg, ResidualParityOnRaggedRankCounts) {
  // n = 130 is indivisible by 4, 6, and 7, so every multi-rank run
  // has uneven blocks; the iterates drift by allreduce rounding only
  // and every P must converge to the same solution.
  const auto prob = make_problem(130, 1, 17);
  const double tol = 1e-9;
  const double bnorm = sparse::norm2(prob.b);

  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    for (std::size_t P : {1, 4, 6, 7}) {
      Machine m = make_machine(P);
      std::vector<double> x(prob.A.n, 0.0);
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = tol;
      opt.mode = mode;
      const auto res = dist::ca_cg(m, prob.A, prob.b, x, opt);
      EXPECT_TRUE(res.converged) << "P=" << P;
      EXPECT_LE(res.residual_norm, 10.0 * tol * bnorm) << "P=" << P;
      double err = 0;
      for (std::size_t i = 0; i < prob.A.n; ++i) {
        err = std::max(err, std::abs(x[i] - prob.x_true[i]));
      }
      EXPECT_LT(err, 1e-6) << "P=" << P;
    }
  }
}

TEST(DistCg, ResidualParityOnRaggedRankCounts) {
  const auto prob = make_problem(130, 1, 19);
  const double tol = 1e-9;
  for (std::size_t P : {1, 4, 6, 7}) {
    Machine m = make_machine(P);
    std::vector<double> x(prob.A.n, 0.0);
    const auto res = dist::cg(m, prob.A, prob.b, x, 2000, tol);
    EXPECT_TRUE(res.converged) << "P=" << P;
    EXPECT_LE(res.residual_norm, tol * sparse::norm2(prob.b) * 10.0)
        << "P=" << P;
  }
}

// ---- backend determinism ------------------------------------------------

struct BackendCase {
  std::size_t P, n;
  CaCgMode mode;
  const char* name;
};

class KrylovBackends : public ::testing::TestWithParam<BackendCase> {};

TEST_P(KrylovBackends, CountersAndBitsIdenticalSerialVsThreaded) {
  const auto& tc = GetParam();
  const auto prob = make_problem(tc.n, 2, 23);
  CaCgOptions opt;
  opt.s = 4;
  opt.mode = tc.mode;
  opt.tol = 1e-9;

  Machine serial = make_machine(tc.P, std::make_unique<SerialSimBackend>());
  std::vector<double> x_serial(tc.n, 0.0);
  const auto rs = dist::ca_cg(serial, prob.A, prob.b, x_serial, opt);

  Machine threaded = make_machine(tc.P, std::make_unique<ThreadedBackend>(4));
  std::vector<double> x_threaded(tc.n, 0.0);
  const auto rt = dist::ca_cg(threaded, prob.A, prob.b, x_threaded, opt);

  EXPECT_EQ(rs.iterations, rt.iterations);
  EXPECT_EQ(std::memcmp(x_serial.data(), x_threaded.data(),
                        tc.n * sizeof(double)),
            0);
  for (std::size_t p = 0; p < tc.P; ++p) {
    const ProcTraffic& a = serial.proc(p);
    const ProcTraffic& c = threaded.proc(p);
    const auto eq = [&](const ChanCount& u, const ChanCount& v,
                        const char* ch) {
      EXPECT_EQ(u.words, v.words) << "proc " << p << " " << ch;
      EXPECT_EQ(u.messages, v.messages) << "proc " << p << " " << ch;
    };
    eq(a.nw, c.nw, "nw");
    eq(a.l3_read, c.l3_read, "l3_read");
    eq(a.l3_write, c.l3_write, "l3_write");
    eq(a.l2_read, c.l2_read, "l2_read");
    eq(a.l2_write, c.l2_write, "l2_write");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, KrylovBackends,
    ::testing::Values(
        BackendCase{1, 61, CaCgMode::kStreaming, "single_rank"},
        BackendCase{4, 130, CaCgMode::kStored, "P4_stored"},
        BackendCase{6, 130, CaCgMode::kStreaming, "P6_streaming"},
        BackendCase{7, 93, CaCgMode::kStreaming, "prime_P"}),
    [](const auto& info) { return info.param.name; });

TEST(Partition2D, CountersAndBitsIdenticalSerialVsThreaded) {
  // The 2-D partition's per-rank phases under both execution
  // backends: counters byte-identical and iterates bitwise-identical,
  // exactly as pinned for the 1-D partition above.
  const auto prob = make_problem_2d(sparse::stencil_2d(20, 13, 1), 61);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-9;
    opt.mode = mode;
    const std::size_t P = 6;
    const auto part = make_partition(P, prob.A);

    Machine serial = make_machine(P, std::make_unique<SerialSimBackend>());
    std::vector<double> x_serial(prob.A.n, 0.0);
    const auto rs = dist::ca_cg(serial, *part, prob.A, prob.b, x_serial, opt);

    Machine threaded = make_machine(P, std::make_unique<ThreadedBackend>(4));
    std::vector<double> x_threaded(prob.A.n, 0.0);
    const auto rt =
        dist::ca_cg(threaded, *part, prob.A, prob.b, x_threaded, opt);

    EXPECT_EQ(rs.iterations, rt.iterations);
    EXPECT_EQ(std::memcmp(x_serial.data(), x_threaded.data(),
                          prob.A.n * sizeof(double)),
              0);
    for (std::size_t p = 0; p < P; ++p) {
      const ProcTraffic& a = serial.proc(p);
      const ProcTraffic& c = threaded.proc(p);
      EXPECT_EQ(a.nw.words, c.nw.words) << "proc " << p;
      EXPECT_EQ(a.l3_read.words, c.l3_read.words) << "proc " << p;
      EXPECT_EQ(a.l3_write.words, c.l3_write.words) << "proc " << p;
      EXPECT_EQ(a.l2_read.words, c.l2_read.words) << "proc " << p;
      EXPECT_EQ(a.l2_write.words, c.l2_write.words) << "proc " << p;
    }
  }
}

// ---- the Theta(s) write reduction, pinned exactly -----------------------

std::uint64_t total_l3_writes(const Machine& m) {
  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    sum += m.proc(p).l3_write.words;
  }
  return sum;
}

TEST(DistCaCg, StreamingWritesAreStoredWritesOverThetaS) {
  // Both modes run bitwise-identical iterates (the basis values do
  // not depend on the storage schedule), so with no restarts the
  // totals obey exactly:
  //   stored    = 2n + outers * (2s+4) n     (setup + bases + recovery)
  //   streaming = 2n + outers * 3 n          (setup + x,p,r only)
  // i.e. (streaming - 2n) * (2s+4) == (stored - 2n) * 3 -- the
  // paper's Theta(s) reduction as an exact integer identity.
  const std::size_t n = 130, P = 4, s = 4;
  const auto prob = make_problem(n, 1, 29);
  CaCgOptions opt;
  opt.s = s;
  opt.tol = 1e-9;

  opt.mode = CaCgMode::kStored;
  Machine m_stored = make_machine(P);
  std::vector<double> x1(n, 0.0);
  const auto r_stored = dist::ca_cg(m_stored, prob.A, prob.b, x1, opt);

  opt.mode = CaCgMode::kStreaming;
  Machine m_stream = make_machine(P);
  std::vector<double> x2(n, 0.0);
  const auto r_stream = dist::ca_cg(m_stream, prob.A, prob.b, x2, opt);

  ASSERT_TRUE(r_stored.converged);
  ASSERT_EQ(r_stored.iterations, r_stream.iterations);
  ASSERT_EQ(r_stored.iterations % s, 0u) << "a restart would break the pin";
  const std::uint64_t outers = r_stored.iterations / s;

  const std::uint64_t stored = total_l3_writes(m_stored);
  const std::uint64_t stream = total_l3_writes(m_stream);
  EXPECT_EQ(stored, 2 * n + outers * (2 * s + 4) * n);
  EXPECT_EQ(stream, 2 * n + outers * 3 * n);
  EXPECT_EQ((stream - 2 * n) * (2 * s + 4), (stored - 2 * n) * 3);
}

TEST(DistCaCg, GhostWordsScaleWithSNotN) {
  // The per-outer network volume of the basis exchange is 2 zones of
  // s*bw rows of p plus 2 of (s-1)*bw rows of r per interior rank --
  // independent of n.
  const std::size_t s = 4, P = 4;
  const auto count_nw = [&](std::size_t n) {
    const auto prob = make_problem(n, 1, 31);
    Machine m = make_machine(P);
    std::vector<double> x(n, 0.0);
    CaCgOptions opt;
    opt.s = s;
    opt.tol = 1e-8;
    opt.max_outer = 1;  // exactly one outer iteration
    dist::ca_cg(m, prob.A, prob.b, x, opt);
    // Interior rank 1 receives and sends both zones.
    return m.proc(1).nw.words;
  };
  // Doubling n must not change the ghost volume; only the (fixed
  // size) allreduces and the s*bw zones appear on the wire.
  EXPECT_EQ(count_nw(256), count_nw(512));
}

// ---- known answers: every channel, every partition kind -----------------

/// Digest of the iterate bits and every rank's words and messages on
/// all five channels.
std::uint64_t channel_digest(const Machine& m, std::span<const double> x) {
  Fnv64 f;
  f.add(x);
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const ProcTraffic& t = m.proc(p);
    for (const ChanCount* c :
         {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
      f.add(c->words);
      f.add(c->messages);
    }
  }
  return f.h;
}

TEST(KrylovKnownAnswers, EveryChannelOnEveryPartitionKind) {
  // Classical CG and both CA-CG modes on the 1-D row, 2-D box and
  // graph partitions, then on explicit 1-D rows of a 2-D mesh and of a
  // graph, then the batched solvers on the graph partition with an
  // all-zero RHS that converges before its first step.  The other pins
  // compare solver paths with each other; these constants pin x bits
  // and all five per-rank channels (words and messages) against fixed
  // values, so a refactor that moves one charge between calls, or one
  // bit, shows here even when every path moves alike.  The small
  // streaming block makes every rank stream several chunks.  The values
  // assume IEEE doubles with no FMA contraction (the x86-64 baseline
  // codegen).
  struct Case {
    sparse::Csr A;
    std::size_t P;
    unsigned seed;
    PartitionKind kind = PartitionKind::kAuto;
  };
  const Case cases[] = {
      {sparse::stencil_1d(130, 2), 4, 101},
      {sparse::stencil_2d(20, 13, 1), 6, 103},
      {sparse::small_world_graph(150, 2, 8, 5), 6, 107},
      {sparse::stencil_2d(20, 13, 1), 6, 113, PartitionKind::kRows1D},
      {sparse::small_world_graph(150, 2, 8, 5), 6, 127,
       PartitionKind::kRows1D},
  };
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-9;
  opt.block_rows = 24;
  const double tol = 1e-9;
  const std::size_t max_iters = 500;

  std::vector<std::uint64_t> got, got_x;  // got_x: the CA-CG x bits
  for (const Case& c : cases) {
    const auto prob = make_problem_2d(c.A, c.seed);
    const auto part = make_partition(c.P, prob.A, c.kind);
    {
      Machine m = make_machine(c.P);
      std::vector<double> x(prob.A.n, 0.0);
      EXPECT_TRUE(
          dist::cg(m, *part, prob.A, prob.b, x, max_iters, tol).converged);
      got.push_back(channel_digest(m, x));
    }
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      opt.mode = mode;
      Machine m = make_machine(c.P);
      std::vector<double> x(prob.A.n, 0.0);
      EXPECT_TRUE(dist::ca_cg(m, *part, prob.A, prob.b, x, opt).converged);
      got.push_back(channel_digest(m, x));
      got_x.push_back(x_digest(x));
    }
  }
  // Partition kinds as named: rows, then tiles, then the graph.
  EXPECT_EQ(make_partition(4, cases[0].A)->ny(), 1u);
  EXPECT_EQ(make_partition(4, cases[0].A)->graph(), nullptr);
  EXPECT_EQ(make_partition(6, cases[1].A)->ny(), 13u);
  const auto gpart = make_partition(6, cases[2].A);
  ASSERT_NE(gpart->graph(), nullptr);
  // Explicit rows take the bandwidth as the radius: the s * 21-row
  // ghost of the 2-D mesh spans several ragged blocks, and the
  // s * 149-row ghost of the graph is the whole rest of the vector.
  for (const std::size_t k : {3u, 4u}) {
    const auto rows = make_partition(6, cases[k].A, cases[k].kind);
    EXPECT_EQ(rows->ny(), 1u);
    EXPECT_EQ(rows->graph(), nullptr);
    EXPECT_EQ(rows->radius(), cases[k].A.bandwidth());
  }
  EXPECT_EQ(cases[3].A.bandwidth(), 21u);
  EXPECT_EQ(cases[4].A.bandwidth(), 149u);

  {
    const sparse::Csr& A = cases[2].A;
    const std::size_t n = A.n, nrhs = 3;
    std::vector<double> B(n * nrhs, 0.0);  // RHS 1 stays all-zero
    for (const std::size_t j : {0u, 2u}) {
      const auto prob = make_problem_2d(A, 109 + unsigned(j));
      std::copy(prob.b.begin(), prob.b.end(), B.begin() + j * n);
    }
    const auto check = [&](const KrylovBatchResult& r) {
      ASSERT_EQ(r.rhs.size(), nrhs);
      for (const KrylovResult& k : r.rhs) EXPECT_TRUE(k.converged);
      EXPECT_EQ(r.rhs[1].iterations, 0u);
    };
    {
      Machine m = make_machine(6);
      std::vector<double> X(n * nrhs, 0.0);
      check(dist::cg_batch(m, *gpart, A, B, X, nrhs, max_iters, tol));
      got.push_back(channel_digest(m, X));
    }
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      opt.mode = mode;
      Machine m = make_machine(6);
      std::vector<double> X(n * nrhs, 0.0);
      check(dist::ca_cg_batch(m, *gpart, A, B, X, nrhs, opt));
      got.push_back(channel_digest(m, X));
      got_x.push_back(x_digest(X));
    }
  }

  const std::vector<std::uint64_t> want = {
      0x11febc8abc197bdcull, 0x1b4585573adca51bull, 0x0c536decd9b8ebaaull,
      0x21fbe0e6bb08ec60ull, 0x990c4a2daa69aecfull, 0x5f9a2e8ea9917c09ull,
      0x23d09b180096d8a1ull, 0x4a7c663c77aa9e1dull, 0x04e6404418202137ull,
      0xd29c9c489db087d2ull, 0x203992c092f68a5dull, 0x0c3041bdfb1a61ebull,
      0xe9c24b2ade9dce71ull, 0xf22bb5ae2fbbfa89ull, 0xb8f8859170cb2d02ull,
      0xd28e0a318207c959ull, 0x8ba21c672c3ae001ull, 0xf19713ba39705861ull};
  // The CA-CG solves' x bits alone (cases 1, 2, 4, 5, ..., 16, 17 of
  // the list above), recorded before the counters last moved: a change
  // to what the basis build reads or charges must leave these as they
  // are.
  const std::vector<std::uint64_t> want_x = {
      0x51997893e82f94d8ull, 0x51997893e82f94d8ull, 0x3366d587b47e9438ull,
      0x3366d587b47e9438ull, 0x865b07024cd219c1ull, 0x865b07024cd219c1ull,
      0xdc41265ba3659d11ull, 0xdc41265ba3659d11ull, 0x889efce324dcf089ull,
      0x889efce324dcf089ull, 0xf26a41555a7dab89ull, 0xf26a41555a7dab89ull};
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got_x.size(), want_x.size());
#if defined(__x86_64__)
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << "case " << k << std::hex << " got 0x"
                               << got[k];
  }
  for (std::size_t k = 0; k < got_x.size(); ++k) {
    EXPECT_EQ(got_x[k], want_x[k]) << "CA-CG solve " << k << std::hex
                                   << " x bits 0x" << got_x[k];
  }
#endif
}

TEST(KrylovKnownAnswers, MultiChunkStreamingOnLayered3D) {
  // Streaming CA-CG on layered 3-D tiles that each stream in several
  // chunks at the default cut: poisson_3d(24, 24, 8) on P = 4 gives
  // 12 x 12 x 8 tiles, which M2 = 16,384 words cuts into two 6-line
  // chunks (Partition2D.KnownAnswersOnNonLinearExtents streams one
  // chunk per tile).  x bits and all five per-rank channels are pinned
  // for both bases, so a change to how a chunk's basis, Gram partial
  // or recovery is laid out shows here even when every path moves
  // alike.  The values assume IEEE doubles with no FMA contraction
  // (the x86-64 baseline codegen).
  const auto prob = make_problem_2d(sparse::poisson_3d(24, 24, 8), 131);
  const std::size_t P = 4;
  const auto part = make_partition(P, prob.A);
  ASSERT_EQ(part->owned(0).dx(), 12u);
  ASSERT_EQ(part->owned(0).dy(), 12u);
  const auto solve = [&](Machine& m, CaCgBasis basis,
                         std::size_t block_rows, std::vector<double>& x) {
    CaCgOptions opt = known_answer_opts(CaCgMode::kStreaming);
    opt.basis = basis;
    opt.block_rows = block_rows;
    x.assign(prob.A.n, 0.0);
    EXPECT_TRUE(dist::ca_cg(m, *part, prob.A, prob.b, x, opt).converged);
  };
  std::vector<std::uint64_t> got, got_x;
  for (auto basis : {CaCgBasis::kMonomial, CaCgBasis::kNewton}) {
    Machine m(P, 192, 16384, 1 << 24, HwParams{});
    Machine m1(P, 192, 16384, 1 << 24, HwParams{});
    std::vector<double> x, x1;
    solve(m, basis, 0, x);
    got.push_back(channel_digest(m, x));
    got_x.push_back(x_digest(x));
    // The tiles did stream in several chunks: one chunk per tile
    // re-reads no shared hop rows, so it reads less.
    solve(m1, basis, 12 * 12 * 8, x1);
    EXPECT_LT(m1.proc(0).l3_read.words, m.proc(0).l3_read.words);
  }
  const std::vector<std::uint64_t> want = {0xc9e42e667620e089ull,
                                           0xf4d9997e31228e76ull};
  const std::vector<std::uint64_t> want_x = {0xa2f559447f910a71ull,
                                             0x9a83c0550ffef64eull};
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got_x.size(), want_x.size());
#if defined(__x86_64__)
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k], want[k]) << "basis " << k << std::hex << " got 0x"
                               << got[k];
    EXPECT_EQ(got_x[k], want_x[k]) << "basis " << k << std::hex
                                   << " x bits 0x" << got_x[k];
  }
#endif
}

TEST(KrylovKnownAnswers, EmptyMatrixOnExplicitRows) {
  // n = 0: explicit 1-D rows build an empty partition, and CG converges
  // before its first step.  Only the setup's two allreduces are charged:
  // at P = 4, 8 words in 8 messages and 4 combine writes per rank.
  sparse::Csr A;
  A.row_ptr = {0};
  const std::size_t P = 4;
  const auto part = make_partition(P, A, PartitionKind::kRows1D);
  EXPECT_EQ(part->graph(), nullptr);
  EXPECT_EQ(part->nodes(), 0u);
  Machine m = make_machine(P);
  std::vector<double> b, x;
  const auto r = dist::cg(m, *part, A, b, x, 10, 1e-9);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0u);
  for (std::size_t p = 0; p < P; ++p) {
    const ProcTraffic& t = m.proc(p);
    EXPECT_EQ(t.nw.words, 8u) << p;
    EXPECT_EQ(t.nw.messages, 8u) << p;
    EXPECT_EQ(t.l2_write.words, 4u) << p;
    EXPECT_EQ(t.l2_write.messages, 4u) << p;
    for (const ChanCount* c : {&t.l3_read, &t.l3_write, &t.l2_read}) {
      EXPECT_EQ(c->words, 0u) << p;
      EXPECT_EQ(c->messages, 0u) << p;
    }
  }
  // A declared but empty mesh still has no tiles to deal out.
  sparse::Csr flat = A;
  flat.nx = 3;
  flat.ny = 0;
  flat.nz = 1;
  EXPECT_THROW(make_partition(P, flat, PartitionKind::kBlocks2D),
               std::invalid_argument);
}

// ---- a solve's slow-memory words at P = 1, in closed form --------------

/// Streaming CA-CG reads over @p outers outer iterations at P = 1 on a
/// banded 1-D stencil of radius @p r with @p M2 words of L2, from the
/// chunk extents alone.  Chunks hold the larger of max(4sr, 256) and
/// M2/(2s+1) - 2sr target rows (the most whose 2s+1 basis columns over
/// the rows within s*r fit in L2); one pass over a chunk reads p's
/// heads within s*r rows of its targets and r's within (s-1)*r, and A's
/// values and column indices (2 nnz) over the rows of every basis level
/// -- p's level l within (s-l)*r rows, r's within (s-1-l)*r -- clipped
/// at the matrix edges.  Two passes per outer iteration, plus x and the
/// residual dot product (3n).
std::uint64_t streaming_reads_1d(const sparse::Csr& A, std::size_t r,
                                 std::size_t s, std::size_t M2,
                                 std::size_t outers) {
  const std::size_t n = A.n;
  const std::size_t fit = M2 / (2 * s + 1);
  const std::size_t rows = std::max<std::size_t>(
      {4 * s * r, 256, fit > 2 * s * r ? fit - 2 * s * r : 0});
  // Rows [a, b): those within k*r rows of [lo, hi), clipped.
  const auto within = [&](std::size_t lo, std::size_t hi, std::size_t k) {
    return std::pair<std::size_t, std::size_t>{
        lo >= k * r ? lo - k * r : 0, std::min(n, hi + k * r)};
  };
  std::uint64_t pass = 0;
  for (std::size_t lo = 0; lo < n; lo += rows) {
    const std::size_t hi = std::min(n, lo + rows);
    for (const std::size_t k : {s, s - 1}) {
      const auto [a, b] = within(lo, hi, k);
      pass += b - a;
    }
    for (std::size_t l = 1; l <= s; ++l) {
      const auto [a, b] = within(lo, hi, s - l);
      pass += 2 * (A.row_ptr[b] - A.row_ptr[a]);
    }
    for (std::size_t l = 1; l < s; ++l) {
      const auto [a, b] = within(lo, hi, s - 1 - l);
      pass += 2 * (A.row_ptr[b] - A.row_ptr[a]);
    }
  }
  return outers * (2 * pass + 3 * n);
}

TEST(KrylovClosedForms, P1SlowChannelsAreExact) {
  // A one-rank Machine counts the slow-memory words of a shared-memory
  // solve: its iterates are bitwise krylov::cg's and ca_cg's (pinned
  // above).  With n rows and nnz stored nonzeros:
  //  * the setup reads nnz + 5n and writes r and p (2n);
  //  * a CG step reads nnz + 11n and writes x, r, p and w (4n);
  //  * a stored CA-CG outer iteration reads 2(2s-1) nnz + (4s+7) n and
  //    writes (2s+4) n: the 2s+1 basis columns, then x, p and r;
  //  * a streaming outer iteration writes x, p and r only (3n); on a
  //    banded 1-D stencil its reads are streaming_reads_1d.  On the
  //    2-D and graph matrices they follow the hop-set chunk geometry
  //    MatrixPowersPlan.HopSetsMatchReference checks, so only the
  //    writes are asserted there.
  // CG steps and the setup read A as nnz words; the CA-CG basis reads
  // it as values plus column indices, 2 nnz per level.  tol = 0 runs
  // a fixed number of steps, and the iteration counts rule out a
  // restart, whose fallback CG steps these forms leave out.  The
  // table's values are known answers recorded from the counters.
  constexpr std::size_t s = 4, outers = 5, steps = 20;
  struct Case {
    sparse::Csr A;
    std::size_t radius;  // band radius of a 1-D stencil; 0 otherwise
    std::uint64_t cg_w, cg_r, stored_w, stored_r, stream_w, stream_r;
  };
  const Case cases[] = {
      {sparse::stencil_1d(384, 1), 1, 31488, 110550, 23808, 127730, 6528,
       177510},
      {sparse::stencil_1d(1000, 2), 2, 82000, 329874, 62000, 474574, 17000,
       751914},
      {sparse::stencil_2d(24, 24, 1), 0, 47232, 232500, 35712, 417020, 9792,
       0},
      {sparse::small_world_graph(300, 2, 6, 3), 0, 24600, 99252, 18600,
       143352, 5100, 0},
  };
  for (const Case& c : cases) {
    const sparse::Csr& A = c.A;
    const auto prob = make_problem_2d(A, 127);
    const std::uint64_t n = A.n, nnz = A.nnz();
    const std::uint64_t setup_r = nnz + 5 * n, setup_w = 2 * n;
    {
      Machine m = make_machine(1);
      std::vector<double> x(n, 0.0);
      const auto res = dist::cg(m, A, prob.b, x, steps, 0.0);
      ASSERT_EQ(res.iterations, steps) << n;
      const ProcTraffic& t = m.proc(0);
      EXPECT_EQ(t.l3_write.words, setup_w + steps * 4 * n) << n;
      EXPECT_EQ(t.l3_read.words, setup_r + steps * (nnz + 11 * n)) << n;
      EXPECT_EQ(t.l3_write.words, c.cg_w) << n;
      EXPECT_EQ(t.l3_read.words, c.cg_r) << n;
    }
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      const bool stored = mode == CaCgMode::kStored;
      CaCgOptions opt;
      opt.s = s;
      opt.tol = 0.0;
      opt.max_outer = outers;
      opt.mode = mode;
      Machine m = make_machine(1);
      std::vector<double> x(n, 0.0);
      const auto res = dist::ca_cg(m, A, prob.b, x, opt);
      ASSERT_EQ(res.iterations, outers * s) << n;
      const ProcTraffic& t = m.proc(0);
      const std::uint64_t w = stored ? 2 * s + 4 : 3;
      EXPECT_EQ(t.l3_write.words, setup_w + outers * w * n) << n;
      EXPECT_EQ(t.l3_write.words, stored ? c.stored_w : c.stream_w) << n;
      if (stored) {
        EXPECT_EQ(t.l3_read.words,
                  setup_r + outers * (2 * (2 * s - 1) * nnz + (4 * s + 7) * n))
            << n;
        EXPECT_EQ(t.l3_read.words, c.stored_r) << n;
      } else if (c.radius > 0) {
        EXPECT_EQ(t.l3_read.words,
                  setup_r + streaming_reads_1d(A, c.radius, s, m.M2(),
                                               outers))
            << n;
        EXPECT_EQ(t.l3_read.words, c.stream_r) << n;
      }
    }
  }
}

// ---- streaming chunk sizes --------------------------------------------

TEST(StreamingChunks, DefaultRuleNeverReadsMoreThanTheFloor) {
  // Streaming chunks default to the larger of the floor, max(4sr, 256)
  // target rows in whole mesh lines, and the most lines whose basis fits
  // in L2.  Against the same solve cut at the floor alone (an explicit
  // block_rows), every rank reads no more words; with M2 = 1024 words,
  // under 256 (2s+1) at every s, no chunk can grow and every rank reads
  // exactly as many.  Writes and network words never depend on the
  // chunks.  Graph chunks keep the floor, so they read the same.
  const sparse::Csr ops[] = {
      sparse::stencil_1d(8192, 2), sparse::stencil_2d(96, 96, 1),
      sparse::stencil_2d_cross(96, 96, 1), sparse::poisson_3d(24, 24, 8),
      sparse::small_world_graph(4096, 2, 8, 5)};
  std::size_t fell = 0;
  for (const sparse::Csr& A : ops) {
    const auto prob = make_problem_2d(A, 131);
    for (const std::size_t P : {1, 4, 16}) {
      const auto part = make_partition(P, A);
      for (const std::size_t s : {2, 4, 8}) {
        for (const std::size_t M2 : {1024, 16384}) {
          CaCgOptions opt;
          opt.s = s;
          opt.tol = 0.0;
          opt.max_outer = 1;
          opt.mode = CaCgMode::kStreaming;
          const auto solve = [&](std::size_t block_rows) {
            opt.block_rows = block_rows;
            Machine m(P, 192, M2, 1 << 24, HwParams{});
            std::vector<double> x(A.n, 0.0);
            const auto r = dist::ca_cg(m, *part, A, prob.b, x, opt);
            EXPECT_EQ(r.iterations, s * opt.max_outer) << "a restart";
            std::vector<ProcTraffic> t;
            for (std::size_t p = 0; p < P; ++p) t.push_back(m.proc(p));
            return t;
          };
          const auto def = solve(0);
          const auto floor =
              solve(std::max<std::size_t>(4 * s * part->radius(), 256));
          for (std::size_t p = 0; p < P; ++p) {
            const ProcTraffic& d = def[p];
            const ProcTraffic& f = floor[p];
            const std::string where =
                std::to_string(A.n) + " rows, P=" + std::to_string(P) +
                " s=" + std::to_string(s) + " M2=" + std::to_string(M2) +
                " rank " + std::to_string(p);
            EXPECT_LE(d.l3_read.words, f.l3_read.words) << where;
            if (M2 == 1024) {
              EXPECT_EQ(d.l3_read.words, f.l3_read.words) << where;
            }
            fell += d.l3_read.words < f.l3_read.words;
            EXPECT_EQ(d.l3_write.words, f.l3_write.words) << where;
            EXPECT_EQ(d.nw.words, f.nw.words) << where;
            EXPECT_EQ(d.nw.messages, f.nw.messages) << where;
          }
        }
      }
    }
  }
  EXPECT_GT(fell, 0u);
}

}  // namespace
}  // namespace wa::dist
