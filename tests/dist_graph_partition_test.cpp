// The graph partition of general CSR matrices (dist/partition.hpp):
// BFS-grown owned index sets that tile the rows, exact s-hop
// dependency closures and halo lists counted from the sparsity
// pattern, kAuto routing for geometry-free matrices, and the
// distributed CA-CG solvers running on owned-run iteration -- P = 1
// bitwise-equal to the shared-memory solvers, serial-vs-threaded
// identical, and strictly cheaper on the wire than the
// bandwidth-derived 1-D fallback, pinned exactly from the halo lists;
// and, on every partition kind, the hop sets a matrix-powers plan
// walks and the halos against the rows its basis reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "krylov/cacg.hpp"
#include "krylov/cg.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {
namespace {

using krylov::CaCgMode;
using krylov::CaCgOptions;

Machine make_machine(std::size_t P,
                     std::unique_ptr<Backend> backend = nullptr) {
  return Machine(P, 192, 4096, 1 << 24, HwParams{}, std::move(backend));
}

/// Deterministic right-hand side with a known smooth solution.
struct Problem {
  sparse::Csr A;
  std::vector<double> b;
  std::vector<double> x_true;
};

Problem make_graph_problem(sparse::Csr A, unsigned seed) {
  Problem prob;
  prob.A = std::move(A);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1, 1);
  prob.x_true.resize(prob.A.n);
  for (auto& v : prob.x_true) v = dist(rng);
  prob.b.resize(prob.A.n);
  sparse::spmv(prob.A, prob.x_true, prob.b);
  return prob;
}

/// Independent reference closure: set-based BFS over the CSR pattern,
/// sharing no code with GraphPartition::closure.
std::set<std::size_t> ref_closure(const sparse::Csr& A,
                                  const std::vector<std::size_t>& seed,
                                  std::size_t depth) {
  std::set<std::size_t> in(seed.begin(), seed.end());
  std::vector<std::size_t> frontier = seed;
  for (std::size_t d = 0; d < depth; ++d) {
    std::vector<std::size_t> next;
    for (const std::size_t i : frontier) {
      for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
        if (in.insert(A.col_idx[q]).second) next.push_back(A.col_idx[q]);
      }
    }
    frontier = std::move(next);
  }
  return in;
}

/// Hand-built block-diagonal matrix: two disconnected tridiagonal
/// chains of @p half rows each.
sparse::Csr two_chains(std::size_t half) {
  sparse::Csr a;
  a.n = 2 * half;
  a.row_ptr.push_back(0);
  for (std::size_t c = 0; c < 2; ++c) {
    const std::size_t base = c * half;
    for (std::size_t i = 0; i < half; ++i) {
      if (i > 0) {
        a.col_idx.push_back(base + i - 1);
        a.values.push_back(-1.0);
      }
      a.col_idx.push_back(base + i);
      a.values.push_back(3.0);
      if (i + 1 < half) {
        a.col_idx.push_back(base + i + 1);
        a.values.push_back(-1.0);
      }
      a.row_ptr.push_back(a.col_idx.size());
    }
  }
  return a;
}

/// Star graph: row 0 couples to every other row and nothing else
/// couples directly -- the densest possible hub row.
sparse::Csr star(std::size_t n) {
  sparse::Csr a;
  a.n = n;
  a.row_ptr.push_back(0);
  for (std::size_t j = 0; j < n; ++j) {
    a.col_idx.push_back(j);
    a.values.push_back(j == 0 ? double(n) : -1.0);
  }
  a.row_ptr.push_back(a.col_idx.size());
  for (std::size_t i = 1; i < n; ++i) {
    a.col_idx.push_back(0);
    a.values.push_back(-1.0);
    a.col_idx.push_back(i);
    a.values.push_back(2.0);
    a.row_ptr.push_back(a.col_idx.size());
  }
  return a;
}

// ---- partition invariants ------------------------------------------------

TEST(GraphPartition, OwnedSetsTileTheRowsBalanced) {
  const auto A = sparse::random_spd_graph(130, 6, 3);
  for (std::size_t P : {1, 4, 7, 16}) {
    const GraphPartition gp(ProcessGrid(P), A);
    std::vector<char> seen(A.n, 0);
    for (std::size_t p = 0; p < P; ++p) {
      const auto& own = gp.owned_rows(p);
      // Balanced exactly like the box partitions' split.
      EXPECT_EQ(own.size(), balanced_block(A.n, P, p).sz);
      EXPECT_TRUE(std::is_sorted(own.begin(), own.end()));
      std::size_t run_total = 0;
      for (const auto& [lo, hi] : gp.owned_runs(p)) {
        ASSERT_LT(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) {
          EXPECT_FALSE(seen[i]) << "row " << i << " owned twice";
          seen[i] = 1;
          EXPECT_EQ(gp.owner_of(i), p);
        }
        run_total += hi - lo;
      }
      EXPECT_EQ(run_total, gp.owned_count(p));
    }
    for (std::size_t i = 0; i < A.n; ++i) {
      EXPECT_TRUE(seen[i]) << "row " << i << " unowned";
    }
  }
}

TEST(GraphPartition, SingleRankOwnsOneFullRun) {
  const auto A = sparse::small_world_graph(64, 2, 5, 9);
  const GraphPartition gp(ProcessGrid(1), A);
  ASSERT_EQ(gp.owned_runs(0).size(), 1u);
  EXPECT_EQ(gp.owned_runs(0)[0].first, 0u);
  EXPECT_EQ(gp.owned_runs(0)[0].second, A.n);
  EXPECT_TRUE(gp.halo(4).empty());
  EXPECT_EQ(gp.recv_words(0, 4), 0u);
}

TEST(GraphPartition, OwnedBoxIsRefusedNotFaked) {
  const auto A = sparse::random_spd_graph(32, 4, 1);
  const GraphPartition gp(ProcessGrid(4), A);
  EXPECT_THROW(gp.owned(0), std::logic_error);
  EXPECT_EQ(gp.graph(), &gp);
  EXPECT_EQ(gp.radius(), 1u);  // one hop per matrix-power level
}

TEST(GraphPartition, DisconnectedComponentsNeverExchange) {
  // Two disconnected chains split over P = 2: the BFS visit order
  // concatenates the components, so each rank owns exactly one chain
  // and no s-hop closure crosses -- the halo is empty at every depth.
  const auto A = two_chains(8);
  const GraphPartition gp(ProcessGrid(2), A);
  for (std::size_t p = 0; p < 2; ++p) {
    for (const std::size_t i : gp.owned_rows(p)) {
      EXPECT_EQ(i / 8, p) << "chain " << p << " leaked row " << i;
    }
  }
  for (std::size_t depth : {1, 4, 16}) {
    EXPECT_TRUE(gp.halo(depth).empty()) << "depth " << depth;
    EXPECT_EQ(gp.max_recv_words(depth), 0u);
  }
  // The disconnected system still solves (each component is SPD).
  const auto prob = make_graph_problem(A, 67);
  Machine m = make_machine(2);
  const auto part = make_partition(2, prob.A);
  ASSERT_NE(part->graph(), nullptr);
  std::vector<double> x(prob.A.n, 0.0);
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-10;
  EXPECT_TRUE(dist::ca_cg(m, *part, prob.A, prob.b, x, opt).converged);
}

TEST(GraphPartition, MoreRanksThanRowsLeavesTrailingPartsIdle) {
  const auto A = sparse::random_spd_graph(9, 4, 3);
  const std::size_t P = 16;
  const GraphPartition gp(ProcessGrid(P), A);
  std::size_t total = 0;
  for (std::size_t p = 0; p < P; ++p) total += gp.owned_count(p);
  EXPECT_EQ(total, A.n);
  for (std::size_t p = A.n; p < P; ++p) {
    EXPECT_EQ(gp.owned_count(p), 0u);
    EXPECT_TRUE(gp.owned_runs(p).empty());
    EXPECT_EQ(gp.recv_words(p, 4), 0u);
  }
  // Empty parts appear in no shipment.
  for (const auto& t : gp.halo(4)) {
    EXPECT_LT(t.src, A.n);
    EXPECT_LT(t.dst, A.n);
    EXPECT_NE(t.src, t.dst);
  }
  // And the solver runs with most ranks idle.
  const auto prob = make_graph_problem(A, 71);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    Machine m = make_machine(P);
    const auto part = make_partition(P, prob.A);
    std::vector<double> x(prob.A.n, 0.0);
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    EXPECT_TRUE(dist::ca_cg(m, *part, prob.A, prob.b, x, opt).converged);
  }
}

// ---- s-hop closures and halos, validated independently -------------------

TEST(GraphPartition, HubRowClosuresPinnedExactly) {
  // Star graph on 64 rows, 8 ranks of 8: the part owning the hub
  // reaches everything in one hop; every other part reaches only the
  // hub in one hop and everything in two (through the hub).
  const std::size_t n = 64, P = 8;
  const auto A = star(n);
  const GraphPartition gp(ProcessGrid(P), A);
  const std::size_t hub_part = gp.owner_of(0);
  for (std::size_t p = 0; p < P; ++p) {
    const std::size_t d1 = gp.recv_words(p, 1);
    if (p == hub_part) {
      EXPECT_EQ(d1, n - gp.owned_count(p));
    } else {
      EXPECT_EQ(d1, 1u);  // the hub alone
    }
    EXPECT_EQ(gp.recv_words(p, 2), n - gp.owned_count(p));
  }
}

TEST(GraphPartition, ClosureAndHaloMatchReferenceBfs) {
  const auto A = sparse::small_world_graph(120, 2, 10, 13);
  const std::size_t P = 6;
  const GraphPartition gp(ProcessGrid(P), A);
  for (std::size_t depth : {1, 2, 3}) {
    // Per-pair shipment counts recomputed with the set-based BFS.
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> want;
    for (std::size_t dst = 0; dst < P; ++dst) {
      const auto cl = ref_closure(A, gp.owned_rows(dst), depth);
      const auto got_cl = gp.closure(gp.owned_rows(dst), depth);
      EXPECT_TRUE(std::equal(got_cl.begin(), got_cl.end(), cl.begin(),
                             cl.end()))
          << "closure mismatch dst=" << dst << " depth=" << depth;
      std::size_t recv = 0;
      for (const std::size_t i : cl) {
        if (gp.owner_of(i) != dst) {
          ++want[{gp.owner_of(i), dst}];
          ++recv;
        }
      }
      EXPECT_EQ(gp.recv_words(dst, depth), recv);
    }
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> got;
    for (const auto& t : gp.halo(depth)) {
      EXPECT_NE(t.src, t.dst);
      got[{t.src, t.dst}] += t.rows;
    }
    EXPECT_EQ(got, want) << "depth " << depth;
  }
}

// ---- make_partition routing ----------------------------------------------

TEST(GraphPartition, AutoRoutesGeometryFreeMatricesToGraph) {
  const auto Ag = sparse::random_spd_graph(64, 4, 5);
  ASSERT_FALSE(Ag.has_geometry());
  const auto part = make_partition(4, Ag);
  EXPECT_NE(part->graph(), nullptr);
  EXPECT_EQ(part->nx(), 64u);
  EXPECT_EQ(part->ny(), 1u);
  // The old geometry-less fallback stays reachable explicitly: a 1-D
  // split with the bandwidth-derived halo and no graph seam.
  const auto rows = make_partition(4, Ag, PartitionKind::kRows1D);
  EXPECT_EQ(rows->graph(), nullptr);
  EXPECT_EQ(rows->ny(), 1u);
  EXPECT_EQ(rows->radius(), Ag.bandwidth());
  // Mesh matrices keep their geometry partitions under kAuto but can
  // be graph-partitioned on request.
  const auto Am = sparse::stencil_2d(16, 8, 1);
  EXPECT_EQ(make_partition(4, Am)->graph(), nullptr);
  EXPECT_NE(make_partition(4, Am, PartitionKind::kGraph)->graph(), nullptr);
}

// ---- solver equivalence on the graph partition ---------------------------

TEST(GraphPartition, P1BitwiseEqualSharedMemory) {
  // One rank owns the single run [0, n): every level set is full, the
  // local CSR is the global CSR, and each basis row sums the same
  // addends in the same order -- iterates must match the
  // shared-memory solver bit for bit in both storage modes.
  const auto prob = make_graph_problem(sparse::random_spd_graph(150, 6, 5),
                                       73);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    std::vector<double> x_shared(prob.A.n, 0.0), x_dist(prob.A.n, 0.0);
    const auto ref = krylov::ca_cg(prob.A, prob.b, x_shared, opt);
    Machine m = make_machine(1);
    const auto part = make_partition(1, prob.A);
    ASSERT_NE(part->graph(), nullptr);
    const auto got = dist::ca_cg(m, *part, prob.A, prob.b, x_dist, opt);
    EXPECT_EQ(got.iterations, ref.iterations);
    EXPECT_DOUBLE_EQ(got.residual_norm, ref.residual_norm);
    EXPECT_EQ(std::memcmp(x_shared.data(), x_dist.data(),
                          prob.A.n * sizeof(double)),
              0);
  }
  // Classical CG through the same owned-run seam.
  std::vector<double> x_shared(prob.A.n, 0.0), x_dist(prob.A.n, 0.0);
  const auto ref = krylov::cg(prob.A, prob.b, x_shared, 500, 1e-10);
  Machine m = make_machine(1);
  const auto part = make_partition(1, prob.A);
  const auto got = dist::cg(m, *part, prob.A, prob.b, x_dist, 500, 1e-10);
  EXPECT_EQ(got.iterations, ref.iterations);
  EXPECT_EQ(std::memcmp(x_shared.data(), x_dist.data(),
                        prob.A.n * sizeof(double)),
            0);
}

TEST(GraphPartition, ConvergesOnRaggedRankCounts) {
  const auto prob = make_graph_problem(
      sparse::small_world_graph(130, 2, 8, 17), 79);
  const double bnorm = sparse::norm2(prob.b);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    for (std::size_t P : {1, 4, 7, 16}) {
      Machine m = make_machine(P);
      const auto part = make_partition(P, prob.A);
      std::vector<double> x(prob.A.n, 0.0);
      CaCgOptions opt;
      opt.s = 4;
      opt.tol = 1e-9;
      opt.mode = mode;
      const auto res = dist::ca_cg(m, *part, prob.A, prob.b, x, opt);
      EXPECT_TRUE(res.converged) << "P=" << P;
      EXPECT_LE(res.residual_norm, 10.0 * 1e-9 * bnorm) << "P=" << P;
      double err = 0;
      for (std::size_t i = 0; i < prob.A.n; ++i) {
        err = std::max(err, std::abs(x[i] - prob.x_true[i]));
      }
      EXPECT_LT(err, 1e-6) << "P=" << P;
    }
  }
}

TEST(GraphPartition, CountersAndBitsIdenticalSerialVsThreaded) {
  const auto prob = make_graph_problem(
      sparse::random_spd_graph(200, 6, 11), 83);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-9;
    opt.mode = mode;
    const std::size_t P = 16;
    const auto part = make_partition(P, prob.A);
    ASSERT_NE(part->graph(), nullptr);

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
      EXPECT_EQ(a.nw.messages, c.nw.messages) << "proc " << p;
      EXPECT_EQ(a.l3_read.words, c.l3_read.words) << "proc " << p;
      EXPECT_EQ(a.l3_write.words, c.l3_write.words) << "proc " << p;
      EXPECT_EQ(a.l2_read.words, c.l2_read.words) << "proc " << p;
      EXPECT_EQ(a.l2_write.words, c.l2_write.words) << "proc " << p;
    }
  }
}

TEST(GraphPartition, BatchOfOneBitwiseEqualSingleRhs) {
  // The batched graph path must collapse to the single-RHS path at
  // b = 1: same iterates, same convergence, same counters.
  const auto prob = make_graph_problem(
      sparse::random_spd_graph(150, 6, 5), 97);
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-9;
    opt.mode = mode;
    const std::size_t P = 4;
    const auto part = make_partition(P, prob.A);
    ASSERT_NE(part->graph(), nullptr);

    Machine m1 = make_machine(P);
    std::vector<double> x1(prob.A.n, 0.0);
    const auto r1 = dist::ca_cg(m1, *part, prob.A, prob.b, x1, opt);

    Machine mb = make_machine(P);
    std::vector<double> xb(prob.A.n, 0.0);
    const auto rb =
        dist::ca_cg_batch(mb, *part, prob.A, prob.b, xb, 1, opt);

    ASSERT_EQ(rb.rhs.size(), 1u);
    EXPECT_EQ(rb.rhs[0].iterations, r1.iterations);
    EXPECT_EQ(rb.rhs[0].converged, r1.converged);
    EXPECT_EQ(std::memcmp(x1.data(), xb.data(),
                          prob.A.n * sizeof(double)),
              0);
    for (std::size_t p = 0; p < P; ++p) {
      EXPECT_EQ(m1.proc(p).l3_write.words, mb.proc(p).l3_write.words)
          << "proc " << p;
      EXPECT_EQ(m1.proc(p).nw.words, mb.proc(p).nw.words) << "proc " << p;
    }
  }
}

TEST(GraphPartition, BatchIteratesMatch1DPartitionToTolerance) {
  // The same batched solve under the graph and explicit 1-D
  // partitions: the iterates differ only by allreduce partial-sum
  // rounding (the owned sets group the same addends differently), so
  // both must converge to the same solutions.
  const auto A = sparse::random_spd_graph(130, 4, 7);
  const std::size_t nrhs = 3, P = 6;
  std::vector<double> B(A.n * nrhs);
  for (std::size_t j = 0; j < nrhs; ++j) {
    std::mt19937_64 rng(101 + j);
    std::uniform_real_distribution<double> dist(-1, 1);
    for (std::size_t i = 0; i < A.n; ++i) B[j * A.n + i] = dist(rng);
  }
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    CaCgOptions opt;
    opt.s = 4;
    opt.tol = 1e-10;
    opt.mode = mode;
    const auto pg = make_partition(P, A);
    const auto p1 = make_partition(P, A, PartitionKind::kRows1D);
    Machine mg = make_machine(P), m1 = make_machine(P);
    std::vector<double> Xg(A.n * nrhs, 0.0), X1(A.n * nrhs, 0.0);
    const auto rg = dist::ca_cg_batch(mg, *pg, A, B, Xg, nrhs, opt);
    const auto r1 = dist::ca_cg_batch(m1, *p1, A, B, X1, nrhs, opt);
    for (std::size_t j = 0; j < nrhs; ++j) {
      EXPECT_TRUE(rg.rhs[j].converged) << "graph rhs " << j;
      EXPECT_TRUE(r1.rhs[j].converged) << "1d rhs " << j;
    }
    double err = 0;
    for (std::size_t i = 0; i < A.n * nrhs; ++i) {
      err = std::max(err, std::abs(Xg[i] - X1[i]));
    }
    EXPECT_LT(err, 1e-7);
  }
}

// ---- the network advantage over the 1-D fallback, pinned exactly ---------

TEST(GraphPartition, ShipsFewerNetworkWordsThan1DPinnedFromHaloLists) {
  // Fixed work (tol = 0, 2 outers) on a P = 16 bench graph under both
  // the graph partition and the explicit 1-D fallback.  Allreduce
  // charges are partition-independent (same group, same word counts),
  // and Machine::send charges both endpoints, so the total-nw gap
  // must equal exactly
  //   2 * (S1_1d - S1_g)  +  2 * outers * (Sb_1d - Sb_g)
  // where S_d sums the transfer rows of halo(d * radius), S1 is the
  // setup exchange's and Sb = S_s + S_(s-1) the basis exchange's (p at
  // depth s, r at depth s - 1) -- the counted s-hop model against the
  // wire, as an integer identity.
  const auto prob = make_graph_problem(
      sparse::small_world_graph(256, 2, 4, 19), 89);
  const std::size_t P = 16, s = 4, outers = 2;
  const auto part_g = make_partition(P, prob.A);
  ASSERT_NE(part_g->graph(), nullptr);
  const auto part_1 = make_partition(P, prob.A, PartitionKind::kRows1D);

  const auto halo_sum = [](const Partition& pt, std::size_t depth) {
    std::uint64_t sum = 0;
    for (const auto& t : pt.halo(depth)) sum += t.rows;
    return sum;
  };
  const auto basis_sum = [&](const Partition& pt) {
    return halo_sum(pt, s * pt.radius()) + halo_sum(pt, (s - 1) * pt.radius());
  };
  const std::uint64_t s1_g = halo_sum(*part_g, part_g->radius());
  const std::uint64_t sb_g = basis_sum(*part_g);
  const std::uint64_t s1_1 = halo_sum(*part_1, part_1->radius());
  const std::uint64_t sb_1 = basis_sum(*part_1);
  ASSERT_LT(sb_g, sb_1);

  const auto run = [&](const Partition& pt) {
    Machine m = make_machine(P);
    std::vector<double> x(prob.A.n, 0.0);
    CaCgOptions opt;
    opt.s = s;
    opt.tol = 0.0;  // fixed work: exactly `outers` basis exchanges
    opt.max_outer = outers;
    const auto r = dist::ca_cg(m, pt, prob.A, prob.b, x, opt);
    EXPECT_EQ(r.iterations, s * outers) << "a restart would break the pin";
    std::uint64_t nw = 0;
    for (std::size_t p = 0; p < P; ++p) nw += m.proc(p).nw.words;
    return nw;
  };
  const std::uint64_t nw_g = run(*part_g);
  const std::uint64_t nw_1 = run(*part_1);
  EXPECT_LT(nw_g, nw_1);
  EXPECT_EQ(nw_1 - nw_g, 2 * (s1_1 - s1_g) + 2 * outers * (sb_1 - sb_g));
}

// ---- matrix-powers read sets against the shipped halos --------------------

/// Global rows rank @p p owns under @p part, ascending.
std::vector<std::size_t> rows_owned(const Partition& part, std::size_t p) {
  if (const GraphPartition* gp = part.graph()) return gp->owned_rows(p);
  std::vector<std::size_t> rows;
  const NodeBox b = part.owned(p);
  for (std::size_t z = b.z0; z < b.z1; ++z) {
    for (std::size_t y = b.y0; y < b.y1; ++y) {
      for (std::size_t x = b.x0; x < b.x1; ++x) {
        rows.push_back(part.global_index(x, y, z));
      }
    }
  }
  return rows;
}

/// The matrices the matrix-powers plan tests sweep: a 1-D band, a
/// 9-point box stencil, a 5-point cross, layered 3-D tiles and a graph.
struct PlanMatrix {
  sparse::Csr A;
  bool band_1d;  // explicit rows ship exactly the read set
};

std::vector<PlanMatrix> plan_matrices() {
  return {{sparse::stencil_1d(130, 2), true},
          {sparse::stencil_2d(20, 13, 1), false},
          {sparse::stencil_2d_cross(20, 13, 1), false},
          {sparse::poisson_3d(12, 12, 4), false},
          {sparse::small_world_graph(150, 2, 8, 5), false}};
}

/// Hop distance between rows @p i and @p j of a mesh stencil, from
/// their coordinates alone: ceil(|di| / radius) on a 1-D band, the
/// Chebyshev distance for a radius-1 box stencil, the Manhattan
/// distance for a radius-1 cross.
std::size_t mesh_hops(const sparse::Csr& A, std::size_t i, std::size_t j) {
  const auto apart = [](std::size_t a, std::size_t b) {
    return a > b ? a - b : b - a;
  };
  if (A.ny * A.nz == 1) return (apart(i, j) + A.radius - 1) / A.radius;
  const std::size_t plane = A.nx * A.ny;
  const std::size_t dx = apart(i % A.nx, j % A.nx);
  const std::size_t dy = apart(i % plane / A.nx, j % plane / A.nx);
  const std::size_t dz = apart(i / plane, j / plane);
  return A.cross ? dx + dy + dz : std::max({dx, dy, dz});
}

TEST(MatrixPowersPlan, HopSetsMatchReference) {
  // hop_walk's rows and hop counts from every rank's owned rows equal a
  // node-by-node reference: the nearest owned row by coordinates on the
  // meshes, the first set-based BFS level that reaches the row on the
  // graph.  Depths 1, 2 and 4 are the plan's s = 1, 2, 4.
  std::size_t walks = 0;
  for (const PlanMatrix& pm : plan_matrices()) {
    const sparse::Csr& A = pm.A;
    ASSERT_TRUE(!A.has_geometry() || A.radius == 1 || A.ny * A.nz == 1);
    for (const PartitionKind kind :
         {PartitionKind::kAuto, PartitionKind::kRows1D}) {
      for (const std::size_t P : {4, 6, 16}) {
        const auto part = make_partition(P, A, kind);
        for (std::size_t p = 0; p < P; ++p) {
          const std::vector<std::size_t> seed = rows_owned(*part, p);
          if (seed.empty()) continue;
          // Reference hop count of every row (n + 1: beyond depth 4).
          std::vector<std::size_t> ref(A.n, A.n + 1);
          if (A.has_geometry()) {
            for (std::size_t i = 0; i < A.n; ++i) {
              for (const std::size_t j : seed) {
                ref[i] = std::min(ref[i], mesh_hops(A, i, j));
              }
            }
          } else {
            for (std::size_t d = 5; d-- > 0;) {
              for (const std::size_t i : ref_closure(A, seed, d)) ref[i] = d;
            }
          }
          for (const std::size_t depth : {1, 2, 4}) {
            ++walks;
            const HopSet hs = hop_walk(A.row_ptr, A.col_idx, seed, depth);
            std::vector<std::size_t> rows, hops;
            for (std::size_t i = 0; i < A.n; ++i) {
              if (ref[i] <= depth) {
                rows.push_back(i);
                hops.push_back(ref[i]);
              }
            }
            EXPECT_EQ(hs.rows, rows) << A.n << " rows, P=" << P << " rank "
                                     << p << " depth " << depth;
            EXPECT_EQ(hs.hops, hops) << A.n << " rows, P=" << P << " rank "
                                     << p << " depth " << depth;
          }
        }
      }
    }
  }
  EXPECT_GT(walks, 5u * 2 * 3 * 3);
}

TEST(MatrixPowersPlan, HalosCoverTheBasisReadSets) {
  // The basis [p, Ap, .., A^s p, r, Ar, .., A^(s-1) r] of a rank's
  // owned rows reads p within s hops and r within s - 1 hops.  Every
  // such row another rank owns must travel in the basis exchange: per
  // (src, dst) pair, at most the rows of that pair's transfers in
  // halo(s * radius) plus halo((s - 1) * radius).  The graph halos and
  // the radius-1 box and cross halos under kAuto ship exactly the read
  // set; explicit 1-D rows of a mesh or a graph ship more over the
  // sweep (row blocks spanning whole mesh lines can still match).  The
  // closures come from GraphPartition::closure on a one-rank
  // partition, which only walks A's pattern.
  using Pair = std::pair<std::size_t, std::size_t>;
  std::size_t configs = 0;
  for (const PlanMatrix& pm : plan_matrices()) {
    const sparse::Csr& A = pm.A;
    const GraphPartition walk(ProcessGrid(1), A);
    for (const PartitionKind kind :
         {PartitionKind::kAuto, PartitionKind::kRows1D}) {
      std::size_t sweep_read = 0, sweep_shipped = 0;
      bool exact = true;
      for (const std::size_t P : {4, 6, 16}) {
        const auto part = make_partition(P, A, kind);
        std::vector<std::vector<std::size_t>> own(P);
        std::vector<std::size_t> owner(A.n, P);
        for (std::size_t p = 0; p < P; ++p) {
          own[p] = rows_owned(*part, p);
          for (const std::size_t i : own[p]) owner[i] = p;
        }
        ASSERT_EQ(std::count(owner.begin(), owner.end(), P), 0);
        exact = kind == PartitionKind::kAuto || part->graph() != nullptr ||
                pm.band_1d;
        for (const std::size_t s : {1, 2, 4}) {
          ++configs;
          std::map<Pair, std::size_t> read, shipped;
          for (std::size_t dst = 0; dst < P; ++dst) {
            if (own[dst].empty()) continue;
            for (const std::size_t depth : {s, s - 1}) {
              for (const std::size_t i : walk.closure(own[dst], depth)) {
                if (owner[i] != dst) ++read[{owner[i], dst}];
              }
            }
          }
          for (const std::size_t depth : {s, s - 1}) {
            for (const auto& t : part->halo(depth * part->radius())) {
              shipped[{t.src, t.dst}] += t.rows;
            }
          }
          for (const auto& [pair, rows] : read) {
            EXPECT_LE(rows, shipped[pair])
                << A.n << " rows, P=" << P << " s=" << s << " pair "
                << pair.first << "->" << pair.second;
            sweep_read += rows;
          }
          for (const auto& [pair, rows] : shipped) sweep_shipped += rows;
          if (exact) {
            EXPECT_EQ(read, shipped) << A.n << " rows, P=" << P << " s=" << s;
          }
        }
      }
      if (!exact) {
        EXPECT_LT(sweep_read, sweep_shipped) << A.n << " rows";
      }
    }
  }
  EXPECT_EQ(configs, 5u * 2 * 3 * 3);
}

}  // namespace
}  // namespace wa::dist
