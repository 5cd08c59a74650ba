// The distributed Krylov solvers keep their setup (owned runs, halo
// lists, matrix-powers plan) and work vectors on the Machine between
// calls (dist/krylov.cpp): a call whose key -- partition id, A's
// sparsity pattern, s, mode, block_rows -- matches the last one reuses
// them, any other call rebuilds.  Either way each solve must be the
// same solve a fresh Machine runs: x bits, results and every rank's
// counters, on both backends and both transports.  Also pinned here: a
// solve refuses a partition whose halos do not serve its matrix, and
// partitions carry process-unique ids.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "krylov/cacg.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {
namespace {

using krylov::CaCgMode;
using krylov::CaCgOptions;

constexpr std::size_t kP = 4;

struct Config {
  bool threaded, shm;
  const char* name;
};

std::unique_ptr<Machine> make_machine(const Config& c) {
  std::unique_ptr<Backend> backend;
  if (c.threaded) {
    backend = std::make_unique<ThreadedBackend>(3);
  } else {
    backend = std::make_unique<SerialSimBackend>();
  }
  std::unique_ptr<Transport> transport;
  if (c.shm) {
    transport = std::make_unique<ShmTransport>();
  } else {
    transport = std::make_unique<SimTransport>();
  }
  return std::make_unique<Machine>(kP, 192, 4096, 1 << 24, HwParams{},
                                   std::move(backend), std::move(transport));
}

/// One call: classical cg_batch when s == 0, else ca_cg (nrhs == 1) or
/// ca_cg_batch.
struct Call {
  const sparse::Csr* A;
  const Partition* part;
  std::size_t nrhs;
  std::size_t s;
  CaCgMode mode = CaCgMode::kStored;
  std::size_t block_rows = 0;
};

struct Outcome {
  std::vector<double> X;
  krylov::BatchResult res;
  std::vector<ProcTraffic> procs;
};

/// Run @p c on @p m from zeroed counters, with A * (random x) right-hand
/// sides and a nonzero initial guess, so the solve reads X as well as
/// writing it.
Outcome run(Machine& m, const Call& c) {
  const sparse::Csr& A = *c.A;
  std::vector<double> B(A.n * c.nrhs), xt(A.n);
  for (std::size_t j = 0; j < c.nrhs; ++j) {
    std::mt19937_64 rng(71 + 131 * j);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    for (auto& v : xt) v = dist(rng);
    sparse::spmv(A, xt, std::span<double>(B).subspan(j * A.n, A.n));
  }
  Outcome o;
  o.X.resize(A.n * c.nrhs);
  for (std::size_t i = 0; i < o.X.size(); ++i) {
    o.X[i] = 0.01 * std::sin(0.1 * double(i));
  }
  m.reset();
  if (c.s == 0) {
    o.res = cg_batch(m, *c.part, A, B, o.X, c.nrhs, 400, 1e-10);
  } else {
    CaCgOptions opt;
    opt.s = c.s;
    opt.mode = c.mode;
    opt.block_rows = c.block_rows;
    opt.tol = 1e-10;
    opt.max_outer = 200;
    if (c.nrhs == 1) {
      o.res.rhs = {ca_cg(m, *c.part, A, B, o.X, opt)};
    } else {
      o.res = ca_cg_batch(m, *c.part, A, B, o.X, c.nrhs, opt);
    }
  }
  for (std::size_t p = 0; p < m.nprocs(); ++p) o.procs.push_back(m.proc(p));
  return o;
}

bool same_chan(const ChanCount& a, const ChanCount& b) {
  return a.words == b.words && a.messages == b.messages;
}

void expect_same(const Outcome& got, const Outcome& want,
                 const std::string& where) {
  ASSERT_EQ(got.X.size(), want.X.size()) << where;
  EXPECT_EQ(std::memcmp(got.X.data(), want.X.data(),
                        got.X.size() * sizeof(double)),
            0)
      << where << ": x bits";
  ASSERT_EQ(got.res.rhs.size(), want.res.rhs.size()) << where;
  for (std::size_t j = 0; j < got.res.rhs.size(); ++j) {
    const auto& a = got.res.rhs[j];
    const auto& b = want.res.rhs[j];
    EXPECT_EQ(a.iterations, b.iterations) << where << " rhs " << j;
    EXPECT_EQ(a.converged, b.converged) << where << " rhs " << j;
    EXPECT_EQ(std::memcmp(&a.residual_norm, &b.residual_norm,
                          sizeof(double)),
              0)
        << where << " rhs " << j;
  }
  for (std::size_t p = 0; p < got.procs.size(); ++p) {
    const ProcTraffic& a = got.procs[p];
    const ProcTraffic& b = want.procs[p];
    EXPECT_TRUE(same_chan(a.nw, b.nw)) << where << " rank " << p << " nw";
    EXPECT_TRUE(same_chan(a.l3_read, b.l3_read))
        << where << " rank " << p << " l3_read";
    EXPECT_TRUE(same_chan(a.l3_write, b.l3_write))
        << where << " rank " << p << " l3_write";
    EXPECT_TRUE(same_chan(a.l2_read, b.l2_read))
        << where << " rank " << p << " l2_read";
    EXPECT_TRUE(same_chan(a.l2_write, b.l2_write))
        << where << " rank " << p << " l2_write";
  }
}

class KrylovReuse : public ::testing::TestWithParam<Config> {};

TEST_P(KrylovReuse, EverySolveEqualsTheSameSolveOnAFreshMachine) {
  sparse::Csr graph = sparse::small_world_graph(600, 2, 12, 3);
  const auto graph_part = make_partition(kP, graph);
  ASSERT_NE(graph_part->graph(), nullptr);
  const sparse::Csr mesh = sparse::stencil_2d(20, 13, 1);
  const auto box = make_partition(kP, mesh);
  sparse::Csr band = sparse::stencil_1d(300, 2);
  const auto rows = make_partition(kP, band);
  // Same n and nnz as graph, other chords: refused by graph_part.
  const sparse::Csr other = sparse::small_world_graph(600, 2, 12, 999);
  ASSERT_EQ(other.nnz(), graph.nnz());
  ASSERT_NE(other.col_idx, graph.col_idx);

  const std::unique_ptr<Machine> kept = make_machine(GetParam());
  const auto step = [&](const Call& c, const std::string& what) {
    const Outcome got = run(*kept, c);
    const std::unique_ptr<Machine> fresh = make_machine(GetParam());
    expect_same(got, run(*fresh, c), what);
  };

  step({&graph, graph_part.get(), 3, 4}, "graph");
  const Machine::Kept* graph_state = kept->slot().get();
  ASSERT_NE(graph_state, nullptr);
  step({&graph, graph_part.get(), 3, 4}, "graph, repeated");
  EXPECT_EQ(kept->slot().get(), graph_state) << "a matching key rebuilt";
  step({&mesh, box.get(), 2, 4}, "2-D box");
  EXPECT_NE(kept->slot().get(), graph_state) << "another key was reused";
  step({&graph, graph_part.get(), 3, 4}, "graph after the box");

  step({&band, rows.get(), 1, 3, CaCgMode::kStreaming}, "1-D streaming");
  step({&band, rows.get(), 9, 3, CaCgMode::kStreaming},
       "nrhs rises past a row-kernel group");
  step({&band, rows.get(), 4, 3, CaCgMode::kStreaming}, "nrhs falls");
  step({&band, rows.get(), 2, 0}, "cg_batch between CA-CG solves");
  step({&band, rows.get(), 4, 3, CaCgMode::kStreaming}, "CA-CG after cg");
  step({&band, rows.get(), 4, 2, CaCgMode::kStreaming}, "s changes");
  step({&band, rows.get(), 5, 2, CaCgMode::kStored}, "mode changes");
  step({&band, rows.get(), 4, 2, CaCgMode::kStreaming, 24},
       "block_rows changes");

  for (double& v : band.values) v *= 1.5;
  step({&band, rows.get(), 4, 2, CaCgMode::kStreaming, 24},
       "values rescaled in place");
  {
    // A narrower band in the same Csr: the radius-2 rows still serve
    // it, but every plan and owned nnz count differs.
    const sparse::Csr narrow = sparse::stencil_1d(300, 1);
    band.row_ptr = narrow.row_ptr;
    band.col_idx = narrow.col_idx;
    band.values = narrow.values;
  }
  step({&band, rows.get(), 4, 2, CaCgMode::kStreaming, 24},
       "pattern edited in place");

  const Machine::Kept* band_state = kept->slot().get();
  EXPECT_THROW(run(*kept, {&other, graph_part.get(), 2, 4}),
               std::invalid_argument);
  EXPECT_EQ(kept->slot().get(), band_state)
      << "a refused call touched the slot";
  step({&band, rows.get(), 4, 2, CaCgMode::kStreaming, 24},
       "the kept setup after a refused call");

  // A new partition at a freed one's address is another key.
  std::optional<BlockPartition2D> at;
  at.emplace(ProcessGrid(2, 2), mesh.nx, mesh.ny, 1, 1);
  step({&mesh, &*at, 3, 2, CaCgMode::kStreaming}, "2 x 2 tiles");
  at.reset();
  at.emplace(ProcessGrid(1, 4), mesh.nx, mesh.ny, 1, 1);
  step({&mesh, &*at, 3, 2, CaCgMode::kStreaming},
       "1 x 4 tiles at the same address");
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndTransports, KrylovReuse,
    ::testing::Values(Config{false, false, "serial_sim"},
                      Config{false, true, "serial_shm"},
                      Config{true, false, "threaded3_sim"},
                      Config{true, true, "threaded3_shm"}),
    [](const auto& info) { return info.param.name; });

// ---- partitions that do not serve the matrix ----------------------------

TEST(KrylovSetup, RefusesAGraphPartitionOfAnotherPattern) {
  // Same n and nnz, other chords: the halo would ship one pattern's
  // rows while the basis reads the other's.
  const sparse::Csr A = sparse::small_world_graph(2048, 2, 64, 1);
  const sparse::Csr other = sparse::small_world_graph(2048, 2, 64, 999);
  ASSERT_EQ(A.n, other.n);
  ASSERT_EQ(A.nnz(), other.nnz());
  ASSERT_NE(A.col_idx, other.col_idx);
  const auto part = make_partition(kP, A);
  ASSERT_NE(part->graph(), nullptr);

  const std::unique_ptr<Machine> m = make_machine({false, false, "serial"});
  std::vector<double> b(A.n, 1.0), x(A.n, 0.0);
  CaCgOptions opt;
  opt.s = 4;
  opt.tol = 1e-9;
  EXPECT_THROW(ca_cg(*m, *part, other, b, x, opt), std::invalid_argument);
  EXPECT_THROW(cg(*m, *part, other, b, x, 50, 1e-9), std::invalid_argument);
  EXPECT_TRUE(ca_cg(*m, *part, A, b, x, opt).converged);
}

TEST(KrylovSetup, RefusesABoxPartitionItsMatrixReachesPast) {
  const std::unique_ptr<Machine> m = make_machine({false, false, "serial"});
  CaCgOptions opt;
  opt.s = 3;
  opt.tol = 1e-9;
  const auto refuses = [&](const Partition& part, const sparse::Csr& A) {
    std::vector<double> b(A.n, 1.0), x(A.n, 0.0);
    EXPECT_THROW(ca_cg(*m, part, A, b, x, opt), std::invalid_argument);
    EXPECT_THROW(cg(*m, part, A, b, x, 50, 1e-9), std::invalid_argument);
  };
  const sparse::Csr r1 = sparse::stencil_2d(20, 13, 1);
  const sparse::Csr r2 = sparse::stencil_2d(20, 13, 2);
  const sparse::Csr cross = sparse::stencil_2d_cross(20, 13, 1);
  // Per axis: a radius-2 stencil on radius-1 tiles.
  refuses(*make_partition(kP, r1), r2);
  // A diagonal coupling under a cross stencil's diamond halo.
  refuses(*make_partition(kP, cross), r1);
  // 1-D rows sized for bandwidth 1 under a bandwidth-2 band.
  refuses(*make_partition(kP, sparse::stencil_1d(200, 1)),
          sparse::stencil_1d(200, 2));

  // A wider halo than the matrix needs serves it.
  std::vector<double> b(r1.n, 1.0), x(r1.n, 0.0);
  EXPECT_TRUE(ca_cg(*m, *make_partition(kP, r2), r1, b, x, opt).converged);
}

TEST(PartitionId, CopiesShareItDistinctPartitionsDoNot) {
  const BlockPartition2D a(ProcessGrid(2, 2), 8, 8, 1, 1);
  const BlockPartition2D b(ProcessGrid(2, 2), 8, 8, 1, 1);
  const BlockPartition2D c = a;
  EXPECT_NE(a.id(), b.id());
  EXPECT_EQ(a.id(), c.id());
}

}  // namespace
}  // namespace wa::dist
