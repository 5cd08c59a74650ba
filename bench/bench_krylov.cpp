// Section 8: the CA-CG s-step sweep on the distributed machine.  The
// banded system is row-partitioned over WA_PROCS ranks; for each
// s we execute stored-basis and streaming CA-CG on the virtual
// machine and print the measured per-rank slow-memory writes per CG
// step (the paper's W12) next to the Section 8 closed forms:
// classical CG and the stored basis stay Theta(n) per step while the
// streaming matrix-powers variant drops to Theta(n/s).  Streaming pays
// in reads, since its chunks re-read the rows their hop sets share;
// machine-wide l3_read, streaming over stored, for 5 outer iterations
// at tol 0 with M2 = 16,384 words (README, "Distributed Krylov layer"):
//
//   operator, P                             s = 2   s = 4   s = 8
//   stencil_1d(8192, 2), 4                  1.47x   1.57x   1.64x
//   small_world_graph(16384, 2, 256, 1), 16 1.53x   1.79x   2.11x
//   stencil_2d(96, 96), 4                   1.64x   1.83x   3.87x
//   poisson_3d(48, 48, 8), 16               1.57x   2.32x   4.90x
//
// A second sweep runs CA-CG on 2-D/3-D stencils under both
// the 1-D row partition (bandwidth-derived halo: s*bw rows, bw ~ nx,
// so the ghost zone saturates at the whole rest of the vector) and
// the 2-D block partition (face + corner exchanges of s*radius nodes
// per side), printing the measured per-rank halo words next to the
// closed forms -- the bandwidth-halo blow-up and its fix.
// WA_BACKEND/WA_THREADS select the execution backend exactly as in
// bench_lu; a final section pins serial-vs-threaded counter identity
// and prints the wall-clock comparison.
// --json PATH dumps every counter for CI's baseline drift check.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dist/backend.hpp"
#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "krylov/cacg.hpp"
#include "sparse/csr.hpp"

namespace {

using namespace wa;
using namespace wa::dist;
using krylov::CaCgBasis;
using krylov::CaCgMode;
using krylov::CaCgOptions;

constexpr std::size_t kM1 = 192, kM2 = 4096, kM3 = std::size_t(1) << 26;

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv);

  const double sc = bench::env_scale();
  const std::size_t n = std::size_t(16384 * sc);
  const std::size_t P = bench::env_procs(4);
  const auto A = sparse::stencil_1d(n, 1);

  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> dist(-1, 1);
  std::vector<double> xs(n), b(n);
  for (auto& v : xs) v = dist(rng);
  sparse::spmv(A, xs, b);

  std::printf("Section 8: distributed Krylov s-step sweep, 3-point stencil "
              "n=%zu P=%zu, tol=1e-9\n\n", n, P);

  bench::Table t({"method", "s", "CG steps", "W12/step/rank", "model",
                  "reads/step/rank", "NW words", "residual"});

  const auto record = [&](const std::string& name, const std::string& slabel,
                          const std::string& key, const Machine& m,
                          const KrylovResult& r, double model) {
    const auto& cp = m.critical_path();
    const double steps = double(std::max<std::size_t>(1, r.iterations));
    t.row({name, slabel, std::to_string(r.iterations),
           bench::fmt_d(double(cp.l3_write.words) / steps, 1),
           bench::fmt_d(model, 1),
           bench::fmt_d(double(cp.l3_read.words) / steps, 1),
           bench::fmt_u(cp.nw.words), bench::fmt_d(r.residual_norm, 2)});
    json.add(key, "iterations", std::uint64_t(r.iterations));
    json.add(key, "l3_write_words", cp.l3_write.words);
    json.add(key, "l3_read_words", cp.l3_read.words);
    json.add(key, "nw_words", cp.nw.words);
    json.add(key, "nw_messages", cp.nw.messages);
    json.add(key, "l2_write_words", cp.l2_write.words);
    json.add(key, "wall_seconds", m.local_wall_seconds());
  };

  // A repeat rung: call() solves into X on Machine m, twice.  The
  // Machine keeps the first call's setup (halo lists, matrix-powers
  // plan) and work vectors, so the repeat skips rebuilding them; it
  // must charge exactly what the first call charged and return the
  // same bits.  The walls are reported ungated, the repeat's critical
  // path counters gated.
  const auto repeat_rung = [&json](const std::string& key,
                                   const std::string& what, Machine& m,
                                   std::vector<double>& X,
                                   const auto& call) {
    const auto solve = [&] {
      std::fill(X.begin(), X.end(), 0.0);
      m.reset();
      const auto t0 = std::chrono::steady_clock::now();
      call();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    const double first = solve();
    std::vector<ProcTraffic> first_procs;
    for (std::size_t p = 0; p < m.nprocs(); ++p) {
      first_procs.push_back(m.proc(p));
    }
    const std::vector<double> first_x = X;
    const double repeat = solve();
    const auto same = [](const ChanCount& a, const ChanCount& b) {
      return a.words == b.words && a.messages == b.messages;
    };
    for (std::size_t p = 0; p < m.nprocs(); ++p) {
      const ProcTraffic& a = first_procs[p];
      const ProcTraffic& c = m.proc(p);
      if (!same(a.nw, c.nw) || !same(a.l3_read, c.l3_read) ||
          !same(a.l3_write, c.l3_write) || !same(a.l2_read, c.l2_read) ||
          !same(a.l2_write, c.l2_write)) {
        bench::die("repeat solve: the reused setup moved a counter");
      }
    }
    if (std::memcmp(first_x.data(), X.data(), X.size() * sizeof(double)) !=
        0) {
      bench::die("repeat solve: the reused setup moved a bit of x");
    }
    std::printf("\nRepeat solve on one Machine (%s): first %.4f s, repeat "
                "%.4f s, counters identical\n",
                what.c_str(), first, repeat);
    const auto& cp = m.critical_path();
    json.add(key, "first_wall_seconds", first);
    json.add(key, "repeat_wall_seconds", repeat);
    json.add(key, "l3_write_words", cp.l3_write.words);
    json.add(key, "l3_read_words", cp.l3_read.words);
    json.add(key, "nw_words", cp.nw.words);
    json.add(key, "nw_messages", cp.nw.messages);
    json.add(key, "l2_write_words", cp.l2_write.words);
  };

  {
    Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
    std::vector<double> x(n, 0.0);
    const auto r = dist::cg(m, A, b, x, 4000, 1e-9);
    record("CG", "-", "cg", m, r, cg_model_writes_per_step(n, P));
  }

  for (std::size_t s : {1, 2, 4, 8, 16}) {
    for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
      Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
      std::vector<double> x(n, 0.0);
      CaCgOptions opt;
      opt.s = s;
      opt.mode = mode;
      opt.tol = 1e-9;
      opt.max_outer = 250;
      const auto r = dist::ca_cg(m, A, b, x, opt);
      const bool stored = mode == CaCgMode::kStored;
      record(stored ? "CA-CG (stored)" : "CA-CG (stream)",
             std::to_string(s),
             "cacg_s" + std::to_string(s) +
                 (stored ? "_stored" : "_streaming"),
             m, r, cacg_model_writes_per_step(n, P, s, mode));
    }
  }

  // The Newton basis keeps large s usable where the scaled monomial
  // basis degenerates (the paper's remark on the choice of rho).
  for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
    Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
    std::vector<double> x(n, 0.0);
    CaCgOptions opt;
    opt.s = 16;
    opt.mode = mode;
    opt.basis = CaCgBasis::kNewton;
    opt.tol = 1e-9;
    opt.max_outer = 250;
    const auto r = dist::ca_cg(m, A, b, x, opt);
    const bool stored = mode == CaCgMode::kStored;
    record(stored ? "Newton (stored)" : "Newton (stream)", "16",
           std::string("cacg_s16_newton") +
               (stored ? "_stored" : "_streaming"),
           m, r, cacg_model_writes_per_step(n, P, 16, mode));
  }
  t.print();

  std::printf(
      "\nReading: CG and stored-basis CA-CG write Theta(n/P) words per"
      "\nrank per step; the streaming variant's W12/step/rank tracks the"
      "\nmodel 3n/(sP) -- the paper's Theta(s) write reduction -- while"
      "\nghost traffic stays at s*bw words per neighbour, independent"
      "\nof n.\n");

  // ---- 1-D vs 2-D partition sweep on 2-D/3-D stencils -------------------
  // The bandwidth-derived 1-D halo (s * bw rows, bw = b*nx + b for a
  // 2-D stencil, nx*ny for the 3-D Poisson matrix) against the 2-D
  // block partition's face+corner exchange of s * radius nodes per
  // side.  Halo columns count the words the busiest rank receives per
  // outer iteration (p at depth s * radius, r at (s - 1) * radius),
  // next to the closed-form models.
  {
    const std::size_t P2 = 16, s2 = 4;
    std::printf("\nPartition sweep: bandwidth-derived 1-D halos vs 2-D "
                "block faces (P=%zu, s=%zu)\n", P2, s2);
    bench::Table pt({"matrix", "partition", "mode", "CG steps",
                     "W12/step/rank", "halo/outer", "halo model",
                     "NW words"});
    struct MeshCase {
      const char* name;
      const char* key;
      sparse::Csr A;
    };
    const MeshCase cases[] = {
        {"2d 64x64", "s2d64", sparse::stencil_2d(64, 64, 1)},
        {"2d 256x16", "s2d256x16", sparse::stencil_2d(256, 16, 1)},
        {"3d 32x32x4", "p3d32", sparse::poisson_3d(32, 32, 4)},
    };
    std::vector<std::string> ratios;
    for (const MeshCase& mc : cases) {
      const auto& A2 = mc.A;
      std::vector<double> xs2(A2.n), b2(A2.n);
      for (auto& v : xs2) v = dist(rng);
      sparse::spmv(A2, xs2, b2);

      const auto max_recv = [&](const Partition& part) {
        std::vector<std::size_t> recv(P2, 0);
        for (const std::size_t lev : {s2, s2 - 1}) {  // p, then r
          for (const auto& tr : part.halo(lev * part.radius())) {
            recv[tr.dst] += tr.rows;
          }
        }
        std::size_t mx = 0;
        for (std::size_t v : recv) mx = std::max(mx, v);
        return mx;
      };
      double halo_rows[2] = {0, 0};
      for (auto kind : {PartitionKind::kRows1D, PartitionKind::kBlocks2D}) {
        const bool blocks = kind == PartitionKind::kBlocks2D;
        const auto part = make_partition(P2, A2, kind);
        // Cross-pattern stencils ship the trimmed diamond halo (the
        // s-hop Manhattan ball), so their closed form differs from
        // the dense-block box model.
        const auto model = [&](std::size_t lev) {
          const std::size_t e = lev * part->radius();
          if (!blocks) return halo_words_1d_model(A2.n, P2, e);
          const std::size_t pr = part->grid().rows(), pc = part->grid().cols();
          return A2.cross
                     ? halo_words_2d_diamond_model(A2.nx, A2.ny, A2.nz, pr,
                                                   pc, e)
                     : halo_words_2d_model(A2.nx, A2.ny, A2.nz, pr, pc, e);
        };
        const double model_halo = model(s2) + model(s2 - 1);
        halo_rows[blocks ? 1 : 0] = double(max_recv(*part));
        for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
          Machine m2(P2, kM1, kM2, kM3, HwParams{}, bench::env_backend());
          std::vector<double> x2(A2.n, 0.0);
          CaCgOptions opt;
          opt.s = s2;
          opt.mode = mode;
          opt.tol = 1e-9;
          opt.max_outer = 250;
          const auto r2 = dist::ca_cg(m2, *part, A2, b2, x2, opt);
          const auto& cp = m2.critical_path();
          const double steps =
              double(std::max<std::size_t>(1, r2.iterations));
          const bool stored = mode == CaCgMode::kStored;
          pt.row({mc.name, blocks ? "2-D blocks" : "1-D rows",
                  stored ? "stored" : "stream",
                  std::to_string(r2.iterations),
                  bench::fmt_d(double(cp.l3_write.words) / steps, 1),
                  bench::fmt_d(halo_rows[blocks ? 1 : 0], 0),
                  bench::fmt_d(model_halo, 0), bench::fmt_u(cp.nw.words)});
          const std::string key = std::string(blocks ? "p2d_" : "p1d_") +
                                  mc.key +
                                  (stored ? "_stored" : "_streaming");
          json.add(key, "iterations", std::uint64_t(r2.iterations));
          json.add(key, "l3_write_words", cp.l3_write.words);
          json.add(key, "l3_read_words", cp.l3_read.words);
          json.add(key, "nw_words", cp.nw.words);
          json.add(key, "nw_messages", cp.nw.messages);
        }
      }
      ratios.push_back(std::string("  ") + mc.name + ": 1-D partition ships " +
                       bench::fmt_d(halo_rows[1] > 0
                                        ? halo_rows[0] / halo_rows[1]
                                        : 0.0, 1) +
                       "x the 2-D ghost words per outer iteration");
    }
    pt.print();
    for (const std::string& line : ratios) std::printf("%s\n", line.c_str());
    std::printf(
        "\nReading: W12/step/rank is partition-independent (every rank owns"
        "\nn/P nodes), but the 1-D partition's bandwidth halo saturates at"
        "\nthe whole rest of the vector on these matrices while the 2-D"
        "\nfaces stay Theta(s*sqrt(n/P)) -- the write-avoiding story holds"
        "\non 2-D/3-D stencils only with the 2-D block partition.\n");
  }

  // ---- graph partition sweep on geometry-free matrices ------------------
  // General CSR with no mesh: the bandwidth-derived 1-D halo has no
  // geometry to exploit (on the wraparound ring the bandwidth is
  // n - 1, so the 1-D ghost zone is the whole rest of the vector)
  // against the GraphPartition's exact s-hop closure counted from the
  // sparsity pattern.  "halo model" for the graph rows is the counted
  // model: the largest recv_words(p, s) + recv_words(p, s - 1) over the
  // ranks (p's s-hop and r's (s-1)-hop ghosts).
  {
    const std::size_t P2 = 16, s2 = 4;
    const std::size_t ng = std::size_t(4096 * sc);
    std::printf("\nGraph partition sweep: 1-D bandwidth halos vs counted "
                "s-hop closures (P=%zu, s=%zu)\n", P2, s2);
    bench::Table gt({"matrix", "partition", "mode", "CG steps",
                     "W12/step/rank", "halo/outer", "halo model",
                     "NW words"});
    struct GraphCase {
      const char* name;
      const char* key;
      sparse::Csr A;
    };
    const GraphCase cases[] = {
        {"random d=8", "grnd", sparse::random_spd_graph(ng, 8, 7)},
        {"small-world", "gsw",
         sparse::small_world_graph(ng, 2, ng / 64, 7)},
    };
    std::vector<std::string> ratios;
    for (const GraphCase& gc : cases) {
      const auto& Ag = gc.A;
      std::mt19937_64 rg(17);
      std::uniform_real_distribution<double> dg(-1, 1);
      std::vector<double> xg(Ag.n), bg(Ag.n);
      for (auto& v : xg) v = dg(rg);
      sparse::spmv(Ag, xg, bg);

      const auto max_recv = [&](const Partition& part) {
        std::vector<std::size_t> recv(P2, 0);
        for (const std::size_t lev : {s2, s2 - 1}) {  // p, then r
          for (const auto& tr : part.halo(lev * part.radius())) {
            recv[tr.dst] += tr.rows;
          }
        }
        std::size_t mx = 0;
        for (std::size_t v : recv) mx = std::max(mx, v);
        return mx;
      };
      double halo_rows[2] = {0, 0};
      for (auto kind : {PartitionKind::kRows1D, PartitionKind::kAuto}) {
        const auto part = make_partition(P2, Ag, kind);
        const GraphPartition* gp = part->graph();
        const bool graph = gp != nullptr;
        double model_halo = 0;
        if (graph) {
          for (std::size_t p = 0; p < P2; ++p) {
            model_halo = std::max(
                model_halo,
                double(gp->recv_words(p, s2) + gp->recv_words(p, s2 - 1)));
          }
        } else {
          model_halo =
              halo_words_1d_model(Ag.n, P2, s2 * part->radius()) +
              halo_words_1d_model(Ag.n, P2, (s2 - 1) * part->radius());
        }
        halo_rows[graph ? 1 : 0] = double(max_recv(*part));
        for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
          Machine m2(P2, kM1, kM2, kM3, HwParams{}, bench::env_backend());
          std::vector<double> x2(Ag.n, 0.0);
          CaCgOptions opt;
          opt.s = s2;
          opt.mode = mode;
          opt.tol = 1e-9;
          opt.max_outer = 250;
          const auto r2 = dist::ca_cg(m2, *part, Ag, bg, x2, opt);
          const auto& cp = m2.critical_path();
          const double steps =
              double(std::max<std::size_t>(1, r2.iterations));
          const bool stored = mode == CaCgMode::kStored;
          gt.row({gc.name, graph ? "graph" : "1-D rows",
                  stored ? "stored" : "stream",
                  std::to_string(r2.iterations),
                  bench::fmt_d(double(cp.l3_write.words) / steps, 1),
                  bench::fmt_d(halo_rows[graph ? 1 : 0], 0),
                  bench::fmt_d(model_halo, 0), bench::fmt_u(cp.nw.words)});
          const std::string key =
              std::string(graph ? "ggraph_" : "g1d_") + gc.key +
              (stored ? "_stored" : "_streaming");
          json.add(key, "iterations", std::uint64_t(r2.iterations));
          json.add(key, "l3_write_words", cp.l3_write.words);
          json.add(key, "l3_read_words", cp.l3_read.words);
          json.add(key, "nw_words", cp.nw.words);
          json.add(key, "nw_messages", cp.nw.messages);
        }
      }
      ratios.push_back(std::string("  ") + gc.name +
                       ": 1-D partition ships " +
                       bench::fmt_d(halo_rows[1] > 0
                                        ? halo_rows[0] / halo_rows[1]
                                        : 0.0, 1) +
                       "x the graph-partition ghost words per outer "
                       "iteration");
    }
    gt.print();
    for (const std::string& line : ratios) std::printf("%s\n", line.c_str());
    std::printf(
        "\nReading: without mesh geometry the 1-D bandwidth halo is blind"
        "\n-- on the wraparound ring it ships the whole rest of the vector"
        "\n-- while the graph partition ships only the counted s-hop"
        "\nclosure of each part, and the measured halo column equals the"
        "\ncounted model exactly (it is the same BFS).\n");
  }

  // ---- batched multi-RHS amortization sweep -----------------------------
  // b solves against the same operator share one basis build, one
  // ghost-exchange event, and one allreduce event per stage.  A fixed
  // outer count (tol = 0) makes the per-solve columns line up with
  // the closed forms: W12 and halo words per solve are FLAT in b
  // (each RHS writes and ships its own panels) while the A-word
  // stream and the message count amortize as 1/b.  The halo and
  // message columns must equal their closed forms exactly.
  {
    const std::size_t nb = std::size_t(4096 * sc);
    const std::size_t sB = 4, outers = 6;
    const auto Ab = sparse::stencil_1d(nb, 1);
    const auto partb = make_partition(P, Ab);
    const std::size_t rank = P > 2 ? 1 : 0;  // an interior rank
    const double rounds = double(Machine::bcast_rounds(P));
    const double mm = 2.0 * double(sB) + 1.0;
    const double gram = mm * (mm + 1.0) / 2.0;
    const double ghost1 = halo_words_1d_model(nb, P, 1);
    const std::size_t transfers1 = partb->halo(1).size();
    const std::size_t transfers_s = partb->halo(sB).size();
    // Rank-level allreduce words per solve (delta + bb at setup, Gram
    // + residual check per outer) and the one-vector setup exchange
    // are flat in b; subtracting them isolates the per-outer halo.
    const double allred_outer = 2.0 * rounds * (gram + 1.0);
    const double allred = 2.0 * rounds * 2.0 + double(outers) * allred_outer;
    const double setup_halo = 2.0 * ghost1;
    const double halo_model =
        cacg_model_network_words_per_outer(P, sB,
                                           halo_words_1d_model(nb, P, sB),
                                           halo_words_1d_model(nb, P, sB - 1)) -
        allred_outer;
    const double msgs_model =
        2.0 * double(transfers1) + 2.0 * (2.0 * double(P) * rounds) +
        double(outers) * cacg_model_network_messages_per_outer(P, transfers_s);

    std::printf("\nBatched multi-RHS CA-CG s=%zu (n=%zu, P=%zu, %zu outers, "
                "per-solve columns):\n", sB, nb, P, outers);
    bench::Table bt({"b", "mode", "W12/solve/step", "model",
                     "halo/solve/outer", "model", "msgs/solve", "model",
                     "A-words/solve/outer", "model"});
    double reads1[2] = {0, 0};  // rank-level l3 reads of the b=1 run
    for (const std::size_t bsz : {1, 2, 4, 8, 16}) {
      for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
        Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
        std::vector<double> B(nb * bsz), X(nb * bsz, 0.0);
        for (std::size_t j = 0; j < bsz; ++j) {
          std::mt19937_64 rj(41 + 977 * j);
          std::uniform_real_distribution<double> dj(-1, 1);
          for (std::size_t i = 0; i < nb; ++i) B[j * nb + i] = dj(rj);
        }
        CaCgOptions opt;
        opt.s = sB;
        opt.mode = mode;
        opt.tol = 0.0;  // fixed work: exactly `outers` basis builds
        opt.max_outer = outers;
        const auto res =
            dist::ca_cg_batch(m, *partb, Ab, B, X, bsz, opt);
        for (const auto& r : res.rhs) {
          if (r.iterations != sB * outers) {
            bench::die("batch sweep: restart perturbed the fixed-work run");
          }
        }
        const bool stored = mode == CaCgMode::kStored;
        const auto& pt2 = m.proc(rank);
        const double bd = double(bsz);
        const double steps = double(sB * outers);
        std::uint64_t total_msgs = 0;
        for (std::size_t p = 0; p < P; ++p) {
          total_msgs += m.proc(p).nw.messages;
        }
        const double w12_ps = double(pt2.l3_write.words) / bd / steps;
        const double w12_model = cacg_model_writes_per_step(nb, P, sB, mode);
        const double halo_ps =
            (double(pt2.nw.words) / bd - allred - setup_halo) /
            double(outers);
        const double msgs_ps = double(total_msgs) / bd;
        // The halo closed form is an interior rank's; P = 2 has none.
        if ((P != 2 && halo_ps != halo_model) ||
            double(total_msgs) != msgs_model) {
          bench::die("batch sweep: halo words or messages differ from "
                     "their closed forms");
        }
        // The shared A-stream is recoverable from two runs: reads are
        // affine in b (shared A-words + b per-RHS vector words), so
        // A = (b R(1) - R(b)) / (b - 1).
        if (bsz == 1) reads1[stored ? 0 : 1] = double(pt2.l3_read.words);
        const double a_shared =
            bsz == 1 ? 0.0
                     : (bd * reads1[stored ? 0 : 1] -
                        double(pt2.l3_read.words)) / (bd - 1.0);
        const double aw_ps = a_shared / bd / double(outers);
        const double aw_model =
            cacg_batch_model_awords_per_solve(nb, P, sB, 1, mode, bsz);

        bt.row({std::to_string(bsz), stored ? "stored" : "stream",
                bench::fmt_d(w12_ps, 1), bench::fmt_d(w12_model, 1),
                bench::fmt_d(halo_ps, 0), bench::fmt_d(halo_model, 0),
                bench::fmt_d(msgs_ps, 0),
                bench::fmt_d(msgs_model / bd, 0),
                bsz == 1 ? "-" : bench::fmt_d(aw_ps, 0),
                bench::fmt_d(aw_model, 0)});

        const std::string key = "batch_b" + std::to_string(bsz) +
                                (stored ? "_stored" : "_streaming");
        json.add(key, "iterations", std::uint64_t(res.rhs[0].iterations));
        json.add(key, "l3_write_words", pt2.l3_write.words);
        json.add(key, "l3_read_words", pt2.l3_read.words);
        json.add(key, "nw_words", pt2.nw.words);
        json.add(key, "nw_messages", total_msgs);
        json.add(key, "w12_per_solve_per_step", w12_ps);
        json.add(key, "w12_model", w12_model);
        json.add(key, "halo_per_solve_per_outer", halo_ps);
        json.add(key, "halo_model", halo_model);
        json.add(key, "msgs_per_solve", msgs_ps);
        json.add(key, "msgs_model", msgs_model / bd);
      }
    }
    bt.print();
    std::printf(
        "\nReading: the per-solve W12 and halo columns match the single-RHS"
        "\nclosed forms at every b (those words are irreducible per solve),"
        "\nwhile messages per solve and the shared A-word stream drop as"
        "\n1/b -- the amortization a request-batching driver buys.\n");

    // Throughput at a fixed residual: the same batched solver driven
    // to tol (not a fixed outer count), timed wall-to-wall, reported
    // as solves completed per second of wall-clock.  Counters above
    // track the model; this column tracks what a request-serving
    // deployment actually cares about.  (All keys are timing --
    // excluded from the drift baseline.)
    std::printf("\nThroughput at fixed residual (tol=1e-9, same operator):\n");
    bench::Table tt({"b", "mode", "wall (s)", "solves/s", "iters[0]"});
    for (const std::size_t bsz : {1, 4, 16}) {
      for (auto mode : {CaCgMode::kStored, CaCgMode::kStreaming}) {
        Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
        std::vector<double> B(nb * bsz), X(nb * bsz, 0.0);
        for (std::size_t j = 0; j < bsz; ++j) {
          std::mt19937_64 rj(41 + 977 * j);
          std::uniform_real_distribution<double> dj(-1, 1);
          for (std::size_t i = 0; i < nb; ++i) B[j * nb + i] = dj(rj);
        }
        CaCgOptions opt;
        opt.s = sB;
        opt.mode = mode;
        opt.tol = 1e-9;
        const auto t0 = std::chrono::steady_clock::now();
        const auto res = dist::ca_cg_batch(m, *partb, Ab, B, X, bsz, opt);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        std::size_t converged = 0;
        for (const auto& r : res.rhs) converged += r.converged ? 1 : 0;
        if (converged != bsz) {
          bench::die("throughput sweep: a solve failed to reach tol");
        }
        const bool stored = mode == CaCgMode::kStored;
        const double sps = wall > 0 ? double(bsz) / wall : 0.0;
        tt.row({std::to_string(bsz), stored ? "stored" : "stream",
                bench::fmt_d(wall, 4), bench::fmt_d(sps, 2),
                std::to_string(res.rhs[0].iterations)});
        const std::string key = "throughput_b" + std::to_string(bsz) +
                                (stored ? "_stored" : "_streaming");
        json.add(key, "wall_seconds", wall);
        json.add(key, "solves_per_wall_second", sps);
      }
    }
    tt.print();

    // Repeat solve: the b = 16 stored fixed-work solve twice on one
    // Machine.
    {
      const std::size_t bsz = 16;
      Machine m(P, kM1, kM2, kM3, HwParams{}, bench::env_backend());
      std::vector<double> B(nb * bsz), X(nb * bsz);
      for (std::size_t j = 0; j < bsz; ++j) {
        std::mt19937_64 rj(41 + 977 * j);
        std::uniform_real_distribution<double> dj(-1, 1);
        for (std::size_t i = 0; i < nb; ++i) B[j * nb + i] = dj(rj);
      }
      CaCgOptions opt;
      opt.s = sB;
      opt.mode = CaCgMode::kStored;
      opt.tol = 0.0;
      opt.max_outer = outers;
      repeat_rung("repeat_b16_stored",
                  "b=16, stored, " + std::to_string(outers) + " outers", m,
                  X, [&] { dist::ca_cg_batch(m, *partb, Ab, B, X, bsz, opt); });
    }
  }

  // Repeat solve on the streaming box path: a layered 3-D mesh on
  // P = 16 whose 8 x 8 x 4 tiles each stream 4 chunks of 2 mesh lines
  // (block_rows 64), solved twice on one Machine.  Fixed size and P,
  // whatever WA_SCALE and WA_PROCS say.
  {
    const std::size_t Pr = 16, outers = 6;
    const auto Ar = sparse::poisson_3d(32, 32, 4);
    const auto partr = make_partition(Pr, Ar);
    std::vector<double> br(Ar.n), X(Ar.n);
    std::mt19937_64 rr(43);
    std::uniform_real_distribution<double> dr(-1, 1);
    for (auto& v : br) v = dr(rr);
    Machine m(Pr, kM1, kM2, kM3, HwParams{}, bench::env_backend());
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = CaCgMode::kStreaming;
    opt.block_rows = 64;
    opt.tol = 0.0;
    opt.max_outer = outers;
    repeat_rung("repeat_p3d32_streaming",
                "poisson_3d(32,32,4), P=16, streaming, " +
                    std::to_string(outers) + " outers",
                m, X, [&] { dist::ca_cg(m, *partr, Ar, br, X, opt); });
  }

  // Execution-backend comparison: the per-rank basis/recovery phases
  // run on the thread pool; counters and iterates must not move.
  {
    const std::size_t env_threads = bench::env_threads();
    const std::size_t threads =
        env_threads != 0
            ? env_threads
            : std::max<std::size_t>(4, ThreadedBackend::default_threads());
    std::printf("\nBackend wall-clock, streaming CA-CG s=4 (n=%zu, P=%zu):\n",
                n, P);
    bench::Table bt({"backend", "wall (s)", "speedup", "counters"});
    CaCgOptions opt;
    opt.s = 4;
    opt.mode = CaCgMode::kStreaming;
    opt.tol = 1e-9;
    opt.max_outer = 250;

    Machine serial(P, kM1, kM2, kM3, HwParams{},
                   std::make_unique<SerialSimBackend>());
    std::vector<double> x_serial(n, 0.0);
    dist::ca_cg(serial, A, b, x_serial, opt);

    Machine threaded(P, kM1, kM2, kM3, HwParams{},
                     std::make_unique<ThreadedBackend>(threads));
    std::vector<double> x_threaded(n, 0.0);
    dist::ca_cg(threaded, A, b, x_threaded, opt);

    const double ws = serial.local_wall_seconds();
    const double wt = threaded.local_wall_seconds();
    const bool bits =
        std::memcmp(x_serial.data(), x_threaded.data(),
                    n * sizeof(double)) == 0;
    const bool counters = bench::same_counters(serial, threaded);
    bt.row({"serial", bench::fmt_d(ws, 4), "1.00", "-"});
    bt.row({std::string("threaded x") + std::to_string(threads),
            bench::fmt_d(wt, 4), bench::fmt_d(wt > 0 ? ws / wt : 0.0),
            counters && bits ? "identical" : "MISMATCH"});
    bt.print();
    json.add("backends", "counters_identical",
             std::uint64_t(counters && bits ? 1 : 0));
    if (!counters || !bits) {
      std::fprintf(stderr, "backend mismatch: serial and threaded runs "
                           "diverged\n");
      return 1;
    }
  }
  return 0;
}
