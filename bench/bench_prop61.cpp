// Propositions 6.1 / 6.2: replacement-policy and associativity
// ablation.  Under fully-associative exact LRU with five blocks
// resident, the two-level WA schedules write back exactly the output;
// the 3-bit CLOCK approximation and limited associativity open the
// small gap the paper measures, and SRRIP/random behave differently
// again.
//
// `--json PATH` writes every write-back count of both tables.

#include <cstdio>

#include "bench_util.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_traced.hpp"
#include "core/traced_kernels.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace wa;
using cachesim::AddressSpace;
using cachesim::CacheHierarchy;
using cachesim::LevelConfig;
using cachesim::Policy;

std::uint64_t run_matmul(std::size_t n, std::size_t b, Policy pol,
                         unsigned assoc) {
  std::size_t lines = (5 * b * b * sizeof(double) + 64 + 63) / 64;
  if (assoc != 0) {
    // Set-associative layout needs lines = assoc * 2^k.
    std::size_t sets = 1;
    while (sets * assoc < lines) sets <<= 1;
    lines = sets * assoc;
  }
  CacheHierarchy sim({LevelConfig{lines * 64, assoc, pol}}, 64);
  AddressSpace as;
  cachesim::TracedMatrix<double> A(sim, as, n, n), B(sim, as, n, n),
      C(sim, as, n, n);
  const std::size_t bs[] = {b};
  core::traced_wa_matmul_multilevel(C, A, B, bs);
  sim.flush();
  return sim.dram_writebacks();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const double sc = bench::env_scale();
  const std::size_t n = std::size_t(96 * sc), b = 16;
  const std::uint64_t c_lines = n * n * 8 / 64;

  std::printf("Proposition 6.1 ablation: WA matmul n=%zu, block %zu, cache "
              "= 5 blocks + 1 line (output = %llu lines)\n\n",
              n, b, (unsigned long long)c_lines);

  bench::Table t({"policy", "associativity", "write-backs", "ratio vs LB"});
  for (Policy pol :
       {Policy::kLru, Policy::kClock3, Policy::kSrrip, Policy::kRandom}) {
    for (unsigned assoc : {0u, 16u, 8u}) {
      const auto w = run_matmul(n, b, pol, assoc);
      report.add("matmul_" + cachesim::to_string(pol) + "_" +
                     (assoc == 0 ? std::string("full")
                                 : std::to_string(assoc) + "way"),
                 "writebacks", w);
      t.row({cachesim::to_string(pol), assoc == 0 ? "full" :
             std::to_string(assoc), bench::fmt_u(w),
             bench::fmt_d(double(w) / double(c_lines))});
    }
  }
  t.print();

  // ---- Proposition 6.2: TRSM, Cholesky and N-body under 5-block LRU.
  std::printf("\nProposition 6.2: other WA kernels under fully-assoc LRU, "
              "5 blocks + 1 line\n");
  bench::Table t2({"kernel", "output lines", "write-backs", "ratio"});
  {
    const std::size_t nn = std::size_t(64 * sc), bb = 8;
    const std::size_t bytes =
        ((5 * bb * bb * sizeof(double) + 64 + 63) / 64) * 64;
    CacheHierarchy sim({LevelConfig{bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedMatrix<double> T(sim, as, nn, nn), B(sim, as, nn, nn);
    T.raw() = linalg::random_upper_triangular(nn, 1);
    linalg::fill_random(B.raw(), 2);
    core::traced_trsm_wa(T, B, bb);
    sim.flush();
    report.add("trsm", "writebacks", sim.dram_writebacks());
    const std::uint64_t lb = nn * nn * 8 / 64;
    t2.row({"TRSM (Alg 2)", bench::fmt_u(lb),
            bench::fmt_u(sim.dram_writebacks()),
            bench::fmt_d(double(sim.dram_writebacks()) / double(lb))});
  }
  {
    const std::size_t nn = std::size_t(64 * sc), bb = 8;
    const std::size_t bytes =
        ((5 * bb * bb * sizeof(double) + 2 * 64 + 63) / 64) * 64;
    CacheHierarchy sim({LevelConfig{bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedMatrix<double> A(sim, as, nn, nn);
    A.raw() = linalg::random_spd(nn, 3);
    core::traced_cholesky_wa(A, bb);
    sim.flush();
    report.add("cholesky", "writebacks", sim.dram_writebacks());
    const std::uint64_t lb = nn * nn * 8 / 64 / 2;  // lower triangle
    t2.row({"Cholesky (Alg 3)", bench::fmt_u(lb),
            bench::fmt_u(sim.dram_writebacks()),
            bench::fmt_d(double(sim.dram_writebacks()) / double(lb))});
  }
  {
    const std::size_t N = std::size_t(1024 * sc), bb = 64;
    const std::size_t bytes = ((5 * bb * sizeof(double) + 64 + 63) / 64) * 64;
    CacheHierarchy sim({LevelConfig{bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedArray<double> P(sim, as, N), F(sim, as, N);
    for (std::size_t i = 0; i < N; ++i) P.raw()[i] = double(i % 31) - 15.0;
    core::traced_nbody2_wa(P, F, bb);
    sim.flush();
    report.add("nbody", "writebacks", sim.dram_writebacks());
    const std::uint64_t lb = N * 8 / 64;
    t2.row({"N-body (Alg 4)", bench::fmt_u(lb),
            bench::fmt_u(sim.dram_writebacks()),
            bench::fmt_d(double(sim.dram_writebacks()) / double(lb))});
  }
  t2.print();

  std::printf(
      "\nReading: fully-associative LRU achieves ratio 1.00 exactly for"
      "\nmatmul, TRSM and N-body (Propositions 6.1/6.2; Cholesky sits"
      "\nslightly above its half-matrix bound because row-major lines"
      "\nstraddle the diagonal); CLOCK3 and limited associativity open"
      "\nthe small gap the paper observed on Nehalem-EX.\n");
  return 0;
}
