// Section 3 negative results (Corollaries 2 and 3): Cooley-Tukey FFT
// and Strassen cannot avoid writes -- the dirty-writeback share of
// DRAM traffic stays a constant fraction as the problem outgrows the
// cache, while the WA matmul's share collapses to output-size.
//
// `--json PATH` writes DRAM reads and writes for every row.

#include <cstdio>

#include <cmath>

#include "bench_util.hpp"
#include "bounds/bounds.hpp"
#include "cachesim/traced.hpp"
#include "core/fft.hpp"
#include "core/matmul_traced.hpp"
#include "core/sort_traced.hpp"
#include "core/strassen.hpp"

namespace {

using namespace wa;
using cachesim::AddressSpace;
using cachesim::CacheHierarchy;
using cachesim::LevelConfig;
using cachesim::Policy;

/// Records one row's DRAM counters as case "<alg>_n<size>".
void record(bench::JsonReport& report, const std::string& alg, std::size_t n,
            const CacheHierarchy& sim) {
  const std::string key = alg + "_n" + std::to_string(n);
  report.add(key, "dram_reads", sim.dram_fills());
  report.add(key, "dram_writes", sim.dram_writebacks());
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const double sc = bench::env_scale();
  const std::size_t fast_bytes = std::size_t(8 * 1024 * sc);

  std::printf("Corollaries 2 & 3: bounded CDAG out-degree precludes WA "
              "(cache %zu KiB, LRU)\n\n",
              fast_bytes / 1024);

  bench::Table t({"algorithm", "size", "DRAM reads", "DRAM writes",
                  "writes/reads", "traffic LB"});

  for (std::size_t n : {1024, 4096, 16384}) {
    CacheHierarchy sim({LevelConfig{fast_bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedArray<std::complex<double>> x(sim, as, n);
    for (std::size_t i = 0; i < n; ++i) x.raw()[i] = {double(i % 11), 0.0};
    core::traced_fft(x);
    sim.flush();
    record(report, "fft", n, sim);
    t.row({"FFT (d=2)", std::to_string(n), bench::fmt_u(sim.dram_fills()),
           bench::fmt_u(sim.dram_writebacks()),
           bench::fmt_d(double(sim.dram_writebacks()) /
                        double(sim.dram_fills())),
           bench::fmt_d(bounds::fft_traffic_lb(n, fast_bytes / 16) / 4.0, 0)});
  }

  for (std::size_t n : {64, 128, 256}) {
    CacheHierarchy sim({LevelConfig{fast_bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedMatrix<double> a(sim, as, n, n), b(sim, as, n, n),
        c(sim, as, n, n);
    linalg::fill_random(a.raw(), 1);
    linalg::fill_random(b.raw(), 2);
    core::traced_strassen(c, a, b, sim, as, 16);
    sim.flush();
    record(report, "strassen", n, sim);
    t.row({"Strassen (d=4)", std::to_string(n),
           bench::fmt_u(sim.dram_fills()),
           bench::fmt_u(sim.dram_writebacks()),
           bench::fmt_d(double(sim.dram_writebacks()) /
                        double(sim.dram_fills())),
           bench::fmt_d(bounds::strassen_traffic_lb(n, fast_bytes / 8) / 8.0,
                        0)});
  }

  for (std::size_t n : {64, 128, 256}) {
    CacheHierarchy sim({LevelConfig{fast_bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedMatrix<double> a(sim, as, n, n), b(sim, as, n, n),
        c(sim, as, n, n);
    linalg::fill_random(a.raw(), 1);
    linalg::fill_random(b.raw(), 2);
    const std::size_t b3 = 16;  // 5 blocks fit in 8 KiB per Prop 6.1
    const std::size_t bs[] = {b3};
    core::traced_wa_matmul_multilevel(c, a, b, bs);
    sim.flush();
    record(report, "wa_matmul", n, sim);
    t.row({"WA matmul (contrast)", std::to_string(n),
           bench::fmt_u(sim.dram_fills()),
           bench::fmt_u(sim.dram_writebacks()),
           bench::fmt_d(double(sim.dram_writebacks()) /
                        double(sim.dram_fills())),
           bench::fmt_d(bounds::matmul_traffic_lb(n, n, n, fast_bytes / 8) /
                            8.0,
                        0)});
  }
  // Section 9 conjecture: sorting behaves like the bounded-out-degree
  // class -- mergesort's write-backs track its reads at every size.
  for (std::size_t n : {1u << 12, 1u << 14, 1u << 16}) {
    CacheHierarchy sim({LevelConfig{fast_bytes, 0, Policy::kLru}}, 64);
    AddressSpace as;
    cachesim::TracedArray<double> data(sim, as, n), scratch(sim, as, n);
    for (std::size_t i = 0; i < n; ++i) {
      data.raw()[i] = double((i * 2654435761u) % 1000003u);
    }
    core::traced_mergesort(data, scratch);
    sim.flush();
    record(report, "mergesort", n, sim);
    t.row({"mergesort (conj.)", std::to_string(n),
           bench::fmt_u(sim.dram_fills()),
           bench::fmt_u(sim.dram_writebacks()),
           bench::fmt_d(double(sim.dram_writebacks()) /
                        double(sim.dram_fills())),
           bench::fmt_d(double(n) / 8.0 *
                            std::log2(double(n)) /
                            std::log2(double(fast_bytes / 8)),
                        0)});
  }
  t.print();

  std::printf(
      "\nReading: FFT and Strassen hold writes/reads roughly constant as n"
      "\ngrows (Theorem 2's floor Omega(W/d)); the classical WA matmul's"
      "\nratio falls toward output/traffic -> 0, which is exactly what"
      "\nCorollaries 2 and 3 say cannot happen for the first two.\n");
  return 0;
}
