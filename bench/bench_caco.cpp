// Theorem 3 / Corollary 4 (Section 5): a cache-oblivious CA algorithm
// cannot be write-avoiding.  We run the same CO matmul instruction
// stream against shrinking caches: its DRAM write-backs grow like
// Omega(n^3/sqrt(M)), while the cache-AWARE WA schedule re-blocked for
// each M keeps write-backs near the output size.
//
// `--json PATH` writes both write-back counts per cache size.

#include <cstdio>

#include "bench_util.hpp"
#include "bounds/bounds.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_traced.hpp"

namespace {

using namespace wa;
using cachesim::AddressSpace;
using cachesim::CacheHierarchy;
using cachesim::LevelConfig;
using cachesim::Policy;

std::uint64_t run_co(std::size_t n, std::size_t cache_bytes) {
  CacheHierarchy sim({LevelConfig{cache_bytes, 0, Policy::kLru}}, 64);
  AddressSpace as;
  cachesim::TracedMatrix<double> a(sim, as, n, n), b(sim, as, n, n),
      c(sim, as, n, n);
  core::traced_co_matmul(c, a, b, 8);  // oblivious: base case fixed
  sim.flush();
  return sim.dram_writebacks();
}

std::uint64_t run_aware(std::size_t n, std::size_t cache_bytes) {
  CacheHierarchy sim({LevelConfig{cache_bytes, 0, Policy::kLru}}, 64);
  AddressSpace as;
  cachesim::TracedMatrix<double> a(sim, as, n, n), b(sim, as, n, n),
      c(sim, as, n, n);
  // Aware: block for THIS cache (5 blocks fit -> Prop 6.1 regime).
  std::size_t b3 = 8;
  while (5 * (b3 * 2) * (b3 * 2) * 8 + 64 <= cache_bytes) b3 *= 2;
  const std::size_t bs[] = {b3};
  core::traced_wa_matmul_multilevel(c, a, b, bs);
  sim.flush();
  return sim.dram_writebacks();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const double sc = bench::env_scale();
  const std::size_t n = std::size_t(128 * sc);
  const std::uint64_t c_lines = n * n * 8 / 64;

  std::printf("Theorem 3: cache-oblivious vs cache-aware WA matmul, n=%zu "
              "(output = %llu lines)\n\n",
              n, (unsigned long long)c_lines);

  bench::Table t({"cache KiB", "CO writes", "CO / output", "aware writes",
                  "aware / output"});
  for (std::size_t kb : {64, 32, 16, 8, 4}) {
    const std::size_t bytes = kb * 1024;
    const auto co = run_co(n, bytes);
    const auto aw = run_aware(n, bytes);
    const std::string key = "cache_" + std::to_string(kb) + "kib";
    report.add(key, "co_writebacks", co);
    report.add(key, "aware_writebacks", aw);
    t.row({std::to_string(kb), bench::fmt_u(co),
           bench::fmt_d(double(co) / double(c_lines)), bench::fmt_u(aw),
           bench::fmt_d(double(aw) / double(c_lines))});
  }
  t.print();

  std::printf(
      "\nReading: the oblivious schedule's write-backs blow up as the cache"
      "\nshrinks below the scale it implicitly assumed (Theorem 3's"
      "\nOmega(|S|/sqrt(M)) kicks in); the aware WA schedule, re-blocked per"
      "\ncache, stays pinned near 1x output for every size.\n");
  return 0;
}
