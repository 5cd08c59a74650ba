// Cache-policy explorer (Section 6): replay a matmul instruction order
// against a configurable cache and watch the counters.
//
//   $ ./examples/cache_policy_explorer [order] [policy] [n] [l3_kib]
//
//   order : wa | twolevel | co | mkl      (default wa)
//   policy: lru | clock3 | srrip | random (default lru)
//
// Use it to recreate any single cell of the paper's Figures 2/5, or to
// explore configurations the paper did not measure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cachesim/traced.hpp"
#include "core/matmul_traced.hpp"

int main(int argc, char** argv) {
  using namespace wa;
  using cachesim::Policy;

  const std::string order = argc > 1 ? argv[1] : "wa";
  const std::string policy_s = argc > 2 ? argv[2] : "lru";
  const std::size_t n = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 192;
  const std::size_t l3_kib =
      argc > 4 ? std::strtoul(argv[4], nullptr, 10) : 128;

  Policy pol = Policy::kLru;
  if (policy_s == "clock3") pol = Policy::kClock3;
  if (policy_s == "srrip") pol = Policy::kSrrip;
  if (policy_s == "random") pol = Policy::kRandom;

  auto cfg = cachesim::nehalem_scaled(1.0, pol);
  cfg[2].size_bytes = l3_kib * 1024;
  cachesim::CacheHierarchy sim(cfg, 64);
  cachesim::AddressSpace as;
  core::TracedMat A(sim, as, n, n), B(sim, as, n, n), C(sim, as, n, n);
  linalg::fill_random(A.raw(), 1);
  linalg::fill_random(B.raw(), 2);

  const std::size_t b3 = 57, b2 = 16, b1 = 8;
  if (order == "wa") {
    const std::size_t bs[] = {b1, b2, b3};
    core::traced_wa_matmul_multilevel(C, A, B, bs);
  } else if (order == "twolevel") {
    const std::size_t bs[] = {b1, b2, b3};
    core::traced_wa_matmul_twolevel(C, A, B, bs);
  } else if (order == "co") {
    core::traced_co_matmul(C, A, B, b1);
  } else if (order == "mkl") {
    core::traced_mkl_like_matmul(C, A, B, b2, 2 * b2);
  } else {
    std::fprintf(stderr, "unknown order '%s'\n", order.c_str());
    return 1;
  }
  sim.flush();

  std::printf("order=%s policy=%s n=%zu L3=%zu KiB\n\n", order.c_str(),
              policy_s.c_str(), n, l3_kib);
  std::printf("%-6s %12s %12s %12s %12s %12s\n", "level", "hits", "misses",
              "fills", "victims.E", "victims.M");
  for (std::size_t i = 0; i < sim.num_levels(); ++i) {
    const auto& s = sim.stats(i);
    std::printf("L%zu     %12llu %12llu %12llu %12llu %12llu\n", i + 1,
                (unsigned long long)s.hits(), (unsigned long long)s.misses(),
                (unsigned long long)s.fills,
                (unsigned long long)s.victims_clean,
                (unsigned long long)s.victims_dirty);
  }
  std::printf("\nDRAM write-backs (incl. final flush): %llu lines "
              "(output = %llu lines)\n",
              (unsigned long long)sim.dram_writebacks(),
              (unsigned long long)(n * n * 8 / 64));
  return 0;
}
