// Figure 5: multi-level WA instruction order (left column) vs
// two-level WA order (right column) for four L3 blocking sizes, under
// the LRU-like cache model.
//
// Paper claim (Section 6.2): with the multi-level recursion order
// (contraction innermost at *every* level) LRU preserves write-
// avoidance only when enough blocks fit in L3; for larger blocks
// VICTIMS.M grows with m.  The slab order (Fig. 4b) keeps the C
// block's LRU priority high, so write-backs stay nearer the lower
// bound, at the price of more exclusive-state traffic.
//
// Measured here at WA_SCALE=1 (README, "Single-node kernels"): the
// multi-level order is already 1.06x the bound at 6.6 blocks and
// 1.79x at 5.0 blocks (m = 384), so it does not stay near the bound
// down to the ~5 blocks the paper states; the two-level order stays
// at the bound while 4 or more blocks fit but reaches 2.27x at 3.1
// blocks.  The closing reading is computed from the tables: per
// column and block, the largest VICTIMS.M / Write L.B. ratio over m
// and whether it stays within 1.05x.
//
// `--json PATH` writes every counter of every table.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_traced.hpp"

namespace {

using namespace wa;
using cachesim::AddressSpace;
using cachesim::CacheHierarchy;

struct Counters {
  std::uint64_t victims_m, victims_e, fills;
};

Counters run(std::size_t outer, std::size_t middle,
             const std::vector<std::size_t>& bs, bool multilevel) {
  CacheHierarchy sim(cachesim::nehalem_scaled(bench::env_scale()), 64);
  AddressSpace as;
  core::TracedMat a(sim, as, outer, middle), b(sim, as, middle, outer),
      c(sim, as, outer, outer);
  linalg::fill_random(a.raw(), 1);
  linalg::fill_random(b.raw(), 2);
  if (multilevel) {
    core::traced_wa_matmul_multilevel(c, a, b, bs);
  } else {
    core::traced_wa_matmul_twolevel(c, a, b, bs);
  }
  sim.flush();
  const auto& s = sim.stats(sim.num_levels() - 1);
  return Counters{s.total_writebacks(), s.victims_clean, s.fills};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const double sc = bench::env_scale();
  if (sc < 0.125) {
    bench::die("bench_fig5: WA_SCALE must be at least 0.125; below it the L1 "
               "block 8 * WA_SCALE rounds to 0");
  }
  const std::size_t outer = std::size_t(192 * sc);
  const std::vector<std::size_t> middles = {std::size_t(24 * sc),
                                            std::size_t(96 * sc),
                                            std::size_t(384 * sc)};
  const std::vector<std::size_t> l3_blocks = {
      std::size_t(50 * sc), std::size_t(57 * sc), std::size_t(64 * sc),
      std::size_t(73 * sc)};
  const std::size_t l2b = std::size_t(16 * sc), l1b = std::size_t(8 * sc);
  const std::uint64_t write_lb = outer * outer * 8 / 64;
  const std::size_t l3_bytes =
      cachesim::nehalem_scaled(sc).back().size_bytes;

  std::printf("Figure 5: instruction-order ablation under LRU, outer dims "
              "%zux%zu (Write L.B. = %llu lines)\n",
              outer, outer, (unsigned long long)write_lb);
  bench::BoundReading reading(write_lb);

  for (bool multilevel : {true, false}) {
    std::printf("\n==== %s column: %s ====\n",
                multilevel ? "left" : "right",
                multilevel
                    ? "multi-level WA order (Fig. 4a, all levels C-resident)"
                    : "two-level WA order (Fig. 4b, slab below top level)");
    for (auto b3 : l3_blocks) {
      std::vector<std::string> head = {"middle m"};
      for (auto m : middles) head.push_back(std::to_string(m));
      bench::Table t(head, 10);
      std::vector<std::string> vm = {"VICTIMS.M"}, ve = {"VICTIMS.E"},
                               fl = {"FILLS.E"};
      std::vector<std::uint64_t> victims;
      for (auto m : middles) {
        const std::vector<std::size_t> bs = {l1b, l2b, b3};
        const auto c = run(outer, m, bs, multilevel);
        vm.push_back(bench::fmt_u(c.victims_m));
        ve.push_back(bench::fmt_u(c.victims_e));
        fl.push_back(bench::fmt_u(c.fills));
        const std::string key = std::string(multilevel ? "ml" : "wa2") +
                                "_b" + std::to_string(b3) + "_m" +
                                std::to_string(m);
        report.add(key, "victims_m", c.victims_m);
        report.add(key, "victims_e", c.victims_e);
        report.add(key, "fills", c.fills);
        victims.push_back(c.victims_m);
      }
      const double fit = double(l3_bytes) / double(b3 * b3 * 8);
      char name[64];
      std::snprintf(name, sizeof name, "%s, block %zu (%.1f fit)",
                    multilevel ? "multi-level" : "two-level", b3, fit);
      reading.add(name, victims);
      std::printf("\nL3 block %zu (%.1f blocks fit in L3)\n", b3, fit);
      t.row(std::move(vm)).row(std::move(ve)).row(std::move(fl));
      t.row({"Write L.B.", bench::fmt_u(write_lb), bench::fmt_u(write_lb),
             bench::fmt_u(write_lb)});
      t.print();
    }
  }

  std::printf("\nReading (computed from the tables above):\n");
  reading.print();
  return 0;
}
