// Figure 2 (a)-(f): L3 cache-counter measurements of classical matmul
// instruction orders on the (scaled) Nehalem-EX cache model.
//
// Paper setup: C is 4000x4000 (2.0M cache lines, the red "Write L.B."
// line), middle dimension m sweeps 128..32768, L3 = 24 MB; six
// variants: cache-oblivious, MKL dgemm, and two-level WA with L3
// blocking sizes 700/800/900/1023.
//
// Scaled setup (everything ~1/16, line size kept at 64 B):
// C is 192x192, m sweeps 12..384, L3 = 128 KiB; the same six variants
// with proportionally scaled L3 block sizes.  Rows report the modelled
// analogues of LLC_VICTIMS.M / LLC_VICTIMS.E / LLC_S_FILLS.E in cache
// lines, plus the ideal-cache miss formula for the CO variant and the
// write lower bound (C's line count).
//
// Expected shape (the paper's): VICTIMS.M grows with m for the CO and
// MKL-like orders but stays near the write lower bound for the
// two-level WA orders.  Measured here at WA_SCALE=1, blocks 50, 57 and
// 64 (4 or more blocks fit in L3) stay exactly at the bound for every
// m, but block 73 (3.1 blocks fit) does not: it reaches 2.27x the
// bound at m = 384 (README, "Single-node kernels").  The reading is
// computed from the tables: per variant, the largest VICTIMS.M /
// Write L.B. ratio over m and whether it stays within 1.05x.
//
// `--json PATH` writes every counter of every table.

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "bounds/bounds.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_traced.hpp"

namespace {

using namespace wa;
using cachesim::AddressSpace;
using cachesim::CacheHierarchy;
using cachesim::Policy;

struct Counters {
  std::uint64_t victims_m, victims_e, fills;
};

template <class RunFn>
Counters run_variant(std::size_t outer, std::size_t middle, RunFn&& fn) {
  CacheHierarchy sim(cachesim::nehalem_scaled(bench::env_scale()), 64);
  AddressSpace as;
  core::TracedMat a(sim, as, outer, middle), b(sim, as, middle, outer),
      c(sim, as, outer, outer);
  linalg::fill_random(a.raw(), 1);
  linalg::fill_random(b.raw(), 2);
  fn(c, a, b);
  sim.flush();
  const auto& s = sim.stats(sim.num_levels() - 1);
  return Counters{s.total_writebacks(), s.victims_clean, s.fills};
}

void print_panel(const char* title, const std::vector<std::size_t>& middles,
                 std::size_t outer, const std::vector<Counters>& data,
                 bool with_ideal) {
  std::printf("\n%s\n", title);
  std::vector<std::string> head = {"middle m"};
  for (auto m : middles) head.push_back(std::to_string(m));
  bench::Table t(head, 10);
  auto row = [&](const char* name, auto getter) {
    std::vector<std::string> cells = {name};
    for (const auto& d : data) cells.push_back(bench::fmt_u(getter(d)));
    t.row(std::move(cells));
  };
  row("VICTIMS.M", [](const Counters& c) { return c.victims_m; });
  row("VICTIMS.E", [](const Counters& c) { return c.victims_e; });
  row("FILLS.E", [](const Counters& c) { return c.fills; });
  if (with_ideal) {
    std::vector<std::string> cells = {"IdealMiss"};
    const auto cfg = cachesim::nehalem_scaled(bench::env_scale());
    for (auto m : middles) {
      cells.push_back(bench::fmt_u(std::uint64_t(
          bounds::co_matmul_ideal_misses(outer, m, outer,
                                         cfg.back().size_bytes, 64))));
    }
    t.row(std::move(cells));
  }
  std::vector<std::string> lb = {"Write L.B."};
  for (std::size_t i = 0; i < middles.size(); ++i) {
    lb.push_back(bench::fmt_u(outer * outer * 8 / 64));
  }
  t.row(std::move(lb));
  t.print();
}

/// Records one panel's counters as cases "<key>_m<m>" and keeps its
/// VICTIMS.M row for the closing reading.
void record(bench::JsonReport& report, bench::BoundReading& reading,
            const std::string& key, const std::string& name,
            const std::vector<std::size_t>& middles,
            const std::vector<Counters>& data) {
  std::vector<std::uint64_t> victims;
  for (std::size_t i = 0; i < middles.size(); ++i) {
    const std::string c = key + "_m" + std::to_string(middles[i]);
    report.add(c, "victims_m", data[i].victims_m);
    report.add(c, "victims_e", data[i].victims_e);
    report.add(c, "fills", data[i].fills);
    victims.push_back(data[i].victims_m);
  }
  reading.add(name, victims);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const double sc = bench::env_scale();
  if (sc < 0.125) {
    bench::die("bench_fig2: WA_SCALE must be at least 0.125; below it the L1 "
               "block 8 * WA_SCALE rounds to 0");
  }
  const auto outer = std::size_t(192 * sc);
  std::vector<std::size_t> middles;
  for (std::size_t m = std::size_t(12 * sc); m <= std::size_t(384 * sc);
       m *= 2) {
    middles.push_back(m);
  }
  // L3 blocking sizes: the paper's 700/800/900/1023 (5..3 blocks of
  // 24 MB) scale to ~50/57/64/73 for a 128 KiB L3.
  const std::vector<std::size_t> l3_blocks = {
      std::size_t(50 * sc), std::size_t(57 * sc), std::size_t(64 * sc),
      std::size_t(73 * sc)};
  const std::size_t l2_block = std::size_t(16 * sc);
  const std::size_t l1_block = std::size_t(8 * sc);

  std::printf("Figure 2: L3 counters, classical dgemm variants, "
              "outer dims %zux%zu, scaled Nehalem-EX cache model\n",
              outer, outer);
  bench::BoundReading reading(outer * outer * 8 / 64);

  // (a) cache-oblivious recursion.
  {
    std::vector<Counters> data;
    for (auto m : middles) {
      data.push_back(run_variant(outer, m, [&](auto& c, auto& a, auto& b) {
        core::traced_co_matmul(c, a, b, l1_block);
      }));
    }
    print_panel("(a) cache-oblivious (recursive halving, L1 base case)",
                middles, outer, data, /*with_ideal=*/true);
    record(report, reading, "co", "(a) cache-oblivious", middles, data);
  }

  // (b) MKL-like packed-panel order (stand-in for the proprietary
  // dgemm; same C-rewrite-per-panel behaviour at L3).
  {
    std::vector<Counters> data;
    for (auto m : middles) {
      data.push_back(run_variant(outer, m, [&](auto& c, auto& a, auto& b) {
        core::traced_mkl_like_matmul(c, a, b, l2_block, 2 * l2_block);
      }));
    }
    print_panel("(b) MKL-like packed-panel dgemm (substituted)", middles,
                outer, data, false);
    record(report, reading, "mkl", "(b) MKL-like", middles, data);
  }

  // (c)-(f) two-level WA with the four L3 blocking sizes.
  for (std::size_t bi = 0; bi < l3_blocks.size(); ++bi) {
    const std::size_t b3 = l3_blocks[bi];
    std::vector<Counters> data;
    for (auto m : middles) {
      data.push_back(run_variant(outer, m, [&](auto& c, auto& a, auto& b) {
        const std::size_t bs[] = {l1_block, l2_block, b3};
        core::traced_wa_matmul_twolevel(c, a, b, bs);
      }));
    }
    char title[128];
    std::snprintf(title, sizeof title,
                  "(%c) two-level WA, L3 block %zu (paper: %zu)",
                  char('c' + int(bi)), b3,
                  std::size_t(double(b3) / sc * 14.0));
    print_panel(title, middles, outer, data, false);
    char name[64];
    std::snprintf(name, sizeof name, "(%c) two-level WA, block %zu",
                  char('c' + int(bi)), b3);
    record(report, reading, "wa2_b" + std::to_string(b3), name, middles,
           data);
  }

  std::printf("\nReading (VICTIMS.M ~ DRAM write-backs; computed from the "
              "tables above):\n");
  reading.print();
  return 0;
}
