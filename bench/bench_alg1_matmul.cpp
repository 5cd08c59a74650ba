// Section 4.1 / Algorithm 1: loop-order ablation for explicitly
// blocked classical matmul, counts vs. the CA lower bound and the
// write lower bound, plus the multi-level extension and the naive
// (write-minimal but not CA) contrast.

#include <cstdio>

#include "bench_util.hpp"
#include "bounds/bounds.hpp"
#include "core/matmul_explicit.hpp"
#include "linalg/matrix.hpp"

int main() {
  using namespace wa;
  using memsim::Hierarchy;

  const double sc = bench::env_scale();
  const std::size_t n = std::size_t(96 * sc), b = 8;
  const std::size_t M = 3 * b * b;

  std::printf("Algorithm 1 ablation: n=%zu, b=%zu, M=%zu words\n\n", n, b, M);
  std::printf("CA traffic lower bound  = %.0f words\n",
              bounds::matmul_traffic_lb(n, n, n, M));
  std::printf("write lower bound       = %llu words (output size)\n\n",
              (unsigned long long)(n * n));

  bench::Table t({"loop order", "loads", "stores", "stores/LB", "WA?"});
  for (auto order : core::kAllLoopOrders) {
    linalg::Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
    Hierarchy h({M, Hierarchy::kUnbounded});
    core::blocked_matmul_explicit(c.view(), a.view(), bm.view(), b, h, order);
    t.row({core::to_string(order), bench::fmt_u(h.loads_words(0)),
           bench::fmt_u(h.stores_words(0)),
           bench::fmt_d(double(h.stores_words(0)) / double(n * n)),
           core::contraction_innermost(order) ? "yes" : "no"});
  }
  {
    linalg::Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
    Hierarchy h({M, Hierarchy::kUnbounded});
    core::naive_dot_matmul_explicit(c.view(), a.view(), bm.view(), h);
    t.row({"naive dot (not CA)", bench::fmt_u(h.loads_words(0)),
           bench::fmt_u(h.stores_words(0)),
           bench::fmt_d(double(h.stores_words(0)) / double(n * n)), "n/a"});
  }
  t.print();

  std::printf("\nMulti-level extension (three levels of blocking):\n");
  bench::Table t2({"orders (inner..outer)", "stores->L1+1", "stores->L2+1",
                   "stores->slow"});
  const std::size_t bs[] = {4, 8, 16};
  struct Cfg {
    const char* name;
    core::LoopOrder o0, o1, o2;
  };
  for (const auto& cfg :
       {Cfg{"WA/WA/WA (Fig 4a)", core::LoopOrder::kIJK, core::LoopOrder::kIJK,
            core::LoopOrder::kIJK},
        Cfg{"slab/slab/WA (Fig 4b)", core::LoopOrder::kKIJ,
            core::LoopOrder::kKIJ, core::LoopOrder::kIJK},
        Cfg{"slab everywhere", core::LoopOrder::kKIJ, core::LoopOrder::kKIJ,
            core::LoopOrder::kKIJ}}) {
    linalg::Matrix<double> a(n, n), bm(n, n), c(n, n, 0.0);
    Hierarchy h({48, 192, 768, Hierarchy::kUnbounded});
    const core::LoopOrder ord[] = {cfg.o0, cfg.o1, cfg.o2};
    core::blocked_matmul_multilevel_explicit(c.view(), a.view(), bm.view(),
                                             bs, ord, h);
    t2.row({cfg.name, bench::fmt_u(h.stores_words(0)),
            bench::fmt_u(h.stores_words(1)), bench::fmt_u(h.stores_words(2))});
  }
  t2.print();
  std::printf(
      "\nReading: only contraction-innermost orders pin stores to the"
      "\noutput size (ratio 1.0); the multi-level WA order does so at"
      "\nEVERY boundary, Fig. 4b's order only at the slow-memory boundary.\n");
  return 0;
}
