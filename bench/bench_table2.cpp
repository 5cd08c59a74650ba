// Table 2 + Theorem 4: parallel matmul when the data does NOT fit in
// L2 (Model 2.2, inputs/outputs in NVM).  2.5DMML3ooL2 attains the
// interprocessor lower bound W2 but writes NVM far above W1;
// SUMMAL3ooL2 writes NVM exactly ~W1 = n^2/P but moves
// Theta(n^3/(P sqrt(M2))) network words.  Theorem 4 proves no
// algorithm can attain both.
//
// Local phases run under the backend selected by WA_BACKEND
// (serial|threaded); the measured wall-clock is printed next to each
// counter table.  `--json PATH` writes each row's critical-path words
// and messages on all five channels.

#include <cstdio>

#include "bench_util.hpp"
#include "bounds/bounds.hpp"
#include "dist/backend.hpp"
#include "dist/cost_model.hpp"
#include "dist/machine.hpp"
#include "dist/mm25d.hpp"
#include "dist/summa.hpp"
#include "linalg/kernels.hpp"

namespace {

using namespace wa;
using namespace wa::dist;

void print_rows(const char* name, const MmCostModel& model,
                const Machine& m) {
  const ProcTraffic& meas = m.critical_path();
  bench::Table t({"channel", "model words", "meas. words"});
  auto row = [&](const char* ch, double mw, const ChanCount& c) {
    t.row({ch, bench::fmt_d(mw, 0), bench::fmt_u(c.words)});
  };
  row("network", model.nw_words, meas.nw);
  row("L3->L2", model.l3r_words, meas.l3_read);
  row("L2->L3", model.l3w_words, meas.l3_write);
  row("L2->L1", model.l2r_words, meas.l2_read);
  row("L1->L2", model.l2w_words, meas.l2_write);
  std::printf("\n%s (measured local wall-clock %.3e s, %s backend)\n", name,
              m.local_wall_seconds(), m.backend().name());
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport json(argc, argv);
  const double sc = bench::env_scale();
  const std::size_t P = 64;
  const std::size_t n = std::size_t(128 * sc);
  const std::size_t M1 = 192, M2 = 2048, M3 = 1 << 24;
  const std::size_t c3 = 4;

  std::printf("Table 2: parallel matmul, data only fits in NVM. "
              "n=%zu P=%zu M2=%zu c3=%zu\n",
              n, P, M2, c3);
  std::printf("Lower bounds: W1 (NVM writes) = %.0f, "
              "W2 (network, c=%zu) = %.0f, Theorem4 min NVM writes when "
              "W2 attained = %.0f\n",
              bounds::parallel_w1(n, P), c3,
              bounds::parallel_w2(n, P, double(c3)),
              bounds::theorem4_min_l3_writes(n, P));

  linalg::Matrix<double> a(n, n), b(n, n);
  linalg::fill_random(a, 1);
  linalg::fill_random(b, 2);
  linalg::Matrix<double> ref(n, n, 0.0);
  linalg::gemm_acc(ref.view(), a.view(), b.view());

  ProcTraffic t25, tsu;
  {
    Machine m(P, M1, M2, M3, HwParams{}, bench::env_backend());
    linalg::Matrix<double> c(n, n, 0.0);
    mm_25d(m, c.view(), a.view(), b.view(), Mm25dOptions{c3, true, true, 0});
    std::printf("\n[2.5DMML3ooL2] numerics max|err| = %.2e\n",
                max_abs_diff(c, ref));
    t25 = m.critical_path();
    json.add_channels("2.5DMML3ooL2", t25);
    print_rows("2.5DMML3ooL2 (attains W2, overshoots W1)",
               table2_25dmml3ool2(n, P, M1, M2, c3), m);
  }
  {
    Machine m(P, M1, M2, M3, HwParams{}, bench::env_backend());
    linalg::Matrix<double> c(n, n, 0.0);
    summa_l3_ool2(m, c.view(), a.view(), b.view());
    std::printf("\n[SUMMAL3ooL2]  numerics max|err| = %.2e\n",
                max_abs_diff(c, ref));
    tsu = m.critical_path();
    json.add_channels("SUMMAL3ooL2", tsu);
    print_rows("SUMMAL3ooL2 (attains W1, overshoots W2)",
               table2_summal3ool2(n, P, M1, M2), m);
  }

  std::printf("\nTheorem 4 check:\n");
  bench::Table t({"algorithm", "NW words", "NVM writes", "NVM w. / W1"});
  const double w1 = bounds::parallel_w1(n, P);
  t.row({"2.5DMML3ooL2", bench::fmt_u(t25.nw.words),
         bench::fmt_u(t25.l3_write.words),
         bench::fmt_d(double(t25.l3_write.words) / w1)});
  t.row({"SUMMAL3ooL2", bench::fmt_u(tsu.nw.words),
         bench::fmt_u(tsu.l3_write.words),
         bench::fmt_d(double(tsu.l3_write.words) / w1)});
  t.print();

  std::printf("\nDominant-beta-cost model (Eqs. (2) and (3)):\n");
  for (const char* label : {"slow NVM", "fast NVM"}) {
    const auto hw = std::string(label) == "slow NVM" ? HwParams::slow_nvm()
                                                     : HwParams::fast_nvm();
    const double c25 = dom_beta_cost_25dmml3ool2(n * 64, P, M2, c3, hw);
    const double csu = dom_beta_cost_summal3ool2(n * 64, P, M2, hw);
    std::printf("  %-9s: 2.5DMML3ooL2 %.3e s  SUMMAL3ooL2 %.3e s  -> %s\n",
                label, c25, csu,
                c25 < csu ? "2.5D wins" : "SUMMA wins");
  }
  return 0;
}
