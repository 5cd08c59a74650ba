// Solve a Poisson-like problem with CG vs streaming CA-CG and report
// the slow-memory write savings (Section 8 end to end).
//
//   $ ./examples/krylov_poisson [mesh] [s]
//
// A (2b+1)-point stencil on a 1-D mesh is the paper's model case where
// the matrix-powers optimization gives f(s) = Theta(s); the streaming
// variant then writes Theta(s) times fewer words to slow memory.
// Both solves run on a one-rank Machine, whose iterates are bitwise
// those of the shared-memory krylov::cg / krylov::ca_cg; the slow-
// memory words are rank 0's l3_write and l3_read counters.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "dist/krylov.hpp"
#include "dist/machine.hpp"
#include "sparse/csr.hpp"

int main(int argc, char** argv) {
  using namespace wa;
  using krylov::CaCgMode;
  using krylov::CaCgOptions;

  const std::size_t mesh =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 32768;
  const std::size_t s = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 6;

  const auto A = sparse::stencil_1d(mesh, 1);
  std::vector<double> b(mesh, 1.0);

  std::printf("Poisson-like solve: 3-point stencil, n=%zu, tol 1e-9\n\n",
              mesh);

  std::vector<double> x_cg(mesh, 0.0);
  dist::Machine m_cg(1, 192, 4096, 1 << 24);
  const auto r_cg = dist::cg(m_cg, A, b, x_cg, 10000, 1e-9);
  const dist::ProcTraffic& t_cg = m_cg.proc(0);
  std::printf("CG                : %4zu steps, residual %.2e, "
              "%llu slow writes\n",
              r_cg.iterations, r_cg.residual_norm,
              (unsigned long long)t_cg.l3_write.words);

  CaCgOptions opt;
  opt.s = s;
  opt.mode = CaCgMode::kStreaming;
  opt.tol = 1e-9;
  opt.max_outer = 10000;
  std::vector<double> x_wa(mesh, 0.0);
  dist::Machine m_wa(1, 192, 4096, 1 << 24);
  const auto r_wa = dist::ca_cg(m_wa, A, b, x_wa, opt);
  const dist::ProcTraffic& t_wa = m_wa.proc(0);
  std::printf("streaming CA-CG s=%zu: %4zu steps, residual %.2e, "
              "%llu slow writes\n",
              s, r_wa.iterations, r_wa.residual_norm,
              (unsigned long long)t_wa.l3_write.words);

  const double save = double(t_cg.l3_write.words) /
                      double(t_wa.l3_write.words) *
                      double(r_wa.iterations) / double(r_cg.iterations);
  std::printf("\nwrite reduction (per CG step): %.1fx  (theory: ~4s/3 = "
              "%.1fx)\n",
              save, 4.0 * double(s) / 3.0);
  std::printf("read overhead: %.2fx (theory: <= ~2x)\n",
              double(t_wa.l3_read.words) / double(r_wa.iterations) /
                  (double(t_cg.l3_read.words) / double(r_cg.iterations)));
  std::printf(
      "\nOn NVM where writes cost ~10-50x a read, this is the difference"
      "\nbetween a write-bound and a read-bound solver.\n");
  return 0;
}
