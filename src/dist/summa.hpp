#pragma once
// wa::dist -- SUMMA-family parallel matrix multiplication on the
// virtual Machine (Section 7 of the paper).
//
//   summa_2d        classical SUMMA, data resident in L2.  Each
//                   processor re-writes its C block every step, so
//                   local L1->L2 writes are W2-like (n^2/sqrt(P)),
//                   not W1 (n^2/P).
//   summa_2d_hoarding
//                   "write-hoarding" SUMMA: hoards the full A row
//                   panel and B column panel in L2 first (extra
//                   memory!), then multiplies once -- local C is
//                   written to L2 exactly once, attaining W1.
//   summa_l3_ool2   Model 2.2 (data in NVM): SUMMA that accumulates C
//                   in L2 and writes NVM only ~W1 = n^2/P words, at
//                   the price of Theta(n^3/(P sqrt(M2))) network words
//                   (the WA side of the Theorem 4 trade-off).
//
// The three variants are residency policies of mm_25d's step loop at
// c = 1 (dist/mm25d.hpp): the same panel broadcasts and per-rank
// multiplies, differing only in where each rank keeps C and the
// received panels.  Any processor count P is factored into a pr x pc
// ProcessGrid (dist/grid.hpp) and any matrix edge n is split with
// padded edge blocks, so neither perfect-square P nor sqrt(P) | n is
// required.  Per-rank local phases (the owned-block numerics plus the
// counter charging) execute through the Machine's Backend, so a
// ThreadedBackend runs them in parallel.  Matrices must be square and
// non-empty (std::invalid_argument otherwise, naming the entry point);
// summa_2d_hoarding and summa_l3_ool2 also refuse, before anything is
// broadcast or charged, shapes whose resident data overflow L2.

#include "dist/machine.hpp"
#include "linalg/matrix.hpp"

namespace wa::dist {

void summa_2d(Machine& m, linalg::MatrixView<double> C,
              linalg::ConstMatrixView<double> A,
              linalg::ConstMatrixView<double> B);

void summa_2d_hoarding(Machine& m, linalg::MatrixView<double> C,
                       linalg::ConstMatrixView<double> A,
                       linalg::ConstMatrixView<double> B);

void summa_l3_ool2(Machine& m, linalg::MatrixView<double> C,
                   linalg::ConstMatrixView<double> A,
                   linalg::ConstMatrixView<double> B);

}  // namespace wa::dist
