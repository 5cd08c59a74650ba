#pragma once
// wa::dist -- 2.5D matrix multiplication (Models 2.1/2.2 of Section
// 7): P = pr*pc*c processors arranged as c replicated layers of a
// pr x pc ProcessGrid.  Replicating the inputs c-fold cuts the
// per-processor network volume by ~sqrt(c); the options choose where
// the extra copies live and whether the data fits in L2 at all:
//
//   c          replication factor (1 = plain SUMMA geometry)
//   use_l3     stage the replicas through L3 (NVM) instead of DRAM --
//              the 2.5DMML3 rows of Table 1 (Model 2.1)
//   data_in_l3 Model 2.2: inputs/outputs live only in NVM, so every
//              word received over the network is staged through L3 --
//              this is the W2-attaining 2.5DMML3ooL2 variant whose NVM
//              writes must exceed W1 (Theorem 4).  It overrides
//              use_l3: bench_table2 and Theorem4.TradeoffIsRealized
//              set both
//   chunk_c2   granularity of the replication/reduction broadcasts,
//              in layer units: chunk_c2 = c sends each replica whole;
//              chunk_c2 = 1 sends c chunks of 1/c size (same words,
//              more messages).  A value not dividing c rounds to
//              ceil(c / chunk_c2) pieces.  0 means whole.  Each piece
//              carries the next words of the owned block, row-major.
//              bench_table1 sets it, positionally, for its 2.5DMML3
//              row: Mm25dOptions{c3, true, false, c2}, chunk_c2 being
//              the 2.5DMML2 row's replication factor c2.
//
// The geometry is ProcessGrid3D(P, c) (dist/grid.hpp): c must divide
// P, but P/c no longer has to be a perfect square (it is factored into
// the nearest pr x pc rectangle), c no longer has to divide the grid
// edge (layers take balanced shares of the SUMMA steps), and the grid
// no longer has to divide n (padded edge blocks).  Throws
// std::invalid_argument only when c does not divide P or the matrices
// are not square/equal/nonempty.
//
// The step loop behind mm_25d also runs the three SUMMA variants of
// dist/summa.hpp, at c = 1, each as one more choice of where a rank
// keeps C and the received panels.

#include <cstddef>

#include "dist/machine.hpp"
#include "linalg/matrix.hpp"

namespace wa::dist {

struct Mm25dOptions {
  std::size_t c = 1;
  bool use_l3 = false;
  bool data_in_l3 = false;
  std::size_t chunk_c2 = 0;
};

void mm_25d(Machine& m, linalg::MatrixView<double> C,
            linalg::ConstMatrixView<double> A,
            linalg::ConstMatrixView<double> B,
            const Mm25dOptions& opt = Mm25dOptions{});

}  // namespace wa::dist
