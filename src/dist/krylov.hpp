#pragma once
// wa::dist -- the Section 8 Krylov solvers on the distributed machine.
//
// The matrix and all n-vectors are partitioned over the ProcessGrid's
// ranks by a Partition (dist/partition.hpp): the block partition of
// grid-structured matrices (tiles over the nx x ny mesh, layered over
// nz), whose 1 x P case over the rows is the balanced 1-D row split,
// or the GraphPartition of general CSR matrices with no mesh geometry
// (BFS-grown owned index sets with exact s-hop dependency closures
// from the sparsity pattern).  Every outer step exchanges ghost zones
// with the neighbouring ranks -- p's at depth s * radius and r's at
// (s-1) * radius, since r's chain stops at level s-1, in one
// point-to-point send per neighbour pair on the Machine -- after which
// each rank can compute all 2s+1 basis columns of its own nodes
// locally (the matrix-powers optimization: redundant flops in the
// ghost region instead of s round-trips).  On the 1-D row split the
// radius is the matrix bandwidth (rows are the only geometry); on the
// 2-D partition it is the stencil radius the sparse::Csr generators
// record, so the exchange ships faces + corners of Theta(s*sqrt(n/P))
// words instead of the bandwidth-derived Theta(s*nx) row zones that
// degenerate into an all-to-all on 2-D/3-D stencils; on the graph
// partition each level is one adjacency hop, so the exchange ships
// exactly the counted hop closures minus the owned set -- no geometry
// and no bandwidth assumption at all.  Dot products and the Gram matrix
// G = [P,R]^T [P,R] are per-rank partial sums combined by a
// binomial-tree allreduce (Machine::reduce + bcast).
//
// The local basis/recovery phases -- real numerics plus charging --
// run under the execution Backend seam (Machine::run_local_each), so
// SerialSimBackend and ThreadedBackend produce byte-identical
// per-rank counters while the threaded backend parallelizes the
// per-rank blocks for wall-clock speedup.
//
// Each method has one body, the batched solver: cg and ca_cg are
// cg_batch and ca_cg_batch at nrhs = 1, so they agree with the batch
// at b = 1 -- iterates and every counter -- by construction.  CA-CG's
// matrix-powers work goes through a plan of basis chunks
// (the owned rows when stored; when streaming, slices of them sized so
// a chunk's basis fits in the Machine's L2, and no smaller than
// max(4 s radius, 256) rows), each holding the rows within s hops of
// its targets, found by one walk of A's pattern on every partition
// kind.  Each chunk is a local matrix built once per setup: its rows
// in (hop count, global row) order, so the rows within k hops are a
// prefix and the targets lead in ascending global order, and each
// nonzero's column as a 32-bit local slot (4 bytes per nonzero, for
// the rows within s-1 hops only; values are read from A on every
// call).  Basis column l of p holds the rows within s-l hops and of r
// those within s-1-l, exactly what its level writes and the next
// reads.  One basis builder, one basis+Gram phase and one recovery
// phase serve both storage modes on every partition.  One row kernel
// reads A for every phase: each walk of a row's nonzeros serves a
// group of up to kRhsGroup active RHS (below), over a rank's owned
// rows with A's columns or over a chunk's prefix with its local ones.
// Every allreduce carries the values it charges (dot products, packed
// Gram triangles) as its payload.
//
// Plan once, solve many: the plan, the owned row runs and the halo
// lists depend only on the partition, A's sparsity pattern, s, the
// mode and block_rows (with the Machine's P and M2), so the Machine
// keeps them between calls (Machine::slot), together with the solve's
// work vectors, grown to the widest batch seen.  A call with the same
// partition (by Partition::id), the same pattern (compared exactly),
// s, mode and block_rows reuses both; any other call rebuilds them and
// replaces what the Machine held.  A's values are read afresh on every
// call.  Building charges nothing, so a reused setup moves no counter
// and no bit.  Building a setup refuses a partition whose halos do not
// serve A (std::invalid_argument): a graph partition of another
// pattern, or a box partition A's entries reach past.
//
// The paper's W12 (words written to slow memory per CG step) maps to
// the per-rank l3_write channel here and is partition-independent
// (every rank owns n/P nodes either way): per rank per CG step,
//
//   classical CG           4 n/P              Theta(n/P)
//   CA-CG, kStored         (2s+4)/s * n/P     Theta(n/P)
//   CA-CG, kStreaming      3/s * n/P          Theta(n/(P s))
//
// i.e. the stored-basis variant stays Theta(n) in total while the
// streaming variant realizes the paper's Theta(s) write reduction.
// What the partition changes is the *network* channel: see the
// halo_words_*_model closed forms below.  On P = 1 both solvers are
// bitwise-equal to their shared-memory counterparts in src/krylov/
// (pinned by tests/dist_krylov_test.cpp).

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include <vector>

#include "dist/grid.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "krylov/batch.hpp"
#include "krylov/cacg.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {

/// Outcome of a distributed Krylov solve, single and batched: the
/// shared-memory solvers' result types.  Every word a solve moves
/// lives in the Machine's per-rank channel counters (W12 = l3_write),
/// not here.
using KrylovResult = krylov::SolveResult;
using KrylovBatchResult = krylov::BatchResult;

/// Distributed classical CG (Algorithm 6) on an explicit partition:
/// partitioned spmv with radius-deep ghost exchanges, allreduce dots.
/// cg_batch at nrhs = 1; b and x must hold A.n words
/// (std::invalid_argument otherwise).
KrylovResult cg(Machine& m, const Partition& part, const sparse::Csr& A,
                std::span<const double> b, std::span<double> x,
                std::size_t max_iters, double tol);

/// Distributed s-step CA-CG (Algorithm 7 / §8) on an explicit
/// partition, kStored or kStreaming, monomial or Newton basis --
/// semantics of the options match the shared-memory krylov::ca_cg.
/// ca_cg_batch at nrhs = 1, with the same size check as cg.
KrylovResult ca_cg(Machine& m, const Partition& part, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const krylov::CaCgOptions& opt);

/// Convenience front doors: partition chosen from the matrix geometry
/// (make_partition kAuto -- 2-D blocks on 2-D/3-D meshes, 1-D rows on
/// 1-D meshes, the graph partition on matrices without geometry) on
/// m.nprocs() ranks.
KrylovResult cg(Machine& m, const sparse::Csr& A, std::span<const double> b,
                std::span<double> x, std::size_t max_iters, double tol);
KrylovResult ca_cg(Machine& m, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const krylov::CaCgOptions& opt);

/// Active right-hand sides one walk of A serves: every phase that
/// reads A (the CA-CG basis levels, the CG SpMV, the setup residual)
/// walks each row's nonzeros once for a group of up to kRhsGroup
/// RHS, each accumulating its own sum in A's stored column order.
/// A fixed width, chosen by measurement (README, "Batched solves"):
/// wider groups spill the per-RHS sums and column pointers out of
/// registers.
inline constexpr std::size_t kRhsGroup = 8;

/// Batched multi-RHS distributed solvers on column-major n x nrhs
/// panels (RHS j occupies [j*n, (j+1)*n) of B and X).  The b per-RHS
/// recurrences are fully independent -- every RHS's arithmetic is
/// bitwise-identical whatever else is in the batch, and finished
/// systems drop out without perturbing the others' bits -- but the
/// *shared* costs are paid once per batch: one walk of A per basis
/// level (or SpMV) for every kRhsGroup active RHS, charged once, one
/// ghost-exchange event per outer iteration shipping all active
/// panels together, and one allreduce event combining all active Gram
/// matrices / dot products.  Per-RHS vector words are charged per
/// RHS.  These are the solver bodies: cg and ca_cg above run them at
/// nrhs == 1.  The panels must hold at least n*nrhs words
/// (std::invalid_argument otherwise).
KrylovBatchResult cg_batch(Machine& m, const Partition& part,
                           const sparse::Csr& A, std::span<const double> B,
                           std::span<double> X, std::size_t nrhs,
                           std::size_t max_iters, double tol);
KrylovBatchResult ca_cg_batch(Machine& m, const Partition& part,
                              const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs,
                              const krylov::CaCgOptions& opt);
KrylovBatchResult cg_batch(Machine& m, const sparse::Csr& A,
                           std::span<const double> B, std::span<double> X,
                           std::size_t nrhs, std::size_t max_iters,
                           double tol);
KrylovBatchResult ca_cg_batch(Machine& m, const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs,
                              const krylov::CaCgOptions& opt);

/// Section 8 closed form: slow-memory words written per rank per CG
/// step by CA-CG (see file comment; partition-independent).
inline double cacg_model_writes_per_step(std::size_t n, std::size_t P,
                                         std::size_t s,
                                         krylov::CaCgMode mode) {
  const double per_rank = double(n) / double(P);
  if (mode == krylov::CaCgMode::kStored) {
    return (2.0 * double(s) + 4.0) / double(s) * per_rank;
  }
  return 3.0 / double(s) * per_rank;
}

/// Section 8 closed form: classical CG writes x, r, p, w once per
/// step -- 4 n/P words per rank.
inline double cg_model_writes_per_step(std::size_t n, std::size_t P) {
  return 4.0 * double(n) / double(P);
}

/// Ghost words an interior rank *receives* from one depth-@p e
/// exchange on the balanced 1-D row partition: two e-row zones,
/// clipped to the rest of the vector.  With the bandwidth-derived
/// depth e = s*bw of a 2-D/3-D stencil this saturates at n - n/P --
/// the halo blow-up the 2-D partition fixes.
inline double halo_words_1d_model(std::size_t n, std::size_t P,
                                  std::size_t e) {
  const double own = std::ceil(double(n) / double(P));
  return std::min(2.0 * double(e), std::max(0.0, double(n) - own));
}

/// Ghost words an interior rank receives from one depth-@p e exchange
/// on the 2-D block partition of an nx x ny x nz mesh over a pr x pc
/// grid: the tile dilated by e per side (faces + corners, clipped at
/// the mesh edges) minus the tile itself, whole nz pencils --
/// 2e(tx + ty) + 4e^2 nodes, i.e. Theta(s * sqrt(n/P)) for e = s*r.
inline double halo_words_2d_model(std::size_t nx, std::size_t ny,
                                  std::size_t nz, std::size_t pr,
                                  std::size_t pc, std::size_t e) {
  const double tx = std::ceil(double(nx) / double(pc));
  const double ty = std::ceil(double(ny) / double(pr));
  const double gx = std::min(tx + 2.0 * double(e), double(nx));
  const double gy = std::min(ty + 2.0 * double(e), double(ny));
  return double(nz) * (gx * gy - tx * ty);
}

/// Network words per rank per CA-CG outer iteration, per RHS: the
/// basis exchange of p at depth s*r and r at depth (s-1)*r (received
/// plus shipped -- symmetric for an interior rank) and the Gram +
/// residual allreduces (reduce then bcast, each charging ceil(log2 P)
/// rounds).  @p ghost_s and @p ghost_s1 are the words one exchange at
/// depth s*r and (s-1)*r receives, from a halo_words_*_model above, so
/// one formula serves every partition.  A batch of b RHS ships b times
/// the halo words in the same events; the allreduces carry each RHS's
/// values, so the per-solve value is flat in b.
inline double cacg_model_network_words_per_outer(std::size_t P,
                                                 std::size_t s,
                                                 double ghost_s,
                                                 double ghost_s1) {
  const double rounds = double(Machine::bcast_rounds(P));
  const double mm = 2.0 * double(s) + 1.0;
  const double gram = mm * (mm + 1.0) / 2.0;
  return 2.0 * (ghost_s + ghost_s1) + 2.0 * rounds * (gram + 1.0);
}

// ---- batched multi-RHS amortization models ------------------------------
//
// Honest per-solve accounting of the batched CA-CG splits the outer-
// iteration cost into two classes:
//
//  * Per-RHS words -- each solve's own iterate/basis vector traffic
//    (W12 writes, ghost words of its own panels, vector reads).
//    These are irreducible: the per-solve curve is FLAT in b, and the
//    batched solver's value must match the single-RHS closed forms
//    (cacg_model_writes_per_step, cacg_model_network_words_per_outer).
//
//  * Shared words/events -- the traversal of A's values + column
//    indices per basis level, and the per-outer message count (one
//    exchange event and one allreduce event per stage regardless of
//    b).  These are paid once per batch, so the per-solve curve is
//    the single-RHS cost divided by b -- the real 1/b amortization
//    the batch driver buys.

/// A-words (values + column indices) one interior rank reads per
/// stored-mode CA-CG outer iteration on the balanced 1-D partition of
/// a radius-@p r banded stencil: 2s-1 basis levels, each computing
/// the owned rows plus the ghost rows it depends on -- p's level l
/// within (s-l)*r rows per side, r's within (s-1-l)*r:
///   2(2r+1) * ((2s-1) * ceil(n/P) + 2r * (s-1)^2).
/// Streaming mode traverses A twice (pass 1 + fused recovery pass).
inline double cacg_model_awords_per_outer(std::size_t n, std::size_t P,
                                          std::size_t s, std::size_t r) {
  const double osz = std::ceil(double(n) / double(P));
  const double rows = (2.0 * double(s) - 1.0) * osz +
                      2.0 * double(r) * (double(s) - 1.0) * (double(s) - 1.0);
  return 2.0 * (2.0 * double(r) + 1.0) * rows;
}

/// Shared A-word stream per solve per outer iteration: the 1/b curve.
inline double cacg_batch_model_awords_per_solve(std::size_t n, std::size_t P,
                                                std::size_t s, std::size_t r,
                                                krylov::CaCgMode mode,
                                                std::size_t b) {
  const double passes = mode == krylov::CaCgMode::kStreaming ? 2.0 : 1.0;
  return passes * cacg_model_awords_per_outer(n, P, s, r) / double(b);
}

/// Machine-wide network messages per CA-CG outer iteration,
/// independent of the batch size: every halo transfer charges one
/// message to each endpoint, and the Gram and residual allreduces
/// each charge ceil(log2 P) rounds (reduce + bcast) to all P ranks.
/// Per solve this is the model divided by b -- the other genuinely
/// amortized channel.
inline double cacg_model_network_messages_per_outer(std::size_t P,
                                                    std::size_t transfers) {
  const double rounds = double(Machine::bcast_rounds(P));
  return 2.0 * double(transfers) + 4.0 * double(P) * rounds;
}

/// Ghost words an interior rank receives from one depth-@p e exchange
/// on the 2-D block partition when the stencil is a cross (5/7-point:
/// axis offsets only): the level-e dependency region is the *diamond*
/// gapx + gapy <= e, not the dilated box, so each of the four corner
/// wedges carries e(e-1)/2 nodes instead of e^2.  Face strips clip at
/// the mesh edges like the box model (hx/hy are the total x/y
/// overhang); the corner term clips against the box corner area.
inline double halo_words_2d_diamond_model(std::size_t nx, std::size_t ny,
                                          std::size_t nz, std::size_t pr,
                                          std::size_t pc, std::size_t e) {
  const double tx = std::ceil(double(nx) / double(pc));
  const double ty = std::ceil(double(ny) / double(pr));
  const double hx = std::min(2.0 * double(e), double(nx) - tx);
  const double hy = std::min(2.0 * double(e), double(ny) - ty);
  const double corners =
      std::min(2.0 * double(e) * (double(e) - 1.0), hx * hy);
  return double(nz) * (hx * ty + hy * tx + corners);
}

}  // namespace wa::dist
