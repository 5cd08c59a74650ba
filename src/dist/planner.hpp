#pragma once
// wa::dist::Planner -- the Section 7 deployment planner as an object.
//
// The Model 2.1 speedup ratio and the Model 2.2 dominant-beta-cost
// formulas (dist/cost_model.hpp) are free functions; the Planner
// binds them to a machine description (HwParams) and a problem shape
// and answers the questions an operator actually asks:
//
//   * Model 2.1 -- data fits in DRAM: is staging c3 > c2 input
//     replicas through NVM predicted to beat keeping c2 replicas in
//     DRAM?  (replication_ratio / should_replicate)
//   * Model 2.2 -- data only fits in NVM: run the network-optimal
//     2.5DMML3ooL2 or the NVM-write-optimal SUMMAL3ooL2?  (matmul)
//     LL-LUNP or RL-LUNP for LU?  (lu)
//
// Every verdict carries both predicted costs, so callers can print
// "how close was it" rather than just the winner.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "dist/cost_model.hpp"
#include "dist/krylov.hpp"
#include "dist/partition.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {

/// Problem shape the planner reasons about: matrix edge, processor
/// count, per-processor DRAM capacity (the Model 2.2 block size), and
/// per-processor NVM capacity (bounds how many 2.5D replicas fit).
struct PlannerProblem {
  std::size_t n = 1 << 15;
  std::size_t P = 1 << 12;
  std::size_t M2 = 1 << 22;
  std::size_t M3 = 1 << 26;
};

/// Closed-form replication factor for the 2.5D path: among c with
/// c | P and c^3 <= P (the 2.5D grid constraint) whose 3c n^2 / P
/// replica blocks (A, B, and the partial C) fit in the M3 words of
/// NVM, pick the c minimizing the dominant beta cost of 2.5DMML3ooL2
/// -- the memory/word trade-off of Eq. (2): words shrink as
/// 1/sqrt(Pc), memory grows linearly in c.
inline std::size_t choose_replication(std::size_t n, std::size_t P,
                                      std::size_t M2, std::size_t M3,
                                      const HwParams& hw) {
  std::size_t best_c = 1;
  double best_t = dom_beta_cost_25dmml3ool2(n, P, M2, 1, hw);
  for (std::size_t c = 2; c * c * c <= P; ++c) {
    if (P % c != 0) continue;
    if (3.0 * double(c) * double(n) * double(n) / double(P) > double(M3)) {
      continue;
    }
    const double t = dom_beta_cost_25dmml3ool2(n, P, M2, c, hw);
    if (t < best_t) {
      best_t = t;
      best_c = c;
    }
  }
  return best_c;
}

/// One planning verdict: the predicted-best algorithm plus both
/// modelled execution times, in seconds.
struct PlannerChoice {
  std::string algorithm;       ///< predicted winner
  double predicted_seconds;    ///< its modelled time
  double alternative_seconds;  ///< the loser's modelled time

  /// Predicted gain from following the advice (>= 1).
  double speedup() const { return alternative_seconds / predicted_seconds; }
};

class Planner {
 public:
  Planner(HwParams hw, PlannerProblem problem)
      : hw_(hw), problem_(problem) {}

  const HwParams& hw() const { return hw_; }
  const PlannerProblem& problem() const { return problem_; }

  /// Model 2.1: predicted speedup of 2.5DMML3 with c3 NVM-staged
  /// replicas over 2.5DMML2 with c2 DRAM replicas (the paper's
  /// sqrt(c3/c2) * betaNW / (betaNW + 1.5 beta23 + beta32) ratio).
  double replication_ratio(std::size_t c2, std::size_t c3) const {
    return model21_speedup_ratio(c2, c3, hw_);
  }

  /// Model 2.1 verdict: ratio > 1 means replicate through NVM.
  bool should_replicate(std::size_t c2, std::size_t c3) const {
    return replication_ratio(c2, c3) > 1.0;
  }

  /// Model 2.2 matmul: network-optimal 2.5DMML3ooL2 (with @p c3
  /// replicas) vs NVM-write-optimal SUMMAL3ooL2 (Eqs. (2)/(3)).
  PlannerChoice matmul(std::size_t c3) const {
    const double t25 =
        dom_beta_cost_25dmml3ool2(problem_.n, problem_.P, problem_.M2, c3,
                                  hw_);
    const double tsu =
        dom_beta_cost_summal3ool2(problem_.n, problem_.P, problem_.M2, hw_);
    return t25 < tsu ? PlannerChoice{"2.5DMML3ooL2", t25, tsu}
                     : PlannerChoice{"SUMMAL3ooL2", tsu, t25};
  }

  /// The replication factor the 2.5D path should deploy with under
  /// this machine's NVM capacity (see choose_replication).
  std::size_t best_replication() const {
    return choose_replication(problem_.n, problem_.P, problem_.M2,
                              problem_.M3, hw_);
  }

  /// Model 2.2 LU: write-avoiding LL-LUNP vs network-optimal RL-LUNP.
  PlannerChoice lu() const {
    const double ll = lu_ll_cost(problem_.n, problem_.P, problem_.M2).time(hw_);
    const double rl = lu_rl_cost(problem_.n, problem_.P, problem_.M2).time(hw_);
    return ll < rl ? PlannerChoice{"LL-LUNP", ll, rl}
                   : PlannerChoice{"RL-LUNP", rl, ll};
  }

 private:
  HwParams hw_;
  PlannerProblem problem_;
};

// ---------------------------------------------------------------------
// Request-level Krylov autotuning: a batch driver serving many solves
// against a few recurring operators asks, per request, "which solver
// configuration is predicted fastest for THIS operator at THIS batch
// size" -- and must not re-plan (or re-partition) on every request
// for an operator it has already seen.

/// Identity of an operator for plan caching: dimensions, nnz, and the
/// generator metadata (mesh dims, stencil radius, cross pattern) that
/// determine the partition geometry and halo volumes.  Two matrices
/// with equal fingerprints get the same plan.
struct MatrixFingerprint {
  std::size_t n = 0, nnz = 0;
  std::size_t nx = 0, ny = 0, nz = 0, radius = 0;
  bool cross = false;

  auto tie() const { return std::tie(n, nnz, nx, ny, nz, radius, cross); }
  friend bool operator==(const MatrixFingerprint& a,
                         const MatrixFingerprint& b) {
    return a.tie() == b.tie();
  }
  friend bool operator<(const MatrixFingerprint& a,
                        const MatrixFingerprint& b) {
    return a.tie() < b.tie();
  }
};

inline MatrixFingerprint fingerprint(const sparse::Csr& A) {
  return MatrixFingerprint{A.n, A.nnz(), A.nx, A.ny, A.nz, A.radius, A.cross};
}

/// One tuned solver configuration: everything the batch driver needs
/// to dispatch a request, plus the modelled per-iteration per-solve
/// time that won the comparison.
struct KrylovPlan {
  std::string algorithm;  ///< "cg" or "ca-cg"
  PartitionKind partition = PartitionKind::kRows1D;
  std::size_t s = 0;  ///< 0 for classical CG
  krylov::CaCgMode mode = krylov::CaCgMode::kStreaming;
  krylov::CaCgBasis basis = krylov::CaCgBasis::kMonomial;
  std::string backend;       ///< "serial" or "threaded"
  double predicted_seconds;  ///< modelled time per CG step per solve

  /// CA-CG options matching the plan (meaningless for "cg").
  krylov::CaCgOptions options() const {
    krylov::CaCgOptions opt;
    opt.s = s;
    opt.mode = mode;
    opt.basis = basis;
    return opt;
  }
};

/// Plans batched Krylov requests from the closed forms in
/// dist/krylov.hpp weighted by the HwParams betas, caching the
/// verdict per (operator fingerprint, P, batch size).  Candidates:
/// classical CG, and CA-CG {stored, streaming} x s in {2, 4, 8, 16}
/// (Newton basis past s = 8, where the monomial basis degrades).
class KrylovAutotuner {
 public:
  explicit KrylovAutotuner(HwParams hw) : hw_(hw) {}

  /// The tuned plan for solving @p A with batches of @p b RHS on
  /// @p P ranks.  First request per fingerprint runs the model sweep
  /// (a miss); repeats are served from the cache (hits).  For a
  /// geometry-free operator the miss also builds the GraphPartition
  /// once and counts its exact s-hop ghost words at every candidate
  /// depth -- the closed-form halo models assume a mesh, so the graph
  /// candidates are scored from sparsity, not a formula.  Repeat
  /// requests never re-partition: the counted words are folded into
  /// the cached plan's score.
  const KrylovPlan& plan(const sparse::Csr& A, std::size_t P,
                         std::size_t b) {
    const Key key{fingerprint(A), P, std::max<std::size_t>(1, b)};
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      return it->second;
    }
    ++misses_;
    std::map<std::size_t, double> counted;
    if (!A.has_geometry()) {
      // CG's depth 1, and each candidate s's p and r depths.
      const GraphPartition gp(ProcessGrid(P), A);
      for (const std::size_t depth : {1, 2, 3, 4, 7, 8, 15, 16}) {
        counted[depth] = double(gp.max_recv_words(depth));
      }
    }
    return cache_.emplace(key, tune(key, counted)).first->second;
  }

  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  struct Key {
    MatrixFingerprint fp;
    std::size_t P, b;
    friend bool operator<(const Key& a, const Key& b2) {
      return std::tie(a.fp, a.P, a.b) < std::tie(b2.fp, b2.P, b2.b);
    }
  };

  /// Ghost words an interior rank receives from one depth-e exchange
  /// under the partition the fingerprint implies.  @p counted carries
  /// the exact per-depth GraphPartition receive counts when the
  /// operator has no geometry (empty otherwise).
  double ghost_words(const MatrixFingerprint& fp, std::size_t P,
                     std::size_t e,
                     const std::map<std::size_t, double>& counted) const {
    const PartitionKind kind = auto_partition_kind(fp.nx, fp.ny, fp.nz);
    if (kind == PartitionKind::kGraph) {
      const auto it = counted.find(e);
      if (it != counted.end()) return it->second;
    }
    if (kind == PartitionKind::kBlocks2D) {
      const ProcessGrid g = best_grid_2d(P, fp.nx, fp.ny);
      return fp.cross ? halo_words_2d_diamond_model(fp.nx, fp.ny, fp.nz,
                                                    g.rows(), g.cols(), e)
                      : halo_words_2d_model(fp.nx, fp.ny, fp.nz, g.rows(),
                                            g.cols(), e);
    }
    return halo_words_1d_model(fp.n, P, e);
  }

  /// Modelled time per CG step per solve of one candidate, priced by
  /// HwParams::time like every other model here: the W12 write stream
  /// and the per-RHS vector reads are flat in b; the A-word stream and
  /// the per-event message latency amortize as 1/b (the batched-solver
  /// counters pin these shapes -- see tests/krylov_batch_test.cpp).
  double step_cost(const MatrixFingerprint& fp, std::size_t P,
                   std::size_t b, std::size_t s, krylov::CaCgMode mode,
                   const std::map<std::size_t, double>& counted) const {
    const double n = double(fp.n), Pd = double(P), bd = double(b);
    const double osz = n / Pd;
    const double nnz_rank = double(fp.nnz) / Pd;
    const double rounds = double(Machine::bcast_rounds(P));
    // Effective exchange radius: graph fingerprints carry radius == 0
    // but every level of the graph partition's s-hop dependency still
    // advances one hop, so ghost depths scale with max(1, radius).
    const std::size_t re = std::max<std::size_t>(1, fp.radius);
    if (s == 0) {  // classical CG
      const double w = cg_model_writes_per_step(fp.n, P);
      const double reads = 2.0 * nnz_rank / bd + 11.0 * osz;
      const double nw = 2.0 * ghost_words(fp, P, re, counted) +
                        2.0 * rounds * 2.0;
      const double msgs = (2.0 + 2.0 * 2.0 * rounds) / bd;
      return hw_.time(msgs, nw, reads, w, 0.0, 0.0);
    }
    const double sd = double(s);
    const double mm = 2.0 * sd + 1.0;
    const double passes = mode == krylov::CaCgMode::kStreaming ? 2.0 : 1.0;
    const double w = cacg_model_writes_per_step(fp.n, P, s, mode);
    // A-words per outer: each of the 2s-1 basis levels re-streams the
    // rank's rows (values + column indices), plus the ghost margin of
    // the closed form -- its rows beyond (2s-1) levels of owned rows.
    const double margin =
        cacg_model_awords_per_outer(fp.n, P, s, re) -
        (2.0 * sd - 1.0) * cacg_model_awords_per_outer(fp.n, P, 1, re);
    const double awords =
        passes * ((2.0 * sd - 1.0) * 2.0 * nnz_rank + margin);
    const double reads = awords / bd + (2.0 * mm + 5.0) * osz;
    const double nw = cacg_model_network_words_per_outer(
        P, s, ghost_words(fp, P, s * re, counted),
        ghost_words(fp, P, (s - 1) * re, counted));
    const double msgs = (2.0 + 2.0 * 2.0 * rounds) / bd;
    return hw_.time(msgs / sd, nw / sd, reads / sd, w, 0.0, 0.0);
  }

  KrylovPlan tune(const Key& key,
                  const std::map<std::size_t, double>& counted) const {
    KrylovPlan best;
    best.algorithm = "cg";
    best.partition = auto_partition_kind(key.fp.nx, key.fp.ny, key.fp.nz);
    best.backend = key.P >= 4 ? "threaded" : "serial";
    best.s = 0;
    best.predicted_seconds = step_cost(key.fp, key.P, key.b, 0,
                                       krylov::CaCgMode::kStored, counted);
    for (const std::size_t s : {2, 4, 8, 16}) {
      // On counted (geometry-free) operators, a dependency closure
      // that stopped growing between depth s/2 and depth s has
      // saturated: the deeper basis ships the same halo and only
      // amortizes the allreduce, while its longer polynomial chain is
      // exactly the fragile regime on fast-mixing spectra -- a risk
      // the cost model does not price.  Skip such candidates.
      if (key.fp.nx == 0) {
        const auto deep = counted.find(s);
        const auto half = counted.find(s / 2);
        if (deep != counted.end() && half != counted.end() &&
            deep->second <= half->second) {
          continue;
        }
      }
      for (const auto mode :
           {krylov::CaCgMode::kStored, krylov::CaCgMode::kStreaming}) {
        const double t =
            step_cost(key.fp, key.P, key.b, s, mode, counted);
        if (t < best.predicted_seconds) {
          best.algorithm = "ca-cg";
          best.s = s;
          best.mode = mode;
          best.basis = s > 8 ? krylov::CaCgBasis::kNewton
                             : krylov::CaCgBasis::kMonomial;
          best.predicted_seconds = t;
        }
      }
    }
    return best;
  }

  HwParams hw_;
  std::map<Key, KrylovPlan> cache_;
  std::size_t hits_ = 0, misses_ = 0;
};

}  // namespace wa::dist
