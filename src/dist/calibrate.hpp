#pragma once
// wa::dist -- measured-vs-modeled calibration (the instrument side of
// the Transport seam).
//
// The cost model prices an algorithm as alpha * messages + beta *
// words per channel.  With a data-moving transport those same
// operations have *measurable* wall-clock, so the coefficients stop
// being assumptions: run a sweep of collectives with known
// (messages, words) footprints, record seconds, and least-squares-fit
// alpha and beta from the samples.  bench_calibrate drives this and
// feeds the fitted coefficients back into HwParams, so the
// SUMMA-vs-2.5D and stored-vs-streaming crossover predictions can be
// printed next to what the bytes actually did on this machine.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dist/machine.hpp"

namespace wa::dist {

/// One calibration observation: a communication pattern's footprint
/// in model units plus its measured wall-clock.
struct CommSample {
  double messages = 0.0;  ///< queue deliveries (alpha events)
  double words = 0.0;     ///< words moved (beta events)
  double seconds = 0.0;   ///< measured wall-clock
};

/// A fitted per-channel latency/bandwidth pair, with the fit residual
/// so callers can judge (and tests can bound) the fit quality.
struct AlphaBeta {
  double alpha = 0.0;     ///< s/message
  double beta = 0.0;      ///< s/word
  double residual = 0.0;  ///< root-mean-square seconds residual
};

/// Least-squares fit of seconds ~ alpha * messages + beta * words
/// over @p samples via the 2x2 normal equations, constrained to
/// alpha, beta >= 0 (a latency or bandwidth below zero is measurement
/// noise, not physics).  When the unconstrained solution has one
/// negative coefficient, that one is clamped to zero and the other is
/// refit alone (beta = sum(w*s)/sum(w*w), or alpha = sum(m*s)/sum(m*m)),
/// which is the constrained least-squares optimum.  Degenerate systems
/// (fewer than two samples, or all samples proportional) fall back to
/// a pure-bandwidth fit (alpha = 0).
AlphaBeta fit_alpha_beta(const std::vector<CommSample>& samples);

/// HwParams with the network channel replaced by measured
/// coefficients: alpha_nw/beta_nw from @p net, beta_32 (reads) and
/// beta_23 (writes) from @p mem_read_beta / @p mem_write_beta
/// (seconds per word of big-buffer memory streaming), beta_21 =
/// beta_12 = the L2 defaults scaled by the same read bandwidth ratio.
HwParams fitted_hw(const AlphaBeta& net, double mem_read_beta,
                   double mem_write_beta, HwParams base = HwParams{});

/// One row of the measured-vs-modeled table: an algorithm run's
/// modelled alpha-beta cost next to the wall-clock its transport
/// actually spent moving the bytes.
struct CalRow {
  const char* algo = "";
  std::size_t n = 0;
  double modeled_seconds = 0.0;
  double measured_seconds = 0.0;
};

/// Ratio guarded against a zero denominator (empty measurements).
double safe_ratio(double num, double den);

}  // namespace wa::dist
