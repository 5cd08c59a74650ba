#pragma once
// wa::dist -- closed-form per-processor communication models for the
// Section 7 parallel matmul and LU variants (Tables 1 and 2 of the
// paper), plus the Model 2.1 "is NVM-assisted replication worth it?"
// planner ratio and the dominant-beta-cost formulas of Eqs. (2)/(3).
//
// Only leading terms are kept, as in the paper: benches compare these
// predictions against the counters measured by executing the
// algorithms on the virtual Machine; tests check orderings and
// ratios, not absolute agreement.

#include <cmath>
#include <cstddef>

#include "dist/machine.hpp"

namespace wa::dist {

/// Leading-term words/messages per processor, one row of Table 1/2.
struct MmCostModel {
  double nw_words = 0, nw_msgs = 0;    ///< network
  double l3r_words = 0, l3r_msgs = 0;  ///< L3 -> L2
  double l3w_words = 0, l3w_msgs = 0;  ///< L2 -> L3
  double l2r_words = 0, l2r_msgs = 0;  ///< L2 -> L1
  double l2w_words = 0, l2w_msgs = 0;  ///< L1 -> L2

  /// Modelled alpha-beta execution time.
  double time(const HwParams& hw) const {
    return hw.time(nw_msgs, nw_words, l3r_words, l3w_words, l2r_words,
                   l2w_words);
  }
};

// ---------------------------------------------------------------------
// Table 1 (Model 1 / 2.1): data fits in L2; the only L3 traffic is
// the optional staging of extra replicas through NVM.

/// Classical 2D SUMMA, everything resident in L2.
inline MmCostModel table1_2dmml2(std::size_t n, std::size_t P,
                                 std::size_t M1) {
  const double nd = double(n), Pd = double(P);
  const double s = std::sqrt(Pd);
  MmCostModel m;
  m.nw_words = 2.0 * nd * nd / s;
  m.nw_msgs = 2.0 * s * std::log2(std::max(2.0, s));
  m.l2r_words = 2.0 * nd * nd * nd / Pd / std::sqrt(double(M1));
  m.l2r_msgs = m.l2r_words / double(M1);
  m.l2w_words = nd * nd / s;  // C written back once per SUMMA step: W2
  m.l2w_msgs = s;
  return m;
}

/// 2.5D with c replicas held in DRAM (no NVM traffic).
inline MmCostModel table1_25dmml2(std::size_t n, std::size_t P,
                                  std::size_t M1, std::size_t c) {
  const double nd = double(n), Pd = double(P), cd = double(c);
  MmCostModel m;
  m.nw_words = 3.0 * nd * nd / std::sqrt(Pd * cd);
  m.nw_msgs = 3.0 * std::sqrt(Pd / (cd * cd * cd)) *
              std::log2(std::max(2.0, std::sqrt(Pd / cd)));
  m.l2r_words = 2.0 * nd * nd * nd / Pd / std::sqrt(double(M1));
  m.l2r_msgs = m.l2r_words / double(M1);
  m.l2w_words = nd * nd / std::sqrt(Pd * cd);
  m.l2w_msgs = std::sqrt(Pd / (cd * cd * cd));
  return m;
}

/// 2.5D with c3 > c2 replicas staged through NVM (L3): the replication
/// traffic additionally crosses the L2<->L3 boundary (1.5x written --
/// replicas plus partial C -- and 1x read back).
inline MmCostModel table1_25dmml3(std::size_t n, std::size_t P,
                                  std::size_t M1, std::size_t M2,
                                  std::size_t c2, std::size_t c3) {
  MmCostModel m = table1_25dmml2(n, P, M1, c3);
  m.l3w_words = 1.5 * m.nw_words;
  m.l3r_words = m.nw_words;
  const double chunk = double(std::max<std::size_t>(1, M2));
  m.l3w_msgs = m.l3w_words / chunk;
  m.l3r_msgs = m.l3r_words / chunk;
  (void)c2;  // the c2-replica baseline only shifts lower-order terms
  return m;
}

// ---------------------------------------------------------------------
// Table 2 (Model 2.2): data only fits in L3 (NVM).

/// 2.5DMML3ooL2 attains the W2 network bound but must stage every
/// received word through NVM: L3 writes ~ network words >> W1.
inline MmCostModel table2_25dmml3ool2(std::size_t n, std::size_t P,
                                      std::size_t M1, std::size_t M2,
                                      std::size_t c3) {
  const double nd = double(n), Pd = double(P);
  // Same network/L1/L2 leading terms as the in-L2 2.5D row; only the
  // L3 staging differs.
  MmCostModel m = table1_25dmml2(n, P, M1, c3);
  m.l3w_words = m.nw_words + nd * nd / Pd;  // staged words + the output
  m.l3r_words = m.nw_words + 2.0 * nd * nd * nd / Pd / std::sqrt(double(M2));
  m.l3w_msgs = m.l3w_words / double(M2);
  m.l3r_msgs = m.l3r_words / double(M2);
  return m;
}

/// SUMMAL3ooL2 writes NVM only ~W1 = n^2/P words (the output) but
/// moves Theta(n^3 / (P sqrt(M2))) network words.
inline MmCostModel table2_summal3ool2(std::size_t n, std::size_t P,
                                      std::size_t M1, std::size_t M2) {
  const double nd = double(n), Pd = double(P);
  MmCostModel m;
  m.nw_words = 2.0 * nd * nd * nd / Pd / std::sqrt(double(M2));
  m.nw_msgs = m.nw_words / double(M2);
  m.l3w_words = nd * nd / Pd;
  m.l3w_msgs = 1.0;
  m.l3r_words = 2.0 * nd * nd / Pd;
  m.l3r_msgs = m.l3r_words / double(M2);
  m.l2r_words = 2.0 * nd * nd * nd / Pd / std::sqrt(double(M1));
  m.l2w_words = nd * nd / std::sqrt(Pd);
  return m;
}

// ---------------------------------------------------------------------
// LU without pivoting (Section 7.2), Model 2.2.

/// LL-LUNP (write-avoiding): each entry written to NVM once, at the
/// price of re-communicating prior panels every block column.
inline MmCostModel lu_ll_cost(std::size_t n, std::size_t P, std::size_t M2) {
  const double nd = double(n), Pd = double(P);
  const double s = std::sqrt(double(M2));
  MmCostModel m;
  m.nw_words = 2.0 * nd * nd * nd / (Pd * s);
  m.nw_msgs = m.nw_words / double(M2);
  m.l3r_words = 2.0 * nd * nd * nd / (Pd * s);
  m.l3w_words = nd * nd / Pd;
  m.l3w_msgs = 1.0;
  return m;
}

/// RL-LUNP (communication-avoiding): each panel broadcast once, but
/// the trailing matrix is written back to NVM every step.
inline MmCostModel lu_rl_cost(std::size_t n, std::size_t P, std::size_t M2) {
  const double nd = double(n), Pd = double(P);
  const double s = std::sqrt(double(M2));
  MmCostModel m;
  m.nw_words = 2.0 * nd * nd / std::sqrt(Pd);
  m.nw_msgs = nd / s;
  m.l3r_words = nd * nd * nd / (3.0 * Pd * s);
  m.l3w_words = nd * nd * nd / (3.0 * Pd * s) + nd * nd / Pd;
  m.l3w_msgs = nd / s;
  return m;
}

// ---------------------------------------------------------------------
// Model 2.1 planner (Section 7): dominant beta costs and the paper's
// speedup ratio
//   domBcost(2.5DMML2) / domBcost(2.5DMML3)
//     = sqrt(c3/c2) * betaNW / (betaNW + 1.5 beta23 + beta32).

/// 2.5D with c replicas in DRAM: pure network beta cost.
inline double dom_beta_cost_25dmml2(std::size_t n, std::size_t P,
                                    std::size_t c, const HwParams& hw) {
  return hw.beta_nw * 3.0 * double(n) * double(n) /
         std::sqrt(double(P) * double(c));
}

/// 2.5D with c replicas staged through NVM: every moved word also pays
/// 1.5x the NVM write and 1x the NVM read bandwidth.
inline double dom_beta_cost_25dmml3(std::size_t n, std::size_t P,
                                    std::size_t c, const HwParams& hw) {
  return (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32) * 3.0 * double(n) *
         double(n) / std::sqrt(double(P) * double(c));
}

/// The paper's Section 7 criterion: ratio > 1 means staging extra
/// replicas through NVM is predicted to pay off.
inline double model21_speedup_ratio(std::size_t c2, std::size_t c3,
                                    const HwParams& hw) {
  return std::sqrt(double(c3) / double(c2)) * hw.beta_nw /
         (hw.beta_nw + 1.5 * hw.beta_23 + hw.beta_32);
}

// ---------------------------------------------------------------------
// Model 2.2 dominant beta costs (Eqs. (2) and (3)): the Table 2
// crossover between the W2-attaining and W1-attaining algorithms as a
// function of NVM speed.

inline double dom_beta_cost_25dmml3ool2(std::size_t n, std::size_t P,
                                        std::size_t M2, std::size_t c3,
                                        const HwParams& hw) {
  (void)M2;  // the staged-word term dominates the local out-of-L2 term
  return (hw.beta_nw + hw.beta_23 + hw.beta_32) * 3.0 * double(n) *
         double(n) / std::sqrt(double(P) * double(c3));
}

inline double dom_beta_cost_summal3ool2(std::size_t n, std::size_t P,
                                        std::size_t M2, const HwParams& hw) {
  const double nd = double(n), Pd = double(P);
  return hw.beta_nw * 2.0 * nd * nd * nd / (Pd * std::sqrt(double(M2))) +
         (hw.beta_23 + hw.beta_32) * 2.0 * nd * nd / Pd;
}

}  // namespace wa::dist
