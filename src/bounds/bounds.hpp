#pragma once
// wa::bounds -- the communication and write lower bounds of the paper,
// as callable formulas.  Benches and tests compare measured counters
// against these values.
//
// Conventions: M is the fast-memory size in words; all results are in
// words.  The "big-Omega" bounds are returned without their (unknown)
// constants; callers compare *ratios* or check attainment within an
// explicit constant factor, as the paper does.

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace wa::bounds {

// ---------------------------------------------------------------------
// Section 2: the two-level model.

/// Theorem 1: writes to fast memory >= (loads + stores) / 2.
inline std::uint64_t theorem1_min_fast_writes(std::uint64_t loads_words,
                                              std::uint64_t stores_words) {
  return (loads_words + stores_words + 1) / 2;
}

/// Minimal writes to slow memory: the output must land there.
inline std::uint64_t min_slow_writes(std::uint64_t output_words) {
  return output_words;
}

// ---------------------------------------------------------------------
// Classical linear algebra: W = Omega(#flops / sqrt(M))  [BDHS11].

/// Load/store lower bound for m-by-n times n-by-l classical matmul.
inline double matmul_traffic_lb(std::size_t m, std::size_t n, std::size_t l,
                                std::size_t M) {
  return double(m) * double(n) * double(l) / std::sqrt(double(M));
}

/// Load/store lower bound for n-by-n TRSM with n right-hand sides.
inline double trsm_traffic_lb(std::size_t n, std::size_t M) {
  return 0.5 * double(n) * double(n) * double(n) / std::sqrt(double(M));
}

// ---------------------------------------------------------------------
// Direct N-body: W = Omega(N^k / M^(k-1))  [DGKSY13, CDKSY13].

inline double nbody_traffic_lb(std::size_t N, unsigned k, std::size_t M) {
  return std::pow(double(N), double(k)) / std::pow(double(M), double(k - 1));
}

// ---------------------------------------------------------------------
// FFT: W = Omega(n log n / log M)  [HK81, ACS90].

inline double fft_traffic_lb(std::size_t n, std::size_t M) {
  return double(n) * std::log2(double(n)) / std::log2(double(M));
}

// ---------------------------------------------------------------------
// Strassen: W = Omega(n^w0 / M^(w0/2 - 1)), w0 = log2 7  [BDHS12].

inline double strassen_traffic_lb(std::size_t n, std::size_t M) {
  const double w0 = std::log2(7.0);
  return std::pow(double(n), w0) / std::pow(double(M), w0 / 2.0 - 1.0);
}

// ---------------------------------------------------------------------
// Section 3, Theorem 2: bounded reuse precludes write-avoiding.

/// Theorem 2(1): with out-degree bound d, an execution region doing
/// t loads of which N are input loads must do >= ceil((t - N)/d)
/// writes to slow memory.
inline std::uint64_t theorem2_min_slow_writes(std::uint64_t t_loads,
                                              std::uint64_t n_input_loads,
                                              unsigned d) {
  if (t_loads <= n_input_loads) return 0;
  return (t_loads - n_input_loads + d - 1) / d;
}

/// CDAG out-degree bounds used by Corollaries 2 and 3.
inline constexpr unsigned kFftOutDegree = 2;
inline constexpr unsigned kStrassenDecCOutDegree = 4;

// ---------------------------------------------------------------------
// Section 7: parallel bounds for classical n-by-n linear algebra on
// P processors with fast-memory M1 and replication factor c.

/// W1: per-processor output size = writes to the lowest level.
inline double parallel_w1(std::size_t n, std::size_t P) {
  return double(n) * double(n) / double(P);
}

/// W2: interprocessor words, Omega(n^2 / sqrt(P c)), 1 <= c <= P^(1/3).
inline double parallel_w2(std::size_t n, std::size_t P, double c) {
  return double(n) * double(n) / std::sqrt(double(P) * c);
}

/// W3: reads from L2 / writes to L1, Omega((n^3/P)/sqrt(M1)).
inline double parallel_w3(std::size_t n, std::size_t P, std::size_t M1) {
  return double(n) * double(n) * double(n) / double(P) /
         std::sqrt(double(M1));
}

/// Theorem 4: if interprocessor traffic attains W2, then writes to L3
/// must be Omega(n^2 / P^(2/3)) -- asymptotically more than W1.
inline double theorem4_min_l3_writes(std::size_t n, std::size_t P) {
  return double(n) * double(n) / std::pow(double(P), 2.0 / 3.0);
}

/// Largest legal replication factor for 2.5D algorithms.
inline double max_replication(std::size_t P) {
  return std::cbrt(double(P));
}

// ---------------------------------------------------------------------
// Section 5 helper: ideal-cache miss count for the cache-oblivious
// matmul of [FLPR99], in cache lines (the black reference line of
// Figure 2a).  M in bytes, L = line size in bytes, w = element bytes.

inline double co_matmul_ideal_misses(std::size_t l, std::size_t m,
                                     std::size_t n, std::size_t M_bytes,
                                     std::size_t L_bytes,
                                     std::size_t elem_bytes = 8) {
  const double base = std::sqrt(double(M_bytes) / (3.0 * double(elem_bytes)));
  const double t = double(m) * double(n) * std::ceil(double(l) / base) +
                   double(l) * double(n) * std::ceil(double(m) / base) +
                   double(l) * double(m) * std::ceil(double(n) / base);
  return t * double(elem_bytes) / double(L_bytes);
}

}  // namespace wa::bounds
