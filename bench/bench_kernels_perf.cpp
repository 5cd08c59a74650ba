// Microbenchmarks for the code the simulator actually spends its
// cycles in.  Three parts:
//
//   1. The LocalKernels seam: naive vs blocked GFLOP/s for the dense
//      per-rank kernels (gemm, trsm, syrk) at n = 128/256/512, and for
//      the two triangular solves, the gemm and the diagonal factor LU
//      runs at its panel widths, with a parity guard so a
//      fast-but-wrong kernel cannot pass unnoticed.  The heading names
//      the blocked gemm leg that ran (avx512, avx2 or portable).
//      This is the number the seam exists for -- per-rank numerics
//      should measure the hardware, not the loop nest.
//   2. The layers under a distributed step: the backend pool's round
//      trip for an empty 16-rank job, and ShmTransport's cost per
//      word for a serial send and for a 16-destination send_all on
//      that pool.
//   3. The simulator substrates (cache model event rate, traced and
//      explicit matmul drivers) that the Figure 2/5 replays lean on.
//
// With --json PATH the deterministic counters (flops, reps, simulator
// event counts) are drift-checked by CI; every timing key contains
// "wall" and is excluded.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cachesim/traced.hpp"
#include "core/matmul_explicit.hpp"
#include "core/matmul_traced.hpp"
#include "dist/backend.hpp"
#include "dist/transport.hpp"
#include "linalg/kernels.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace wa;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-@p reps wall time of @p fn (seconds).
template <typename Fn>
double best_of(std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

struct KernelCase {
  const char* name;
  std::uint64_t flops;  // per invocation, nominal
  // Run one invocation with the given table into `out` (re-seeded
  // identically each call so naive and blocked see the same inputs).
  void (*run)(const linalg::LocalKernels&, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b);
};

void run_gemm(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  k.gemm_acc(out.view(), a.view(), b.view(), 1.0);
}

void run_trsm(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  (void)b;
  k.trsm_left_upper(a.view(), out.view());
}

void run_syrk(const linalg::LocalKernels& k, linalg::Matrix<double>& out,
              const linalg::Matrix<double>& a,
              const linalg::Matrix<double>& b) {
  k.syrk_lower_acc(out.view(), a.view(), b.view());
}

void bench_local_kernels(bench::JsonReport& report, bench::Table& table) {
  const std::size_t sizes[] = {128, 256, 512};
  for (const std::size_t n : sizes) {
    // Fewer reps at larger n keeps the smoke run fast; best-of damps
    // scheduler noise on shared CI runners.
    const std::size_t reps = n <= 128 ? 8 : n <= 256 ? 4 : 2;
    const KernelCase cases[] = {
        {"gemm", 2ull * n * n * n, &run_gemm},
        {"trsm", 1ull * n * n * n, &run_trsm},
        {"syrk", 1ull * n * n * n, &run_syrk},
    };
    for (const KernelCase& kc : cases) {
      linalg::Matrix<double> a(n, n), b(n, n);
      linalg::fill_random(a, 1);
      linalg::fill_random(b, 2);
      if (kc.run == &run_trsm) {
        // A well-conditioned upper-triangular operand.
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < i; ++j) a(i, j) = 0.0;
          a(i, i) = 4.0 + std::abs(a(i, i));
        }
      }
      linalg::Matrix<double> base(n, n);
      linalg::fill_random(base, 3);

      linalg::Matrix<double> out_naive = base;
      kc.run(linalg::naive_kernels(), out_naive, a, b);
      linalg::Matrix<double> out_blocked = base;
      kc.run(linalg::blocked_kernels(), out_blocked, a, b);
      const double diff = linalg::max_abs_diff(out_naive, out_blocked);
      if (!(diff < 1e-8)) {
        bench::die("bench_kernels_perf: naive/blocked parity broke on " +
                   std::string(kc.name) + " n=" + std::to_string(n) +
                   " (max diff " + bench::fmt_d(diff, 3) + ")");
      }

      linalg::Matrix<double> out = base;
      const double t_naive = best_of(reps, [&] {
        out = base;
        kc.run(linalg::naive_kernels(), out, a, b);
      });
      const double t_blocked = best_of(reps, [&] {
        out = base;
        kc.run(linalg::blocked_kernels(), out, a, b);
      });
      const double gf_naive = double(kc.flops) / t_naive / 1e9;
      const double gf_blocked = double(kc.flops) / t_blocked / 1e9;

      const std::string cname =
          std::string(kc.name) + "_n" + std::to_string(n);
      report.add(cname, "flops", kc.flops);
      report.add(cname, "reps", std::uint64_t(reps));
      report.add(cname, "naive_gflops_wall", gf_naive);
      report.add(cname, "blocked_gflops_wall", gf_blocked);
      report.add(cname, "speedup_wall", t_naive / t_blocked);
      table.row({cname, std::to_string(n), bench::fmt_d(gf_naive),
                 bench::fmt_d(gf_blocked),
                 bench::fmt_d(t_naive / t_blocked) + "x"});
    }
  }

  // Panel-shaped symmetric products: the Gram matrices of the batched
  // Krylov solvers are tiny (m = 2s+1 basis columns or m = b <= 16
  // RHS) against a long inner dimension (the rank's local rows), a
  // shape the square cases above never reach.  The blocked table
  // routes these through the accumulator-chain panel leg.
  const std::size_t pm = 16;
  const std::size_t pks[] = {4096, 16384, 65536};
  for (const std::size_t pk : pks) {
    const std::size_t reps = pk <= 4096 ? 16 : pk <= 16384 ? 8 : 4;
    linalg::Matrix<double> a(pm, pk), b(pm, pk);
    linalg::fill_random(a, 4);
    linalg::fill_random(b, 5);
    linalg::Matrix<double> base(pm, pm);
    linalg::fill_random(base, 6);

    linalg::Matrix<double> out_naive = base;
    linalg::naive_kernels().syrk_lower_acc(out_naive.view(), a.view(),
                                           b.view());
    linalg::Matrix<double> out_blocked = base;
    linalg::blocked_kernels().syrk_lower_acc(out_blocked.view(), a.view(),
                                             b.view());
    // Looser bar than the square cases: reordered summation over a
    // 64k-term inner product legitimately drifts past 1e-8.
    const double diff = linalg::max_abs_diff(out_naive, out_blocked);
    if (!(diff < 1e-6)) {
      bench::die("bench_kernels_perf: naive/blocked parity broke on "
                 "syrk_panel k=" +
                 std::to_string(pk) + " (max diff " + bench::fmt_d(diff, 3) +
                 ")");
    }

    const std::uint64_t flops = std::uint64_t(pm) * (pm + 1) * pk;
    linalg::Matrix<double> out = base;
    const double t_naive = best_of(reps, [&] {
      out = base;
      linalg::naive_kernels().syrk_lower_acc(out.view(), a.view(), b.view());
    });
    const double t_blocked = best_of(reps, [&] {
      out = base;
      linalg::blocked_kernels().syrk_lower_acc(out.view(), a.view(),
                                               b.view());
    });
    const double gf_naive = double(flops) / t_naive / 1e9;
    const double gf_blocked = double(flops) / t_blocked / 1e9;

    const std::string cname = "syrk_panel_m16_k" + std::to_string(pk);
    report.add(cname, "flops", flops);
    report.add(cname, "reps", std::uint64_t(reps));
    report.add(cname, "naive_gflops_wall", gf_naive);
    report.add(cname, "blocked_gflops_wall", gf_blocked);
    report.add(cname, "speedup_wall", t_naive / t_blocked);
    table.row({cname, std::to_string(pk), bench::fmt_d(gf_naive),
               bench::fmt_d(gf_blocked),
               bench::fmt_d(t_naive / t_blocked) + "x"});
  }
}

/// Seconds per call of @p fn: the best of three runs, each at least
/// 10 ms of back-to-back calls.
template <typename Fn>
double per_call_s(Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < 3; ++r) {
    std::size_t calls = 0;
    const double t0 = now_s();
    double t = 0;
    do {
      fn();
      ++calls;
      t = now_s() - t0;
    } while (t < 0.01);
    best = std::min(best, t / double(calls));
  }
  return best;
}

/// One per-call rung: its flop count, both sides' call times, the
/// GF/s they imply and their ratio, as JSON keys and a table row.
void add_per_call_rung(bench::JsonReport& report, bench::Table& table,
                       const std::string& cname, std::size_t n,
                       std::uint64_t flops, double t_naive,
                       double t_blocked) {
  const double gf_naive = double(flops) / t_naive / 1e9;
  const double gf_blocked = double(flops) / t_blocked / 1e9;
  report.add(cname, "flops", flops);
  report.add(cname, "naive_us_wall", t_naive * 1e6);
  report.add(cname, "blocked_us_wall", t_blocked * 1e6);
  report.add(cname, "naive_gflops_wall", gf_naive);
  report.add(cname, "blocked_gflops_wall", gf_blocked);
  report.add(cname, "speedup_wall", t_naive / t_blocked);
  table.row({cname, std::to_string(n), bench::fmt_d(gf_naive),
             bench::fmt_d(gf_blocked),
             bench::fmt_d(t_naive / t_blocked) + "x"});
}

// The triangular solves both LU schedules run, at their shapes: the
// unit-lower U-panel solve and the right-upper L-panel solve, on views
// of stride 1024 like the e2e LU's n = 1024 matrix.  Width 32 is
// LL-LU's panel (one tiled diagonal block, bitwise the naive loops,
// so the guard is memcmp); width 128 is RL-LU's (two diagonal blocks
// and a gemm, so the guard is a tolerance).  Each timed call restores
// B from a copy first, on both sides.
void bench_lu_solves(bench::JsonReport& report, bench::Table& table) {
  constexpr std::size_t kStride = 1024;
  const struct {
    bool right;
    std::size_t w, other;  // width; right-hand sides (left) or rows (right)
  } cases[] = {{false, 32, 32},  {false, 32, 256},  {false, 128, 32},
               {false, 128, 256}, {true, 32, 32},   {true, 32, 128},
               {true, 128, 32},   {true, 128, 128}};
  for (const auto& c : cases) {
    // T: well conditioned either way (unit-lower below-diagonal
    // entries damped by 1/w, upper diagonal 4 + |.|).
    linalg::Matrix<double> t(c.w, kStride);
    linalg::fill_random(t, 7);
    for (std::size_t i = 0; i < c.w; ++i) {
      for (std::size_t j = 0; j < c.w; ++j) {
        if (c.right && j == i) t(i, j) = 4.0 + std::abs(t(i, j));
        if (!c.right && j < i) t(i, j) /= double(c.w);
      }
    }
    const std::size_t rows = c.right ? c.other : c.w;
    const std::size_t cols = c.right ? c.w : c.other;
    linalg::Matrix<double> base(rows, kStride);
    linalg::fill_random(base, 8);
    const auto tv = t.block(0, 0, c.w, c.w);
    const auto solve = [&](const linalg::LocalKernels& k,
                           linalg::Matrix<double>& b) {
      for (std::size_t i = 0; i < rows; ++i) {
        std::copy(&base(i, 0), &base(i, 0) + cols, &b(i, 0));
      }
      if (c.right) {
        k.trsm_right_upper(tv, b.block(0, 0, rows, cols));
      } else {
        k.trsm_left_unit_lower(tv, b.block(0, 0, rows, cols));
      }
    };

    linalg::Matrix<double> out_naive = base, out_blocked = base;
    solve(linalg::naive_kernels(), out_naive);
    solve(linalg::blocked_kernels(), out_blocked);
    const std::string cname =
        std::string(c.right ? "trsm_right_upper_w" : "trsm_left_unit_lower_w") +
        std::to_string(c.w) + (c.right ? "_rows" : "_rhs") +
        std::to_string(c.other);
    if (c.w <= linalg::kTriBlock) {
      if (std::memcmp(out_naive.data(), out_blocked.data(),
                      out_naive.size() * sizeof(double)) != 0) {
        bench::die("bench_kernels_perf: blocked " + cname +
                   " is not bitwise the naive solve");
      }
    } else {
      const double diff = linalg::max_abs_diff(out_naive, out_blocked);
      if (!(diff < 1e-8)) {
        bench::die("bench_kernels_perf: naive/blocked parity broke on " +
                   cname + " (max diff " + bench::fmt_d(diff, 3) + ")");
      }
    }

    linalg::Matrix<double> out = base;
    const double t_naive =
        per_call_s([&] { solve(linalg::naive_kernels(), out); });
    const double t_blocked =
        per_call_s([&] { solve(linalg::blocked_kernels(), out); });
    add_per_call_rung(report, table, cname, c.w,
                      std::uint64_t(c.w) * c.w * c.other, t_naive,
                      t_blocked);
  }
}

// The gemm and the diagonal factor both LU schedules run, at their
// shapes, on views of stride 1024 like the e2e LU's n = 1024 matrix:
// the gemm at 128x128x128 (RL-LU's trailing tile) and 32x32x32 (LL-LU's
// chain tile), naive against blocked, guarded by a tolerance; then
// lu_nopivot_unblocked at RL-LU's and LL-LU's panel widths, its
// portable instance in the naive column against the dispatched one
// (the AVX-512 instance where the CPU has it), guarded by memcmp.
// Each timed call restores its output from a copy first, on both
// sides.
void bench_lu_kernels(bench::JsonReport& report, bench::Table& table) {
  constexpr std::size_t kStride = 1024;
  for (const std::size_t n : {128u, 32u}) {
    linalg::Matrix<double> a(n, kStride), b(n, kStride), base(n, kStride);
    linalg::fill_random(a, 9);
    linalg::fill_random(b, 10);
    linalg::fill_random(base, 11);
    const auto gemm = [&](const linalg::LocalKernels& k,
                          linalg::Matrix<double>& c) {
      for (std::size_t i = 0; i < n; ++i) {
        std::copy(&base(i, 0), &base(i, 0) + n, &c(i, 0));
      }
      k.gemm_acc(c.block(0, 0, n, n), a.block(0, 0, n, n),
                 b.block(0, 0, n, n), -1.0);
    };
    const std::string cname = "gemm_lu_n" + std::to_string(n);
    linalg::Matrix<double> out_naive = base, out_blocked = base;
    gemm(linalg::naive_kernels(), out_naive);
    gemm(linalg::blocked_kernels(), out_blocked);
    const double diff = linalg::max_abs_diff(out_naive, out_blocked);
    if (!(diff < 1e-8)) {
      bench::die("bench_kernels_perf: naive/blocked parity broke on " +
                 cname + " (max diff " + bench::fmt_d(diff, 3) + ")");
    }
    linalg::Matrix<double> out = base;
    const double t_naive =
        per_call_s([&] { gemm(linalg::naive_kernels(), out); });
    const double t_blocked =
        per_call_s([&] { gemm(linalg::blocked_kernels(), out); });
    add_per_call_rung(report, table, cname, n, 2ull * n * n * n, t_naive,
                      t_blocked);
  }
  for (const std::size_t w : {32u, 128u}) {
    // Diagonally dominant, so no pivot is small.
    linalg::Matrix<double> base(w, kStride);
    linalg::fill_random(base, 12);
    for (std::size_t i = 0; i < w; ++i) base(i, i) += double(w);
    const auto factor = [&](void (*fn)(linalg::MatrixView<double>),
                            linalg::Matrix<double>& a) {
      for (std::size_t i = 0; i < w; ++i) {
        std::copy(&base(i, 0), &base(i, 0) + w, &a(i, 0));
      }
      fn(a.block(0, 0, w, w));
    };
    const std::string cname = "lu_nopivot_w" + std::to_string(w);
    linalg::Matrix<double> out_naive = base, out_blocked = base;
    factor(&linalg::detail::lu_nopivot_portable, out_naive);
    factor(&linalg::lu_nopivot_unblocked, out_blocked);
    if (std::memcmp(out_naive.data(), out_blocked.data(),
                    out_naive.size() * sizeof(double)) != 0) {
      bench::die("bench_kernels_perf: " + cname +
                 " is not bitwise the portable factor");
    }
    linalg::Matrix<double> out = base;
    const double t_naive = per_call_s(
        [&] { factor(&linalg::detail::lu_nopivot_portable, out); });
    const double t_blocked =
        per_call_s([&] { factor(&linalg::lu_nopivot_unblocked, out); });
    // Per pivot k: w-1-k divisions, then a multiply and a subtract on
    // each of the (w-1-k)^2 trailing entries.
    const std::uint64_t flops = std::uint64_t(w) * (w - 1) / 2 +
                                std::uint64_t(w - 1) * w * (2 * w - 1) / 3;
    add_per_call_rung(report, table, cname, w, flops, t_naive, t_blocked);
  }
}

/// The blocked gemm leg this binary runs on this CPU.  Printed in the
/// heading only: it differs between runners, and every JSON key that
/// is not a wall time is drift-checked at --tol 0.
const char* gemm_leg() {
  linalg::Matrix<double> c(1, 1), a(1, 1), b(1, 1);
  if (linalg::detail::gemm_blocked_avx512(c.view(), a.view(), b.view(), 1.0,
                                          false)) {
    return "avx512";
  }
  if (linalg::detail::gemm_blocked_simd(c.view(), a.view(), b.view(), 1.0,
                                        false)) {
    return "avx2";
  }
  return "portable";
}

void bench_comm_layers(bench::JsonReport& report, bench::Table& table) {
  constexpr std::size_t kRanks = 16, kThreads = 3;
  dist::ThreadedBackend pool(kThreads);
  std::vector<std::size_t> ranks(kRanks);
  std::iota(ranks.begin(), ranks.end(), std::size_t{0});
  // The pool's empty-job round trip: wake the workers, claim ranks
  // that do nothing, check in.  Every local phase and every send_all
  // batch pays at least this; 16 ranks is a whole-machine phase, 4 a
  // column-group phase (LL-LU's chain steps).
  const auto empty_jobs = [&](const char* name, std::size_t width) {
    const std::vector<std::size_t> job(ranks.begin(), ranks.begin() + width);
    const std::vector<std::size_t> caps = {1, 2};
    const dist::Backend::LocalFn empty = [](std::size_t, memsim::Hierarchy&) {};
    const dist::Backend::Sink drop = [](std::size_t,
                                        const memsim::Hierarchy&) {};
    const std::size_t jobs = 2000;
    pool.run(job, caps, empty, drop);  // starts the workers
    const double t = best_of(3, [&] {
      for (std::size_t j = 0; j < jobs; ++j) pool.run(job, caps, empty, drop);
    });
    const double us = t / double(jobs) * 1e6;
    report.add(name, "ranks", std::uint64_t(width));
    report.add(name, "threads", std::uint64_t(kThreads));
    report.add(name, "jobs", std::uint64_t(jobs));
    report.add(name, "us_per_job_wall", us);
    table.row({name, std::to_string(width), "-", "-",
               bench::fmt_d(us) + " us/job"});
  };
  empty_jobs("pool_empty_job", kRanks);
  empty_jobs("pool_empty_job_4", 4);
  // ShmTransport per word, on synthetic payloads of LL-LU's typical
  // refetch size: serial sends into one arena, then a ring of 16
  // transfers issued as one batch on the pool above.
  const std::size_t words = 4096;
  {
    dist::ShmTransport tp;
    tp.attach(kRanks);
    const std::size_t sends = 512;
    tp.send(1, 0, words, nullptr);  // grows the arena once
    const double t = best_of(3, [&] {
      for (std::size_t i = 0; i < sends; ++i) {
        tp.send(1 + i % (kRanks - 1), 0, words, nullptr);
      }
    });
    const double ns = t / double(sends * words) * 1e9;
    report.add("shm_send", "words", std::uint64_t(words));
    report.add("shm_send", "sends", std::uint64_t(sends));
    report.add("shm_send", "ns_per_word_wall", ns);
    table.row({"shm_send", std::to_string(words), "-", "-",
               bench::fmt_d(ns) + " ns/word"});
  }
  {
    dist::ShmTransport tp;
    tp.attach(kRanks);
    std::vector<dist::Transfer> ring(kRanks);
    for (std::size_t d = 0; d < kRanks; ++d) {
      ring[d] = {(d + 1) % kRanks, d, words};
    }
    const std::size_t batches = 32;
    tp.send_all(ring, pool);  // grows the arenas once
    const double t = best_of(3, [&] {
      for (std::size_t i = 0; i < batches; ++i) tp.send_all(ring, pool);
    });
    const double ns = t / double(batches * kRanks * words) * 1e9;
    report.add("shm_send_all_16", "words", std::uint64_t(words));
    report.add("shm_send_all_16", "transfers", std::uint64_t(kRanks));
    report.add("shm_send_all_16", "batches", std::uint64_t(batches));
    report.add("shm_send_all_16", "threads", std::uint64_t(kThreads));
    report.add("shm_send_all_16", "ns_per_word_wall", ns);
    table.row({"shm_send_all_16", std::to_string(words), "-", "-",
               bench::fmt_d(ns) + " ns/word"});
  }
}

void bench_substrates(bench::JsonReport& report, bench::Table& table) {
  // Cache-model event rate, sequential and (xorshift) random.
  {
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    const std::size_t accesses = 1 << 20;
    std::uint64_t addr = 0;
    const double t = best_of(2, [&] {
      for (std::size_t i = 0; i < accesses; ++i) {
        sim.read(addr, 8);
        addr = (addr + 8) % (1 << 22);
      }
    });
    report.add("cachesim_seq", "accesses", std::uint64_t(accesses));
    report.add("cachesim_seq", "maccesses_per_s_wall", accesses / t / 1e6);
    table.row({"cachesim_seq", "-", "-", "-",
               bench::fmt_d(accesses / t / 1e6) + " Ma/s"});
  }
  {
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    const std::size_t accesses = 1 << 20;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    const double t = best_of(2, [&] {
      for (std::size_t i = 0; i < accesses; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sim.read(x % (1 << 24), 8);
      }
    });
    report.add("cachesim_random", "accesses", std::uint64_t(accesses));
    report.add("cachesim_random", "maccesses_per_s_wall", accesses / t / 1e6);
    table.row({"cachesim_random", "-", "-", "-",
               bench::fmt_d(accesses / t / 1e6) + " Ma/s"});
  }
  // Trace-driven multilevel matmul: the dram_writebacks counter is
  // deterministic, so it doubles as a drift pin for the cache model.
  {
    const std::size_t n = 48;
    cachesim::CacheHierarchy sim(cachesim::nehalem_scaled(), 64);
    cachesim::AddressSpace as;
    core::TracedMat a(sim, as, n, n), b(sim, as, n, n), c(sim, as, n, n);
    const std::size_t bs[] = {16};
    const double t0 = now_s();
    core::traced_wa_matmul_multilevel(c, a, b, bs);
    const double t = now_s() - t0;
    report.add("traced_matmul_n48", "dram_writebacks", sim.dram_writebacks());
    report.add("traced_matmul_n48", "dram_fills", sim.dram_fills());
    report.add("traced_matmul_n48", "seconds_wall", t);
    table.row({"traced_matmul_n48", std::to_string(n), "-", "-",
               bench::fmt_u(sim.dram_writebacks()) + " wb"});
  }
  // Explicit-hierarchy matmul: store words are the WA pin.
  {
    const std::size_t n = 64;
    linalg::Matrix<double> a(n, n), b(n, n), c(n, n, 0.0);
    linalg::fill_random(a, 4);
    linalg::fill_random(b, 5);
    memsim::Hierarchy h({3 * 8 * 8, memsim::Hierarchy::kUnbounded});
    const double t0 = now_s();
    core::blocked_matmul_explicit(c.view(), a.view(), b.view(), 8, h,
                                  core::LoopOrder::kIJK);
    const double t = now_s() - t0;
    report.add("explicit_matmul_n64", "store_words", h.stores_words(0));
    report.add("explicit_matmul_n64", "load_words", h.loads_words(0));
    report.add("explicit_matmul_n64", "seconds_wall", t);
    table.row({"explicit_matmul_n64", std::to_string(n), "-", "-",
               bench::fmt_u(h.stores_words(0)) + " st"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv);
  const linalg::KernelImpl active = bench::env_kernels();
  std::printf(
      "local kernels: naive vs blocked (WA_KERNELS=%s active, blocked gemm "
      "leg %s)\n",
      linalg::kernels(active).name, gemm_leg());
  bench::Table table({"case", "n", "naive GF/s", "blocked GF/s", "ratio"});
  bench_local_kernels(report, table);
  bench_lu_solves(report, table);
  bench_lu_kernels(report, table);
  bench_comm_layers(report, table);
  bench_substrates(report, table);
  table.print();
  return 0;
}
