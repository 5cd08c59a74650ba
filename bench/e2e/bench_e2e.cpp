// End-to-end benchmark program: runs one workload of the library on the
// threaded distributed machine and prints its raw measurements as one
// JSON object on the last line of stdout.  benchmark.py builds this
// program, runs it once per workload and pass, and turns the raw
// numbers into the metrics BENCHMARK.json lists.
//
//   bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//             [--trace-out PATH] [--smoke]
//
// Every input comes from --seed; the library sees only the generated
// inputs.  The load is a closed loop with one client: ops run back to
// back on one Machine whose ThreadedBackend has kThreads workers, so
// the pool plus the orchestration thread use kThreads + 1 cores.
//
// Untraced pass (--trace 0): cold starts (fresh partition + Machine +
// first op, the set-up samples), one warm-up op, then timed ops for
// --seconds.  Traced pass (--trace 1): the Machine's Backend and
// Transport are wrapped by TracingBackend / TracingTransport, which
// time every call into the two seams from outside the library; traced
// and untraced ops alternate so their ratio is the tracing overhead.
// A serial+sim reference run and kernel probes at the workload's
// shapes complete the per-layer numbers.
//
// Every op is checked: its result (LU residual on the first op, true
// Krylov residual on every op) and the bits of its output and of every
// rank's counters, which must equal the first op's.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/calibrate.hpp"
#include "dist/krylov.hpp"
#include "dist/lu.hpp"
#include "dist/machine.hpp"
#include "dist/partition.hpp"
#include "dist/transport.hpp"
#include "linalg/local_kernels.hpp"
#include "linalg/matrix.hpp"
#include "sparse/csr.hpp"

namespace {

using namespace wa;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kP = 16;
constexpr std::size_t kThreads = 3;
constexpr std::size_t kM3 = std::size_t(1) << 26;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over 64-bit words: the digest the determinism checks compare.
class Digest {
 public:
  void add(std::uint64_t w) {
    h_ ^= w;
    h_ *= 0x100000001b3ULL;
  }
  void add(const double* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t w = 0;
      std::memcpy(&w, p + i, sizeof w);
      add(w);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t counter_digest(const dist::Machine& m) {
  Digest d;
  for (std::size_t p = 0; p < m.nprocs(); ++p) {
    const dist::ProcTraffic& t = m.proc(p);
    for (const dist::ChanCount* c :
         {&t.nw, &t.l3_read, &t.l3_write, &t.l2_read, &t.l2_write}) {
      d.add(c->words);
      d.add(c->messages);
    }
  }
  return d.value();
}

// ---- tracing ---------------------------------------------------------------

/// Small dense id of the calling thread.  main() asks first, so the
/// orchestration thread is 0 and pool workers are 1..kThreads.
int worker_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

struct Span {
  const char* kind;
  std::uint64_t id;
  std::uint64_t parent;
  double t0, t1;  ///< seconds since the tracer's epoch
  long rank;      ///< -1 when the span belongs to no single rank
  int worker;
};

/// What the two seams did during one traced op.
struct OpLayers {
  double op_s = 0;
  std::uint64_t jobs = 0, rank_phases = 0, mem_events = 0, flops = 0;
  double backend_busy = 0, backend_work = 0, backend_crit = 0;
  std::uint64_t tr_calls = 0, tr_words = 0, tr_messages = 0, tr_verified = 0;
  double tr_busy = 0;
};

/// Spans and per-op layer totals.  Every method runs on the
/// orchestration thread: the wrappers record a job's rank spans after
/// the backend's done-barrier, never from the workers.  What an op
/// records is staged until end_op(), so an op that is not kept (the
/// warm-up, a failure) leaves no trace.
class Tracer {
 public:
  bool on() const { return on_; }
  double now() const { return seconds_between(epoch_, Clock::now()); }
  std::uint64_t new_id() { return ++last_id_; }
  std::uint64_t op_id() const { return op_id_; }
  OpLayers& layers() { return cur_; }

  void begin_op() {
    cur_ = OpLayers{};
    cur_self_.clear();
    span_mark_ = spans_.size();
    sample_mark_ = samples_.size();
    op_id_ = new_id();
    op_t0_ = now();
    on_ = true;
  }

  /// Closes the op span; a kept op's totals enter the per-op samples.
  void end_op(bool keep) {
    on_ = false;
    const double t1 = now();
    cur_.op_s = t1 - op_t0_;
    if (!keep) {
      spans_.resize(span_mark_);
      samples_.resize(sample_mark_);
      return;
    }
    span({"op", op_id_, 0, op_t0_, t1, -1, worker_id()});
    cur_self_["op"] += cur_.op_s - cur_.backend_busy - cur_.tr_busy;
    for (const auto& [kind, sec] : cur_self_) self_[kind] += sec;
    ops_.push_back(cur_);
  }

  /// Spans are kept for the first kSpanOps ops only: enough to read in
  /// a trace viewer, and the file stays a few MB.
  void span(const Span& s) {
    if (ops_.size() < kSpanOps) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  void add_self(const char* kind, double s) { cur_self_[kind] += s; }
  void add_sample(const dist::CommSample& c) { samples_.push_back(c); }

  const std::vector<OpLayers>& ops() const { return ops_; }
  const std::vector<dist::CommSample>& samples() const { return samples_; }
  const std::map<std::string, double>& self_seconds() const { return self_; }
  std::size_t dropped() const { return dropped_; }

  /// Chrome trace-event JSON (opens in Perfetto and chrome://tracing).
  void write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f, "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                    "\"tid\": 0, \"args\": {\"name\": \"orchestration\"}}");
    for (std::size_t t = 1; t <= kThreads; ++t) {
      std::fprintf(f, ",\n{\"ph\": \"M\", \"name\": \"thread_name\", "
                      "\"pid\": 1, \"tid\": %zu, \"args\": {\"name\": "
                      "\"pool worker %zu\"}}",
                   t, t);
    }
    for (const Span& s : spans_) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, \"rank\": %ld, "
                   "\"worker\": %d}}",
                   s.kind, layer_of(s.kind), s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                   s.worker, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.rank,
                   s.worker);
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
  }

 private:
  static constexpr std::size_t kSpanOps = 3;

  static const char* layer_of(const char* kind) {
    if (std::strncmp(kind, "backend", 7) == 0) return "dist.backend";
    if (std::strncmp(kind, "transport", 9) == 0) return "dist.transport";
    return "dist";
  }

  Clock::time_point epoch_ = Clock::now();
  bool on_ = false;
  std::uint64_t last_id_ = 0;
  std::uint64_t op_id_ = 0;
  double op_t0_ = 0;
  OpLayers cur_;
  std::map<std::string, double> cur_self_;
  std::size_t span_mark_ = 0, sample_mark_ = 0;
  std::vector<OpLayers> ops_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
  std::vector<dist::CommSample> samples_;
  std::map<std::string, double> self_;
};

/// Times every call into the execution seam: each job (run and
/// run_replicated), each rank's LocalFn with the worker that ran it,
/// and the Hierarchy counters the sink absorbs.
class TracingBackend final : public dist::Backend {
 public:
  TracingBackend(std::unique_ptr<dist::Backend> inner, Tracer& tr)
      : inner_(std::move(inner)), tr_(tr) {}

  const char* name() const override { return inner_->name(); }

  void run(const std::vector<std::size_t>& ranks,
           const std::vector<std::size_t>& capacities, const LocalFn& fn,
           const Sink& sink) override {
    // A phase issued from inside a rank's LocalFn runs inline as part
    // of that rank's span.
    if (!tr_.on() || in_job_) {
      inner_->run(ranks, capacities, fn, sink);
      return;
    }
    std::size_t top = 0;
    for (std::size_t r : ranks) top = std::max(top, r + 1);
    std::vector<Slot> slots(top);  // one writer per rank
    const LocalFn timed = [&](std::size_t r, memsim::Hierarchy& h) {
      const double t0 = tr_.now();
      fn(r, h);
      slots[r] = Slot{t0, tr_.now(), worker_id()};
    };
    const double t0 = tr_.now();
    {
      const JobScope job(in_job_);
      inner_->run(ranks, capacities, timed, counting(sink));
    }
    const double t1 = tr_.now();
    std::vector<std::pair<std::size_t, Slot>> done;
    done.reserve(ranks.size());
    for (std::size_t r : ranks) done.emplace_back(r, slots[r]);
    record(t0, t1, done);
  }

  void run_replicated(const std::vector<std::size_t>& ranks,
                      const std::vector<std::size_t>& capacities,
                      const PhaseFn& fn, const Sink& sink) override {
    if (!tr_.on() || in_job_) {
      inner_->run_replicated(ranks, capacities, fn, sink);
      return;
    }
    Slot slot;
    const PhaseFn timed = [&](memsim::Hierarchy& h) {
      const double t0 = tr_.now();
      fn(h);
      slot = Slot{t0, tr_.now(), worker_id()};
    };
    const double t0 = tr_.now();
    {
      const JobScope job(in_job_);
      inner_->run_replicated(ranks, capacities, timed, counting(sink));
    }
    const double t1 = tr_.now();
    record(t0, t1, {{std::size_t(-1), slot}});
  }

 private:
  struct Slot {
    double t0 = 0, t1 = 0;
    int worker = 0;
  };

  /// Marks a job in flight, also when it throws: a run() issued from
  /// inside one of its LocalFns is a nested phase, not a new job.
  class JobScope {
   public:
    explicit JobScope(std::atomic<bool>& flag) : flag_(flag) { flag_ = true; }
    ~JobScope() { flag_ = false; }
    JobScope(const JobScope&) = delete;
    JobScope& operator=(const JobScope&) = delete;

   private:
    std::atomic<bool>& flag_;
  };

  Sink counting(const Sink& sink) {
    return [this, &sink](std::size_t r, const memsim::Hierarchy& h) {
      OpLayers& l = tr_.layers();
      for (std::size_t s = 0; s + 1 < h.levels(); ++s) {
        l.mem_events += h.loads_messages(s) + h.stores_messages(s);
      }
      l.flops += h.flops();
      sink(r, h);
    };
  }

  void record(double t0, double t1,
              const std::vector<std::pair<std::size_t, Slot>>& done) {
    const std::uint64_t id = tr_.new_id();
    tr_.span({"backend.run", id, tr_.op_id(), t0, t1, -1, worker_id()});
    double work = 0;
    std::map<int, double> per_worker;
    std::vector<std::pair<double, double>> iv;
    for (const auto& [rank, s] : done) {
      tr_.span({"backend.rank", tr_.new_id(), id, s.t0, s.t1,
                rank == std::size_t(-1) ? -1L : long(rank), s.worker});
      work += s.t1 - s.t0;
      per_worker[s.worker] += s.t1 - s.t0;
      iv.emplace_back(s.t0, s.t1);
    }
    // Self time of the job span: its duration minus the union of the
    // rank spans it covers (ranks on different workers overlap).
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    double crit = 0;
    for (const auto& [w, s] : per_worker) crit = std::max(crit, s);

    OpLayers& l = tr_.layers();
    ++l.jobs;
    l.rank_phases += done.size();
    l.backend_busy += t1 - t0;
    l.backend_work += work;
    l.backend_crit += crit;
    tr_.add_self("backend.run", (t1 - t0) - covered);
    tr_.add_self("backend.rank", work);
  }

  std::unique_ptr<dist::Backend> inner_;
  Tracer& tr_;
  std::atomic<bool> in_job_{false};
};

/// Times every call into the data-movement seam and takes the
/// transport's stats() deltas around it: one calibration sample per
/// call.
class TracingTransport final : public dist::Transport {
 public:
  TracingTransport(std::unique_ptr<dist::Transport> inner, Tracer& tr)
      : inner_(std::move(inner)), tr_(tr) {}

  const char* name() const override { return inner_->name(); }
  bool moves_data() const override { return inner_->moves_data(); }
  void attach(std::size_t P) override { inner_->attach(P); }
  dist::TransportStats stats() const override { return inner_->stats(); }

  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override {
    timed("transport.send", src,
          [&] { inner_->send(src, dst, words, payload); });
  }
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload) override {
    timed("transport.bcast", group.empty() ? 0 : group.front(),
          [&] { inner_->bcast(group, words, payload); });
  }
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload) override {
    timed("transport.reduce", group.empty() ? 0 : group.front(),
          [&] { inner_->reduce(group, words, payload); });
  }

 private:
  template <class F>
  void timed(const char* kind, std::size_t rank, F&& call) {
    if (!tr_.on()) {
      call();
      return;
    }
    const dist::TransportStats before = inner_->stats();
    const double t0 = tr_.now();
    call();
    const double t1 = tr_.now();
    const dist::TransportStats after = inner_->stats();
    OpLayers& l = tr_.layers();
    ++l.tr_calls;
    l.tr_words += after.words - before.words;
    l.tr_messages += after.messages - before.messages;
    l.tr_verified += after.verified - before.verified;
    l.tr_busy += t1 - t0;
    tr_.add_sample({double(after.messages - before.messages),
                    double(after.words - before.words), t1 - t0});
    tr_.span({kind, tr_.new_id(), tr_.op_id(), t0, t1, long(rank),
              worker_id()});
    tr_.add_self(kind, t1 - t0);
  }

  std::unique_ptr<dist::Transport> inner_;
  Tracer& tr_;
};

// ---- workloads --------------------------------------------------------------

enum class Kind { kLuLeft, kLuRight, kCaCg, kCaCgBatch };

/// One workload; README.md gives the reason for each.
struct Spec {
  const char* name;
  Kind kind;
  bool shm;        ///< ShmTransport (else the charge-only SimTransport)
  std::size_t M1, M2;
  std::size_t n;   ///< LU order / graph vertices (poisson: unused)
  std::size_t b;   ///< LU panel width
  std::size_t s;   ///< LL batch / CA-CG steps per outer iteration
  std::size_t nrhs;
  krylov::CaCgMode mode;
  std::size_t outer;  ///< CA-CG outer iterations per op, s steps each
};

// The two LUs share n, so their counters compare directly.  The
// right-looking one uses b = 128: its trailing gemm stays compute-bound
// on an 8 MB matrix, and its run-to-run spread on a shared host was a
// third of that at n = 2048, b = 64, whose updates stream 32 MB.
constexpr Spec kSpecs[] = {
    {"lu_ll_shm", Kind::kLuLeft, true, 3072, 65536, 1024, 32, 4, 0,
     krylov::CaCgMode::kStored, 0},
    {"lu_rl_sim", Kind::kLuRight, false, 3072, 65536, 1024, 128, 0, 0,
     krylov::CaCgMode::kStored, 0},
    {"cacg_poisson_shm", Kind::kCaCg, true, 192, 16384, 0, 0, 4, 1,
     krylov::CaCgMode::kStreaming, 24},
    {"cacg_batch_graph_shm", Kind::kCaCgBatch, true, 192, 16384, 16384, 0, 4,
     16, krylov::CaCgMode::kStored, 7},
};

/// Kernel throughput at the workload's own shapes; 0 where the
/// workload never calls the kernel.
struct Probes {
  double gemm = 0, trsm = 0, gram = 0, spmv = 0;
};

/// Median seconds per call of @p f over at least 50 ms of calls.
template <class F>
double time_call(F&& f) {
  f();  // first touch
  std::vector<double> t;
  const Clock::time_point start = Clock::now();
  while (t.size() < 5 || seconds_between(start, Clock::now()) < 0.05) {
    const Clock::time_point a = Clock::now();
    f();
    t.push_back(seconds_between(a, Clock::now()));
  }
  return median(t);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t& state) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = double(splitmix64(state) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  }
  return v;
}

/// The op a workload times, with its inputs and output checks.
class Problem {
 public:
  virtual ~Problem() = default;
  /// Per-machine state besides the inputs (the Krylov partition); part
  /// of every cold start.
  virtual void build_partition() {}
  /// Restores the op's output buffers (untimed).
  virtual void reset_outputs() = 0;
  virtual void solve(dist::Machine& m) = 0;
  /// Empty when the op just solved is correct; @p full adds the
  /// expensive checks run on the first op only.
  virtual std::string check(bool full) const = 0;
  virtual std::uint64_t output_digest() const = 0;
  virtual Probes probe() const = 0;
  virtual double nominal_flops() const { return 0; }
  virtual std::size_t nrhs() const { return 0; }
  virtual std::size_t iterations() const { return 0; }
  virtual std::size_t max_halo_words() const { return 0; }
};

class LuProblem final : public Problem {
 public:
  LuProblem(bool left, std::size_t n, std::size_t b, std::size_t s,
            std::uint64_t seed)
      : left_(left), n_(n), b_(b), s_(s), a0_(n, n), a_(n, n) {
    linalg::fill_random(a0_, unsigned(seed));
    for (std::size_t i = 0; i < n; ++i) a0_(i, i) += double(n);
    for (std::size_t i = 0; i < n * n; ++i) {
      amax_ = std::max(amax_, std::abs(a0_.data()[i]));
    }
  }

  void reset_outputs() override {
    std::copy(a0_.data(), a0_.data() + n_ * n_, a_.data());
  }

  void solve(dist::Machine& m) override {
    if (left_) {
      dist::lu_left_looking(m, a_.view(), b_, s_);
    } else {
      dist::lu_right_looking(m, a_.view(), b_);
    }
  }

  std::string check(bool full) const override {
    if (!full) return {};  // later ops are compared bitwise to the first
    linalg::Matrix<double> L(n_, n_), U(n_, n_), LU(n_, n_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < n_; ++j) {
        if (j < i) L(i, j) = a_(i, j);
        if (j >= i) U(i, j) = a_(i, j);
      }
      L(i, i) = 1.0;
    }
    linalg::active_kernels().gemm_acc(LU.view(), L.view(), U.view(), 1.0);
    const double err = linalg::max_abs_diff(LU, a0_);
    if (!(err <= 1e-9 * amax_)) {
      return "LU residual max|LU - A| = " + std::to_string(err);
    }
    return {};
  }

  std::uint64_t output_digest() const override {
    Digest d;
    d.add(a_.data(), n_ * n_);
    return d.value();
  }

  Probes probe() const override {
    const std::size_t q = n_ / 4;
    linalg::Matrix<double> A(q, b_), B(b_, q), C(q, q), T(b_, b_), X(b_, q);
    linalg::fill_random(A, 1);
    linalg::fill_random(B, 2);
    linalg::fill_random(T, 3);
    for (std::size_t i = 0; i < b_; ++i) T(i, i) = 1.0;
    const linalg::LocalKernels& k = linalg::active_kernels();
    Probes p;
    p.gemm = 2.0 * double(q) * double(q) * double(b_) / 1e9 /
             time_call([&] { k.gemm_acc(C.view(), A.view(), B.view(), 1e-9); });
    p.trsm = double(b_) * double(b_) * double(q) / 1e9 / time_call([&] {
               std::copy(B.data(), B.data() + b_ * q, X.data());
               k.trsm_left_unit_lower(T.view(), X.view());
             });
    return p;
  }

  double nominal_flops() const override {
    return 2.0 * double(n_) * double(n_) * double(n_) / 3.0;
  }

 private:
  bool left_;
  std::size_t n_, b_, s_;
  linalg::Matrix<double> a0_, a_;
  double amax_ = 0;
};

/// Every RHS must reach this true relative residual in the op's fixed
/// number of steps.
constexpr double kKrylovTol = 1e-9;

/// The small-world graph's structure and values; --seed draws the RHS.
constexpr std::uint64_t kGraphSeed = 1;

class KrylovProblem final : public Problem {
 public:
  KrylovProblem(sparse::Csr A, std::size_t nrhs, krylov::CaCgOptions opt,
                std::uint64_t seed)
      : A_(std::move(A)), nrhs_(nrhs), opt_(opt), X_(A_.n * nrhs) {
    std::uint64_t state = seed;
    B_ = random_vector(A_.n * nrhs, state);
  }

  void build_partition() override { part_ = dist::make_partition(kP, A_); }

  void reset_outputs() override {
    std::fill(X_.begin(), X_.end(), 0.0);
    res_.clear();
  }

  void solve(dist::Machine& m) override {
    if (nrhs_ == 1) {
      res_ = {dist::ca_cg(m, *part_, A_, B_, X_, opt_)};
    } else {
      res_ = dist::ca_cg_batch(m, *part_, A_, B_, X_, nrhs_, opt_).rhs;
    }
  }

  std::string check(bool) const override {
    if (res_.size() != nrhs_) return "missing right-hand sides";
    const std::size_t n = A_.n;
    std::vector<double> ax(n);
    const std::size_t steps = opt_.s * opt_.max_outer;
    for (std::size_t j = 0; j < nrhs_; ++j) {
      if (res_[j].iterations != steps) {
        return "rhs " + std::to_string(j) + " took " +
               std::to_string(res_[j].iterations) + " steps, not " +
               std::to_string(steps);
      }
      const std::span<const double> x(X_.data() + j * n, n);
      const std::span<const double> b(B_.data() + j * n, n);
      sparse::spmv(A_, x, ax);
      for (std::size_t i = 0; i < n; ++i) ax[i] = b[i] - ax[i];
      const double rel = sparse::norm2(ax) / sparse::norm2(b);
      if (!(rel <= kKrylovTol)) {
        return "rhs " + std::to_string(j) + " true residual " +
               std::to_string(rel);
      }
    }
    return {};
  }

  std::uint64_t output_digest() const override {
    Digest d;
    d.add(X_.data(), X_.size());
    return d.value();
  }

  Probes probe() const override {
    const std::size_t m = 2 * opt_.s + 1;
    const std::size_t rows = A_.n / kP;
    std::uint64_t state = 7;
    std::vector<std::vector<double>> cols;
    std::vector<const double*> ptrs;
    for (std::size_t c = 0; c < m; ++c) cols.push_back(random_vector(rows, state));
    for (const auto& c : cols) ptrs.push_back(c.data());
    std::vector<double> g(m * m), y(A_.n);
    const std::vector<double> x = random_vector(A_.n, state);
    Probes p;
    p.gram = double(m * (m + 1)) * double(rows) / 1e9 / time_call([&] {
               linalg::active_kernels().gram_upper_acc(g.data(), m,
                                                       ptrs.data(), 0, rows);
             });
    p.spmv = 2.0 * double(A_.nnz()) / 1e9 /
             time_call([&] { sparse::spmv(A_, x, y); });
    return p;
  }

  std::size_t nrhs() const override { return nrhs_; }

  std::size_t iterations() const override {
    std::size_t it = 0;
    for (const dist::KrylovResult& r : res_) it = std::max(it, r.iterations);
    return it;
  }

  std::size_t max_halo_words() const override {
    std::vector<std::size_t> recv(kP, 0);
    for (const dist::HaloTransfer& t : part_->halo(opt_.s * part_->radius())) {
      recv[t.dst] += t.rows;
    }
    return *std::max_element(recv.begin(), recv.end());
  }

 private:
  sparse::Csr A_;
  std::size_t nrhs_;
  krylov::CaCgOptions opt_;
  std::vector<double> B_, X_;
  std::unique_ptr<dist::Partition> part_;
  std::vector<dist::KrylovResult> res_;
};

/// The workload's inputs, all generated from @p seed.  --smoke halves
/// the problem.
std::unique_ptr<Problem> make_problem(const Spec& w, std::uint64_t seed,
                                      bool half) {
  const std::size_t div = half ? 2 : 1;
  krylov::CaCgOptions opt;
  opt.s = w.s;
  opt.mode = w.mode;
  opt.basis = krylov::CaCgBasis::kMonomial;
  // A fixed number of steps, with no early stop: stopping at a
  // tolerance made the step count, and with it every counter, move by
  // s steps (4.5% of the op) on a few seeds in a hundred.  check()
  // requires kKrylovTol from every RHS; the step counts reach it with
  // a margin of 2x or more on every seed tried.
  opt.tol = 0.0;
  opt.max_outer = w.outer;
  switch (w.kind) {
    case Kind::kLuLeft:
    case Kind::kLuRight:
      return std::make_unique<LuProblem>(w.kind == Kind::kLuLeft, w.n / div,
                                         w.b, w.s, seed);
    case Kind::kCaCg:
      return std::make_unique<KrylovProblem>(
          sparse::poisson_3d(48, 48 / div, 8), w.nrhs, opt, seed);
    case Kind::kCaCgBatch:
      // The graph is fixed, like the Poisson mesh: its chords set the
      // halo, so a seeded graph moved network_words by up to 20%.
      return std::make_unique<KrylovProblem>(
          sparse::small_world_graph(w.n / div, 2, 256, kGraphSeed),
          w.nrhs / div, opt, seed);
  }
  throw std::logic_error("unknown workload kind");
}

/// A Machine for @p w: ThreadedBackend(kThreads) with the workload's
/// transport, wrapped for tracing when @p tr is set; @p reference
/// gives the serial+sim machine every threaded run must agree with.
std::unique_ptr<dist::Machine> make_machine(const Spec& w, Tracer* tr,
                                            bool reference) {
  std::unique_ptr<dist::Backend> backend;
  std::unique_ptr<dist::Transport> transport;
  if (reference) {
    backend = std::make_unique<dist::SerialSimBackend>();
    transport = std::make_unique<dist::SimTransport>();
  } else {
    backend = std::make_unique<dist::ThreadedBackend>(kThreads);
    if (w.shm) {
      transport = std::make_unique<dist::ShmTransport>();
    } else {
      transport = std::make_unique<dist::SimTransport>();
    }
  }
  if (tr != nullptr) {
    backend = std::make_unique<TracingBackend>(std::move(backend), *tr);
    transport = std::make_unique<TracingTransport>(std::move(transport), *tr);
  }
  return std::make_unique<dist::Machine>(kP, w.M1, w.M2, kM3, dist::HwParams{},
                                         std::move(backend),
                                         std::move(transport));
}

// ---- running and checking ops -----------------------------------------------

/// Attempted/failed ops and the digests every op must reproduce.
struct Tally {
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> errors;  ///< the first few, for the report
  bool have_first = false;
  std::uint64_t first_output = 0, first_counters = 0;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 5) errors.push_back(what);
  }
};

/// Runs one checked op on @p m; returns its wall seconds, or NaN when
/// it failed.  With @p tr the op is traced.
double run_op(Problem& p, dist::Machine& m, Tally& tally, bool full,
              Tracer* tr = nullptr, bool keep = true) {
  p.reset_outputs();
  m.reset();
  ++tally.attempted;
  double dt = kNaN;
  std::string err;
  try {
    if (tr != nullptr) tr->begin_op();
    const Clock::time_point t0 = Clock::now();
    p.solve(m);
    dt = seconds_between(t0, Clock::now());
    if (tr != nullptr) tr->end_op(keep);
    err = p.check(full);
  } catch (const std::exception& e) {
    if (tr != nullptr && tr->on()) tr->end_op(false);
    err = e.what();
  }
  if (err.empty()) {
    const std::uint64_t out = p.output_digest();
    const std::uint64_t cnt = counter_digest(m);
    if (!tally.have_first) {
      tally.have_first = true;
      tally.first_output = out;
      tally.first_counters = cnt;
    } else if (out != tally.first_output) {
      err = "output bits differ from the first op";
    } else if (cnt != tally.first_counters) {
      err = "counters differ from the first op";
    }
  }
  if (!err.empty()) {
    tally.fail(err);
    return kNaN;
  }
  return dt;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- output -------------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return quote(buf);
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(v[i]);
  }
  return out + "]";
}

/// A JSON object built field by field, in insertion order.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  Obj& add(const std::string& key, double v) { return raw(key, num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::vector<double> finite(const std::vector<double>& v) {
  std::vector<double> out;
  for (double x : v) {
    if (std::isfinite(x)) out.push_back(x);
  }
  return out;
}

/// Per-layer metrics of the traced pass (see README.md for what each
/// should move).
Obj traced_pass(const Spec& w, Problem& p, dist::Machine& m, Tracer& tr,
                Tally& tally, double seconds, std::size_t min_ops,
                std::size_t max_ops) {
  // Traced and untraced ops alternate on the same Machine, so drift
  // hits both sides alike and their ratio is the tracing overhead.
  run_op(p, m, tally, false, &tr, /*keep=*/false);  // warm the trace path
  std::vector<double> traced, plain;
  const Clock::time_point start = Clock::now();
  while (traced.size() < max_ops &&
         (traced.size() < min_ops ||
          seconds_between(start, Clock::now()) < seconds)) {
    traced.push_back(run_op(p, m, tally, false, &tr));
    plain.push_back(run_op(p, m, tally, false));
  }
  const double model_cost = m.cost();
  const double traced_p50 = median(finite(traced));
  const double plain_p50 = median(finite(plain));

  // The serial simulator over the charge-only transport is the
  // reference every threaded run must reproduce bit for bit.  It is
  // traced too, so the pool's speedup compares backend time with
  // backend time, whatever the two transports cost.
  std::vector<double> serial;
  Tracer ref_tr;
  {
    const std::unique_ptr<dist::Machine> ref = make_machine(w, &ref_tr, true);
    for (int i = 0; i < 3; ++i) {
      serial.push_back(run_op(p, *ref, tally, false, &ref_tr));
    }
  }
  const double serial_p50 = median(finite(serial));
  std::vector<double> serial_busy;
  for (const OpLayers& l : ref_tr.ops()) serial_busy.push_back(l.backend_busy);

  const Probes k = p.probe();

  const auto per_op = [&](auto field) {
    std::vector<double> v;
    for (const OpLayers& l : tr.ops()) v.push_back(double(field(l)));
    return median(v);
  };
  const double busy = per_op([](const OpLayers& l) { return l.backend_busy; });
  const double work = per_op([](const OpLayers& l) { return l.backend_work; });
  const double crit = per_op([](const OpLayers& l) { return l.backend_crit; });
  const double tr_busy = per_op([](const OpLayers& l) { return l.tr_busy; });
  const double tr_words = per_op([](const OpLayers& l) { return l.tr_words; });
  const double tr_verified =
      per_op([](const OpLayers& l) { return l.tr_verified; });
  const double flops = per_op([](const OpLayers& l) { return l.flops; });
  const double orchestration = per_op([](const OpLayers& l) {
    return l.op_s - l.backend_busy - l.tr_busy;
  });
  const dist::AlphaBeta fit = dist::fit_alpha_beta(tr.samples());
  const bool fitted = tr.samples().size() >= 2;

  Obj layers;
  layers.add("transport.calls", per_op([](const OpLayers& l) { return l.tr_calls; }))
      .add("transport.words", tr_words)
      .add("transport.messages",
           per_op([](const OpLayers& l) { return l.tr_messages; }))
      .add("transport.verified_frac", tr_words > 0 ? tr_verified / tr_words : 1.0)
      .add("transport.busy_s", tr_busy)
      .add("transport.fit_alpha_us", fit.alpha * 1e6)
      .add("transport.fit_beta_ns", fit.beta * 1e9)
      .add("transport.fit_rms_us", fit.residual * 1e6)
      .add("transport.alpha_clamped", fitted && fit.alpha == 0.0 ? 1.0 : 0.0)
      .add("backend.jobs", per_op([](const OpLayers& l) { return l.jobs; }))
      .add("backend.rank_phases",
           per_op([](const OpLayers& l) { return l.rank_phases; }))
      .add("backend.busy_s", busy)
      .add("backend.work_s", work)
      .add("backend.crit_s", crit)
      .add("backend.dispatch_s", busy - crit)
      .add("backend.parallel_eff", busy > 0 ? work / (busy * kThreads) : 0.0)
      .add("backend.serial_op_s", serial_p50)
      .add("backend.speedup", busy > 0 ? median(serial_busy) / busy : 0.0)
      .add("dist.orchestration_s", orchestration)
      .add("linalg.gemm_gflops", k.gemm)
      .add("linalg.trsm_gflops", k.trsm)
      .add("linalg.gram_gflops", k.gram)
      .add("linalg.local_gflops", work > 0 ? flops / work / 1e9 : 0.0)
      .add("sparse.spmv_gflops", k.spmv)
      .add("partition.max_halo_words", double(p.max_halo_words()))
      .add("memsim.events", per_op([](const OpLayers& l) { return l.mem_events; }))
      .add("memsim.flops", flops)
      .add("krylov.iterations", double(p.iterations()))
      .add("model.cost_s", model_cost)
      .add("model.measured_over_model", plain_p50 / model_cost)
      .add("trace.op_s_p50", traced_p50)
      .add("trace.overhead", traced_p50 / plain_p50 - 1.0);

  Obj self;
  const double ops = double(std::max<std::size_t>(1, tr.ops().size()));
  for (const auto& [kind, s] : tr.self_seconds()) self.add(kind, s / ops);

  Obj out;
  out.raw("layers", layers.str())
      .raw("self_s_per_op", self.str())
      .raw("traced_op_s", array(traced))
      .raw("untraced_op_s", array(plain))
      .raw("serial_op_s", array(serial))
      .add("spans_dropped", double(tr.dropped()));
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
      if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("--workload and --seed are required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  worker_id();  // the orchestration thread is worker 0
  Args args;
  const Spec* spec = nullptr;
  try {
    args = parse_args(argc, argv);
    for (const Spec& s : kSpecs) {
      if (args.workload == s.name) spec = &s;
    }
    if (spec == nullptr) {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "bench_e2e: %s\nusage: bench_e2e --workload NAME --seed N "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke]\n",
                 e.what());
    return 2;
  }

  const std::unique_ptr<Problem> problem =
      make_problem(*spec, args.seed, args.smoke);
  Tally tally;
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();

  // Cold starts: partition + Machine + first op, with the pool spawn
  // and first touch of every arena inside.  The previous Machine goes
  // first, so no more than one pool is alive at a time.
  const std::size_t cold = args.trace ? 1 : (args.smoke ? 2 : 5);
  std::vector<double> setup_s, build_s;
  std::unique_ptr<dist::Machine> m;
  for (std::size_t c = 0; c < cold; ++c) {
    m.reset();
    problem->reset_outputs();
    const Clock::time_point t0 = Clock::now();
    problem->build_partition();
    const Clock::time_point t1 = Clock::now();
    m = make_machine(*spec, tracer.get(), false);
    const double machine_s = seconds_between(t1, Clock::now());
    const double op = run_op(*problem, *m, tally, /*full=*/c == 0);
    setup_s.push_back(seconds_between(t0, t1) + machine_s + op);
    build_s.push_back(seconds_between(t0, t1));
  }

  run_op(*problem, *m, tally, false);  // warm-up
  const dist::ProcTraffic crit = m->critical_path();
  const double model_cost = m->cost();

  // 40 timed ops leave ten samples beyond the reported p75.
  const std::size_t min_ops = args.smoke ? 3 : (args.trace ? 10 : 40);
  const std::size_t max_ops = args.smoke ? 3 : 100000;
  Obj out;
  std::vector<double> op_s;
  if (args.trace) {
    Obj t = traced_pass(*spec, *problem, *m, *tracer, tally, args.seconds,
                        min_ops, max_ops);
    t.add("partition.build_s", median(build_s));
    out.raw("traced", t.str());
  } else {
    const Clock::time_point start = Clock::now();
    while (op_s.size() < max_ops &&
           (op_s.size() < min_ops ||
            seconds_between(start, Clock::now()) < args.seconds)) {
      op_s.push_back(run_op(*problem, *m, tally, false));
    }
  }
  if (args.trace && !args.trace_out.empty()) {
    try {
      tracer->write_chrome(args.trace_out);
    } catch (const std::exception& e) {
      tally.fail(e.what());
    }
  }

  std::string errors = "[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i) {
    errors += (i == 0 ? "" : ", ") + quote(tally.errors[i]);
  }
  errors += "]";

  out.raw("workload", quote(spec->name))
      .raw("seed", std::to_string(args.seed))
      .add("trace", args.trace ? 1 : 0)
      .add("smoke", args.smoke ? 1 : 0)
      .raw("kernels", quote(linalg::active_kernels().name))
      .add("attempted", double(tally.attempted))
      .add("failed", double(tally.failed))
      .raw("errors", errors)
      .raw("setup_s", array(setup_s))
      .raw("op_s", array(op_s))
      .add("peak_rss_mb", peak_rss_mb())
      .add("nvm_write_words", double(crit.l3_write.words))
      .add("network_words", double(crit.nw.words))
      .add("network_messages", double(crit.nw.messages))
      .raw("counter_digest", hex(tally.first_counters))
      .raw("output_digest", hex(tally.first_output))
      .add("model_cost_s", model_cost)
      .add("nominal_flops", problem->nominal_flops())
      .add("nrhs", double(problem->nrhs()))
      .add("iterations", double(problem->iterations()));
  std::printf("%s\n", out.str().c_str());
  return tally.failed == 0 ? 0 : 1;
}
