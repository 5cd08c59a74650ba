#pragma once
// wa::dist -- the distributed machine model of Section 7 of the paper:
// P processors, each with a private three-level hierarchy L1 (M1
// words) / L2 (M2 words) / L3 (M3 words, e.g. NVM), connected by a
// network.  Algorithms execute their numerics on ordinary matrices
// while *charging* every word they move to per-processor counters:
//
//   nw        words/messages crossing the network (both endpoints)
//   l3_read   words moving L3 -> L2      (NVM reads)
//   l3_write  words moving L2 -> L3      (NVM writes -- the paper's
//                                         expensive channel)
//   l2_read   words moving L2 -> L1
//   l2_write  words moving L1 -> L2
//
// Collectives use a binomial-tree cost model: a broadcast among g
// processors charges ceil(log2 g) rounds to every participant; a
// reduction additionally charges each round's combine as L1 -> L2
// traffic (the received partial is merged and written back), so
// reduce and bcast are distinguishable in the counters.  The
// machine's cost is the maximum over processors of the alpha-beta
// time of its counters (the critical path), mirroring the per-channel
// max-cost accounting the paper uses for Tables 1 and 2.
//
// *How* local phases execute is delegated to the execution layer
// (dist/backend.hpp): the default SerialSimBackend reproduces the
// original serial simulation; a ThreadedBackend runs per-rank phases
// on a thread pool.  Wall-clock spent inside local phases is
// accumulated so modelled alpha-beta cost and measured time can be
// printed side by side.
//
// *Whether* a charged transfer also physically moves bytes is
// delegated to the data-movement layer (dist/transport.hpp): the
// default SimTransport keeps the original charge-only behavior, while
// ShmTransport (WA_TRANSPORT=shm) really moves every payload between
// per-rank heap arenas through digest-checked heap messages.  Charging
// always happens first and never depends on the transport, so the
// counters are byte-identical across transports by construction.
// The collectives take the data they carry: Machine::Tiles, views
// whose words the Machine charges and which it packs row-major, back
// to back, only when the transport moves data; or a bare word count
// for data that does not exist yet at charge time, for which the
// transport moves a synthetic pattern.  So the Machine alone decides
// which bytes move: outside the transports it is the only code that
// asks moves_data() (tools/wa_lint.py's wa-payload rule).
//
// This header is the *only* place allowed to mutate the ChanCount
// channels directly (tools/wa_lint.py enforces this as its wa-counter
// rule): algorithms charge exclusively through the Machine helpers
// below, which is what keeps every counter deterministic and
// byte-identical across backends and transports.  All charging and
// transport movement is issued from the orchestration thread; local
// phases charge fresh per-rank Hierarchies that the backend merges
// deterministically (see dist/backend.hpp), so none of these counters
// need locks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/backend.hpp"
#include "dist/transport.hpp"
#include "linalg/matrix.hpp"
#include "memsim/hierarchy.hpp"

namespace wa::dist {

/// Word/message counters for one channel of one processor.
struct ChanCount {
  std::uint64_t words = 0;
  std::uint64_t messages = 0;

  void add(std::uint64_t w, std::uint64_t m = 1) {
    words += w;
    messages += m;
  }
};

/// All counted channels of one processor.
struct ProcTraffic {
  ChanCount nw;        ///< network words (sent + received)
  ChanCount l3_read;   ///< L3 -> L2
  ChanCount l3_write;  ///< L2 -> L3
  ChanCount l2_read;   ///< L2 -> L1
  ChanCount l2_write;  ///< L1 -> L2
};

/// Per-channel latency (alpha, s/message) and inverse bandwidth
/// (beta, s/word).  The named constructors bracket the NVM-speed
/// regimes the paper's Section 7 planner distinguishes.
struct HwParams {
  double alpha_nw = 1e-6;  ///< network latency
  double beta_nw = 2e-9;   ///< network inverse bandwidth
  double beta_32 = 4e-9;   ///< L3 -> L2 read bandwidth (NVM read)
  double beta_23 = 8e-9;   ///< L2 -> L3 write bandwidth (NVM write)
  double beta_21 = 1e-10;  ///< L2 -> L1
  double beta_12 = 1e-10;  ///< L1 -> L2

  /// The alpha-beta price of a set of channel counts: network
  /// messages and words, then the words of L3 -> L2, L2 -> L3,
  /// L2 -> L1 and L1 -> L2.  Machine::proc_cost, the closed-form
  /// models (MmCostModel::time) and bench re-pricing all use it.
  double time(double nw_msgs, double nw_words, double l3r_words,
              double l3w_words, double l2r_words, double l2w_words) const {
    return alpha_nw * nw_msgs + beta_nw * nw_words + beta_32 * l3r_words +
           beta_23 * l3w_words + beta_21 * l2r_words + beta_12 * l2w_words;
  }

  /// The same price of one processor's counters.
  double time_of(const ProcTraffic& t) const {
    return time(double(t.nw.messages), double(t.nw.words),
                double(t.l3_read.words), double(t.l3_write.words),
                double(t.l2_read.words), double(t.l2_write.words));
  }

  /// NVM as fast as the network: replication through L3 pays off.
  static HwParams fast_nvm() {
    HwParams hw;
    hw.beta_32 = 0.25 * hw.beta_nw;
    hw.beta_23 = 0.25 * hw.beta_nw;
    return hw;
  }
  /// NVM writes far slower than the network: write-avoiding wins.
  static HwParams slow_nvm() {
    HwParams hw;
    hw.beta_32 = 10.0 * hw.beta_nw;
    hw.beta_23 = 30.0 * hw.beta_nw;
    return hw;
  }
};

/// The virtual distributed machine (see file comment).
class Machine {
 public:
  Machine(std::size_t P, std::size_t M1, std::size_t M2, std::size_t M3,
          HwParams hw = HwParams{},
          std::unique_ptr<Backend> backend = nullptr,
          std::unique_ptr<Transport> transport = nullptr)
      : P_(P), M1_(M1), M2_(M2), M3_(M3), hw_(hw), procs_(P),
        backend_(backend != nullptr
                     ? std::move(backend)
                     : std::make_unique<SerialSimBackend>()),
        transport_(transport != nullptr ? std::move(transport)
                                        : transport_from_env()) {
    if (P == 0) throw std::invalid_argument("Machine: P must be positive");
    if (M1 == 0 || M1 >= M2 || M2 >= M3) {
      throw std::invalid_argument(
          "Machine: need 0 < M1 < M2 < M3 (strictly increasing levels)");
    }
    transport_->attach(P_);
  }

  std::size_t nprocs() const { return P_; }
  std::size_t M1() const { return M1_; }
  std::size_t M2() const { return M2_; }
  std::size_t M3() const { return M3_; }
  const HwParams& hw() const { return hw_; }

  Backend& backend() { return *backend_; }
  const Backend& backend() const { return *backend_; }

  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }
  void set_transport(std::unique_ptr<Transport> transport) {
    if (transport == nullptr) {
      throw std::invalid_argument("Machine: transport must not be null");
    }
    transport_ = std::move(transport);
    transport_->attach(P_);
  }

  const ProcTraffic& proc(std::size_t p) const { return procs_.at(p); }

  /// Point-to-point transfer: @p words are charged to both endpoints
  /// (the network channel counts words crossing a processor boundary).
  /// Under a data-moving transport the payload (or, when @p payload is
  /// null, a same-size synthetic pattern) really travels src -> dst.
  /// A zero-word transfer sends no message and is charged nothing.
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload = nullptr) {
    check_proc(src);
    check_proc(dst);
    if (!charge_send(src, dst, words)) return;
    if (transport_->moves_data()) {
      const Timer t(comm_wall_seconds_, comm_timer_depth_);
      transport_->send(src, dst, words, payload);
    }
  }

  /// A step's independent point-to-point transfers, issued together:
  /// every endpoint is checked before anything is charged or moved,
  /// each transfer is then charged exactly as send() charges it, and a
  /// data-moving transport may run the deliveries on this machine's
  /// backend (see Transport::send_all).  No transfer may carry bytes
  /// another one of the batch delivers.
  void send_all(const std::vector<Transfer>& transfers) {
    for (const Transfer& t : transfers) {
      check_proc(t.src);
      check_proc(t.dst);
    }
    bool moved = false;
    for (const Transfer& t : transfers) {
      moved = charge_send(t.src, t.dst, t.words) || moved;
    }
    if (moved && transport_->moves_data()) {
      const Timer timer(comm_wall_seconds_, comm_timer_depth_);
      transport_->send_all(transfers, *backend_);
    }
  }

  /// Rounds of a binomial-tree collective among @p g participants.
  static std::uint64_t bcast_rounds(std::size_t g) {
    std::uint64_t r = 0;
    std::size_t v = 1;
    while (v < g) {
      v *= 2;
      ++r;
    }
    return r;
  }

  /// What a collective carries: views into matrices, taken row-major
  /// and back to back.  A one-tile list {A.block(...)} is the common
  /// case.
  using Tiles = std::vector<linalg::ConstMatrixView<double>>;

  /// Binomial-tree broadcast among @p group, rooted at group.front():
  /// every participant is charged ceil(log2 |group|) rounds of the
  /// words (none when there are none).  Under a data-moving transport
  /// the bytes are fanned out hop by hop along the same binomial tree:
  /// the transport's synthetic pattern for @p words, which names data
  /// that does not exist yet at charge time, or the concatenated
  /// @p tiles.
  void bcast(const std::vector<std::size_t>& group, std::size_t words) {
    collective(group, words, nullptr, /*combine=*/false);
  }
  void bcast(const std::vector<std::size_t>& group, const Tiles& tiles) {
    collective(group, tile_words(tiles), &tiles, /*combine=*/false);
  }

  /// Binomial-tree reduction onto group.front(): the network cost of
  /// a broadcast, plus each round's combine -- merging the received
  /// partial into the local one writes its words from L1 back to L2
  /// per round.  Under a data-moving transport every member stages
  /// the same bytes (the tiles, or the synthetic pattern) and the
  /// partials are really combined elementwise at every hop of the
  /// gather tree.
  void reduce(const std::vector<std::size_t>& group, std::size_t words) {
    collective(group, words, nullptr, /*combine=*/true);
  }
  void reduce(const std::vector<std::size_t>& group, const Tiles& tiles) {
    collective(group, tile_words(tiles), &tiles, /*combine=*/true);
  }

  /// Run a local phase on processor @p p: @p fn receives a fresh
  /// three-level memsim::Hierarchy {M1, M2, M3} (capacities enforced);
  /// the traffic it generates is absorbed into the processor's
  /// channel counters.
  template <class Fn>
  void run_local(std::size_t p, Fn&& fn) {
    check_proc(p);
    const Timer t(wall_seconds_, local_timer_depth_);
    backend_->run({p}, capacities(),
                  [&fn](std::size_t, memsim::Hierarchy& h) { fn(h); },
                  absorb_sink());
  }

  /// Run one identical charging-only phase on *every* processor; the
  /// backend may simulate the hierarchy once and replicate it, so a
  /// P-way symmetric phase costs O(1) simulations instead of O(P).
  template <class Fn>
  void run_local_all(Fn&& fn) {
    const Timer t(wall_seconds_, local_timer_depth_);
    backend_->run_replicated(all_ranks(), capacities(),
                             [&fn](memsim::Hierarchy& h) { fn(h); },
                             absorb_sink());
  }

  /// Run a per-rank local phase -- numerics plus charging -- on every
  /// processor: @p fn receives (rank, Hierarchy&).  The backend
  /// decides the execution strategy (serial simulation or a thread
  /// pool); counters are identical either way.
  template <class Fn>
  void run_local_each(Fn&& fn) {
    run_local_on(all_ranks(), std::forward<Fn>(fn));
  }

  /// Same as run_local_each, restricted to @p ranks (e.g. one grid
  /// layer), so a sparse phase does not pay per-rank setup for idle
  /// processors.
  template <class Fn>
  void run_local_on(const std::vector<std::size_t>& ranks, Fn&& fn) {
    for (std::size_t p : ranks) check_proc(p);
    const Timer t(wall_seconds_, local_timer_depth_);
    backend_->run(ranks, capacities(), Backend::LocalFn(fn), absorb_sink());
  }

  /// Wall-clock seconds spent inside local phases so far (numerics +
  /// counter simulation), for comparison against the modelled cost().
  /// Nested phases (a run_local_each issued from inside another local
  /// phase) are counted once: only the outermost timer accumulates.
  double local_wall_seconds() const { return wall_seconds_; }

  /// Wall-clock seconds spent inside the transport moving bytes for
  /// charged collectives; always 0 under the charge-only SimTransport.
  double comm_wall_seconds() const { return comm_wall_seconds_; }

  /// Alpha-beta time of one processor's counters.
  double proc_cost(std::size_t p) const {
    check_proc(p);
    return hw_.time_of(procs_[p]);
  }

  /// Max over processors of proc_cost (the modelled runtime).
  double cost() const {
    double c = 0.0;
    for (std::size_t p = 0; p < P_; ++p) c = std::max(c, proc_cost(p));
    return c;
  }

  /// Counters of the processor realizing cost() -- the critical path.
  const ProcTraffic& critical_path() const {
    std::size_t arg = 0;
    double best = -1.0;
    for (std::size_t p = 0; p < P_; ++p) {
      const double c = proc_cost(p);
      if (c > best) {
        best = c;
        arg = p;
      }
    }
    return procs_[arg];
  }

  /// Zero all counters (geometry, HwParams and slot() are kept).
  void reset() {
    for (auto& t : procs_) t = ProcTraffic{};
  }

  /// What a solver keeps on this Machine between calls, opaque to the
  /// Machine: the distributed Krylov solvers (dist/krylov.cpp) hold
  /// their last setup and work vectors here, so repeat solves on one
  /// operator and partition skip rebuilding them.  One slot: a solver
  /// that needs something else replaces its content.  It is freed with
  /// the Machine and touched only from the orchestration thread.
  class Kept {
   public:
    virtual ~Kept() = default;
  };
  std::unique_ptr<Kept>& slot() { return slot_; }

 private:
  /// Accumulates elapsed wall-clock into @p out on destruction --
  /// but only for the *outermost* timer of its depth counter, so a
  /// nested phase (run_local_each issued from inside another local
  /// phase) is not double-counted.
  class Timer {
   public:
    Timer(double& out, std::atomic<int>& depth)
        : out_(out), depth_(depth), outermost_(depth.fetch_add(1) == 0),
          start_(std::chrono::steady_clock::now()) {}
    ~Timer() {
      if (outermost_) {
        out_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      }
      depth_.fetch_sub(1);
    }

   private:
    double& out_;
    std::atomic<int>& depth_;
    bool outermost_;
    std::chrono::steady_clock::time_point start_;
  };

  static void absorb(ProcTraffic& t, const memsim::Hierarchy& h) {
    t.l2_read.add(h.loads_words(0), h.loads_messages(0));
    t.l2_write.add(h.stores_words(0), h.stores_messages(0));
    t.l3_read.add(h.loads_words(1), h.loads_messages(1));
    t.l3_write.add(h.stores_words(1), h.stores_messages(1));
  }

  Backend::Sink absorb_sink() {
    return [this](std::size_t p, const memsim::Hierarchy& h) {
      absorb(procs_[p], h);
    };
  }

  std::vector<std::size_t> capacities() const { return {M1_, M2_, M3_}; }

  std::vector<std::size_t> all_ranks() const {
    std::vector<std::size_t> r(P_);
    std::iota(r.begin(), r.end(), std::size_t{0});
    return r;
  }

  void check_proc(std::size_t p) const {
    if (p >= P_) throw std::out_of_range("Machine: processor out of range");
  }

  static std::size_t tile_words(const Tiles& tiles) {
    std::size_t words = 0;
    for (const auto& t : tiles) words += t.rows() * t.cols();
    return words;
  }

  /// The bytes of @p tiles as one contiguous buffer: a single
  /// contiguous tile as it is, anything else packed row-major, back to
  /// back, into pack_.
  const double* pack(const Tiles& tiles) {
    if (tiles.size() == 1 &&
        (tiles[0].rows() <= 1 || tiles[0].stride() == tiles[0].cols())) {
      return tiles[0].data();
    }
    pack_.resize(tile_words(tiles));
    double* out = pack_.data();
    for (const auto& t : tiles) {
      for (std::size_t i = 0; i < t.rows(); ++i) {
        out = std::copy_n(t.data() + i * t.stride(), t.cols(), out);
      }
    }
    return pack_.data();
  }

  /// Charge and move one bcast (@p combine false) or reduce of
  /// @p words among @p group: the tiles' bytes when @p tiles is
  /// non-null, the transport's synthetic pattern otherwise.  Every
  /// member is checked before anything is charged.
  void collective(const std::vector<std::size_t>& group, std::size_t words,
                  const Tiles* tiles, bool combine) {
    for (std::size_t p : group) check_proc(p);  // all-or-nothing charging
    const std::uint64_t rounds = bcast_rounds(group.size());
    if (rounds == 0 || words == 0) return;
    for (std::size_t p : group) {
      procs_[p].nw.add(rounds * words, rounds);
      if (combine) procs_[p].l2_write.add(rounds * words, rounds);
    }
    if (!transport_->moves_data()) return;
    const double* payload = tiles != nullptr ? pack(*tiles) : nullptr;
    const Timer t(comm_wall_seconds_, comm_timer_depth_);
    if (combine) {
      transport_->reduce(group, words, payload);
    } else {
      transport_->bcast(group, words, payload);
    }
  }

  /// Charge a checked point-to-point transfer to both endpoints; a
  /// self or zero-word transfer crosses no network and is charged
  /// nothing.  Returns whether anything was charged.
  bool charge_send(std::size_t src, std::size_t dst, std::size_t words) {
    if (src == dst || words == 0) return false;
    procs_[src].nw.add(words);
    procs_[dst].nw.add(words);
    return true;
  }

  std::size_t P_, M1_, M2_, M3_;
  HwParams hw_;
  std::vector<ProcTraffic> procs_;
  std::unique_ptr<Backend> backend_;
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<Kept> slot_;
  std::vector<double> pack_;  // collective(): packed tiles
  double wall_seconds_ = 0.0;
  double comm_wall_seconds_ = 0.0;
  std::atomic<int> local_timer_depth_{0};
  std::atomic<int> comm_timer_depth_{0};
};

}  // namespace wa::dist
