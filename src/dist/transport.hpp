#pragma once
// wa::dist -- the data-movement seam under the Machine.
//
// The Machine *charges* every transfer to per-rank counters; a
// Transport decides whether the transfer's bytes also physically move
// between per-rank address spaces.  Two implementations ship:
//
//   SimTransport  the original charge-only behavior: no byte crosses
//                 any boundary, counters are the whole story.  This
//                 is the default and is byte-identical to the seed.
//
//   ShmTransport  every modelled transfer really moves its payload:
//                 each rank owns a private heap arena, point-to-point
//                 sends stage the payload into a heap message, enqueue
//                 it on the destination rank's mutex+condvar mailbox,
//                 and the receiver copies it into its own arena.
//                 Broadcasts and reductions execute the same binomial
//                 trees the Machine charges, hop by hop, with real
//                 memcpys (and real elementwise combines for reduce);
//                 large rounds run their hops on concurrent
//                 sender/receiver thread pairs.  Every delivery is
//                 digested end-to-end (dist/payload_digest.hpp: a
//                 4-lane word-parallel digest that any corruption
//                 confined to one word always changes), and the
//                 receiver verifies the digest *before* the bytes
//                 land in its arena, so a transfer the model charged
//                 but the transport garbled is an error that leaves
//                 the destination untouched, not a silent
//                 disagreement -- the simulator's communication
//                 schedule is *validated*, not assumed.  Moving a
//                 word costs about 2.9 ns end to end on the
//                 write-avoiding LU benchmark (bench/e2e, lu_ll_shm,
//                 4-vCPU Xeon guest), down from 23-25 ns with the
//                 byte-serial FNV-1a checksum this digest replaced.
//
// Counters never depend on the transport (the Machine charges before
// the bytes move), which is what pins WA_TRANSPORT=sim and =shm to
// byte-identical counters and -- since moved doubles are moved
// bit-patterns -- bitwise-identical numerics.  What the transport
// adds is measurement: wall-clock per operation and words physically
// moved, the raw material bench_calibrate fits alpha/beta from.
//
// An optional MpiTransport (src/dist/transport_mpi.cpp) drives the
// same interface through MPI when the build has it (-DWA_WITH_MPI=ON);
// mpi_transport_available() reports whether this binary carries it.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/annotations.hpp"

namespace wa::dist {

/// Movement/verification totals of a data-moving transport.  All
/// zeros for SimTransport (nothing moves, nothing to verify).
struct TransportStats {
  std::uint64_t messages = 0;  ///< queue deliveries completed
  std::uint64_t words = 0;     ///< payload words copied across arenas
  std::uint64_t verified = 0;  ///< words whose end-to-end checksum matched
  double seconds = 0.0;        ///< wall-clock inside transport operations
};

/// The data-movement seam (see file comment).  Implementations must
/// tolerate any call sequence the Machine's charging produces: the
/// group vectors are the same rank lists the collectives charge.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual const char* name() const = 0;

  /// True when payload bytes physically move.  Callers use this to
  /// skip packing payloads for a charge-only transport.
  virtual bool moves_data() const = 0;

  /// Size the per-rank address spaces for a P-rank machine.  Called
  /// by the Machine on construction and on set_transport.
  virtual void attach(std::size_t P) = 0;

  /// Move @p words doubles from rank @p src to rank @p dst.  A null
  /// @p payload means the true bytes are not available at charge time
  /// (the algorithm stages them later); the transport moves a
  /// deterministic synthetic payload of the same size instead, so the
  /// movement cost is still real and still verified.
  virtual void send(std::size_t src, std::size_t dst, std::size_t words,
                    const double* payload) = 0;

  /// Binomial-tree broadcast of @p words from group.front() to every
  /// other participant (the tree the Machine charges).
  virtual void bcast(const std::vector<std::size_t>& group,
                     std::size_t words, const double* payload) = 0;

  /// Binomial-tree reduction of @p words onto group.front(), with a
  /// real elementwise combine at every hop.
  virtual void reduce(const std::vector<std::size_t>& group,
                      std::size_t words, const double* payload) = 0;

  virtual TransportStats stats() const { return {}; }
};

/// The charge-only transport: the seed behavior, verbatim.
class SimTransport final : public Transport {
 public:
  const char* name() const override { return "sim"; }
  bool moves_data() const override { return false; }
  void attach(std::size_t) override {}
  void send(std::size_t, std::size_t, std::size_t,
            const double*) override {}
  void bcast(const std::vector<std::size_t>&, std::size_t,
             const double*) override {}
  void reduce(const std::vector<std::size_t>&, std::size_t,
              const double*) override {}
};

/// Per-rank-address-space transport over process-local heap memory
/// (see file comment).  Thread-safe per operation; operations
/// themselves are issued by the orchestration thread, matching how
/// the Machine charges them.
class ShmTransport final : public Transport {
 public:
  /// @param parallel_words  hop size (in words) from which a
  /// collective round runs its hops on concurrent sender/receiver
  /// thread pairs instead of inline; smaller hops stay sequential so
  /// fine-grained solvers do not pay a thread spawn per scalar
  /// allreduce.
  explicit ShmTransport(std::size_t parallel_words = 1 << 15)
      : parallel_words_(parallel_words) {}

  const char* name() const override { return "shm"; }
  bool moves_data() const override { return true; }
  void attach(std::size_t P) override;
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override;
  void bcast(const std::vector<std::size_t>& group, std::size_t words,
             const double* payload) override;
  void reduce(const std::vector<std::size_t>& group, std::size_t words,
              const double* payload) override;
  TransportStats stats() const override;

  /// Rank @p p's private arena (tests inspect delivered bytes here).
  const std::vector<double>& arena(std::size_t p) const;

 private:
  struct Msg {
    std::vector<double> data;
    std::uint64_t digest = 0;  ///< detail::payload_digest of data
  };

  /// RAII accumulator of wall-clock into stats_.seconds (nested so it
  /// can lock stats_mu_ through the annotated members).
  class OpTimer;

  /// One rank's inbox: a mutex+condvar message queue.  The queue is
  /// the only mailbox state touched from both sides of a hop, and the
  /// lock discipline is compile-time-checked on the Clang legs
  /// (-Wthread-safety; see dist/annotations.hpp).  condition_variable_any
  /// waits on the annotated Mutex directly (it is BasicLockable).
  struct Mailbox {
    Mutex mu;
    std::condition_variable_any cv;
    std::deque<Msg> q WA_GUARDED_BY(mu);
  };

  // Stage @p words from @p payload (or the synthetic pattern) into
  // rank @p src's arena; returns the staged pointer.
  const double* stage(std::size_t src, std::size_t words,
                      const double* payload);
  void push(std::size_t dst, Msg msg);
  Msg pop(std::size_t dst);
  // Sender side of a hop: copy @p words of src's arena into a digested
  // heap message.
  Msg package(std::size_t src, std::size_t words) const;
  // Receiver side of a hop: verify @p got's digest and, only if it
  // matches, land it in dst's arena (@p combine adds instead of
  // overwriting: the reduce hop) and count the delivery.  Returns
  // false, with the arena untouched, on a mismatch.
  bool land(std::size_t dst, const Msg& got, std::size_t words,
            bool combine);
  // One queue hop: src's arena -> heap message -> dst's arena; throws
  // on a digest mismatch.
  void hop(std::size_t src, std::size_t dst, std::size_t words,
           bool combine);
  void run_round(const std::vector<std::pair<std::size_t, std::size_t>>& hops,
                 std::size_t words, bool combine);
  void check_rank(std::size_t p) const;

  std::size_t parallel_words_;
  std::size_t P_ = 0;
  // Arenas are deliberately unguarded: operations are issued by the
  // orchestration thread, and within one concurrent binomial round
  // every hop touches disjoint src/dst arenas (the TSan leg checks
  // this dynamically; a mutex here would serialize the very
  // concurrency the large rounds exist to measure).
  std::vector<std::vector<double>> arenas_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  mutable Mutex stats_mu_;
  TransportStats stats_ WA_GUARDED_BY(stats_mu_);
};

/// True when this binary was built with the MPI transport TU enabled
/// (-DWA_WITH_MPI=ON and an MPI toolchain).
bool mpi_transport_available();

/// The MPI-backed transport; throws std::invalid_argument when the
/// build does not carry it.
std::unique_ptr<Transport> make_mpi_transport();

/// Transport by name, for tools and benches: "sim" (default), "shm",
/// or "mpi" (only in MPI-enabled builds).
inline std::unique_ptr<Transport> make_transport(const std::string& name) {
  if (name.empty() || name == "sim") return std::make_unique<SimTransport>();
  if (name == "shm") return std::make_unique<ShmTransport>();
  if (name == "mpi") return make_mpi_transport();
  throw std::invalid_argument("make_transport: unknown transport '" + name +
                              "' (expected sim|shm|mpi)");
}

/// Transport selected by the WA_TRANSPORT environment variable; sim
/// when unset.  Unknown values throw std::invalid_argument -- the
/// benches turn that into the uniform exit-2 usage error, exactly
/// like WA_BACKEND via backend_from_env.
inline std::unique_ptr<Transport> transport_from_env() {
  const char* name = std::getenv("WA_TRANSPORT");
  return make_transport(name != nullptr ? name : "sim");
}

}  // namespace wa::dist
