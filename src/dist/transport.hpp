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
//                 each rank owns a private heap arena, and every
//                 delivery -- a send or one hop of a bcast or reduce
//                 tree -- goes through one routine that builds a
//                 digested heap message from the sender's bytes (the
//                 payload, the sender's arena on a tree hop, or a
//                 synthetic pattern of the same size when there is no
//                 payload), then verifies it and copies it into the
//                 receiver's arena, or adds it there on a reduce hop.
//                 A batch of point-to-point sends (send_all: a halo
//                 exchange, LL-LU's refetch) runs as one backend job
//                 whose ranks are the batch's destinations: each
//                 destination lands its own deliveries in list order,
//                 so under a ThreadedBackend the pool's workers move
//                 the bytes while every arena and every count ends
//                 exactly as after the same sends issued one at a
//                 time.
//                 Broadcasts and reductions execute the same binomial
//                 trees the Machine charges, hop by hop on the
//                 calling thread, reusing one message per call; a
//                 round's senders and receivers are disjoint, so a
//                 hop reads no bytes its round writes.  Every delivery
//                 is digested end-to-end (dist/payload_digest.hpp: a
//                 4-lane word-parallel digest that any corruption
//                 confined to one word always changes), and the
//                 receiver verifies the digest *before* the bytes
//                 land in its arena, so a transfer the model charged
//                 but the transport garbled is an error that leaves
//                 the destination untouched, not a silent
//                 disagreement -- the simulator's communication
//                 schedule is *validated*, not assumed.  On the
//                 write-avoiding LU benchmark's configuration
//                 (bench/e2e, lu_ll_shm: 9.8M words in 2,112
//                 deliveries per op; 4-vCPU Xeon guest) a serial
//                 send costs 2.2-2.4 ns a word, and the refetch
//                 batches on a three-worker pool 1.1 ns, against
//                 3.0-3.2 ns when every hop ran on the calling
//                 thread after staging its bytes in the sender's
//                 arena.
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

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/annotations.hpp"

namespace wa::dist {

class Backend;  // dist/backend.hpp

/// One point-to-point transfer of a batch (Transport::send_all,
/// Machine::send_all): @p words doubles from rank @p src to rank
/// @p dst, with send()'s payload semantics.
struct Transfer {
  std::size_t src = 0;
  std::size_t dst = 0;
  std::size_t words = 0;
  const double* payload = nullptr;
};

/// Movement/verification totals of a data-moving transport.  All
/// zeros for SimTransport (nothing moves, nothing to verify).
struct TransportStats {
  std::uint64_t messages = 0;  ///< deliveries completed
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

  /// True when payload bytes physically move.  The Machine reads it
  /// to skip packing a collective's tiles, and calling the transport
  /// at all, under a charge-only transport; algorithms never do
  /// (tools/wa_lint.py's wa-payload rule).
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

  /// Move every transfer of @p transfers, ending exactly as send()
  /// called on each in list order would.  The transfers are
  /// independent (none carries bytes another one delivers), so an
  /// implementation may run them on @p backend's workers.  The default
  /// issues them one at a time through send().
  virtual void send_all(const std::vector<Transfer>& transfers,
                        Backend& /*backend*/) {
    for (const Transfer& t : transfers) {
      send(t.src, t.dst, t.words, t.payload);
    }
  }

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
/// (see file comment).  Operations are issued by the orchestration
/// thread, matching how the Machine charges them.  A send_all batch
/// runs on the backend's workers, one destination per rank of the
/// job, and a destination's job writes only its own arena; every
/// other hop runs on the calling thread.  Only the movement stats are
/// locked, so stats() may be read from any thread.  Every entry point
/// checks all of its ranks before it moves anything, zero-word and
/// self transfers included.
class ShmTransport final : public Transport {
 public:
  const char* name() const override { return "shm"; }
  bool moves_data() const override { return true; }
  void attach(std::size_t P) override;
  void send(std::size_t src, std::size_t dst, std::size_t words,
            const double* payload) override;
  void send_all(const std::vector<Transfer>& transfers,
                Backend& backend) override;
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

  // Stage @p words from @p payload (or the synthetic pattern) into
  // rank @p src's arena, the start of a bcast or reduce tree.
  void stage(std::size_t src, std::size_t words, const double* payload);
  // Every delivery, point-to-point or a tree hop: build @p t's message
  // in @p msg from the sender's bytes (t.payload -- a tree hop passes
  // the sender's arena -- or the synthetic pattern when it is null),
  // then land it in t.dst's arena, adding instead of overwriting when
  // @p combine is set (the reduce hop), and count it; throws, with the
  // arena untouched, on a digest mismatch.  @p msg is reused across
  // one caller's deliveries.
  void deliver(const Transfer& t, bool combine, Msg& msg);
  void check_rank(std::size_t p) const;

  std::size_t P_ = 0;
  std::vector<std::vector<double>> arenas_;
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
