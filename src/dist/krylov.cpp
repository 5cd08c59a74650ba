#include "dist/krylov.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/detail.hpp"
#include "krylov/cacg_detail.hpp"
#include "linalg/local_kernels.hpp"

namespace wa::dist {
namespace {

namespace kd = wa::krylov::detail;

using krylov::CaCgBasis;
using krylov::CaCgMode;
using krylov::CaCgOptions;

/// Words each rank receives under a halo exchange, per vector.
std::vector<std::size_t> recv_rows(const std::vector<HaloTransfer>& halos,
                                   std::size_t P) {
  std::vector<std::size_t> r(P, 0);
  for (const HaloTransfer& t : halos) r[t.dst] += t.rows;
  return r;
}

/// Apply fn(glo, ghi) to each maximal globally-contiguous row run of
/// box @p b -- one run per (z, y) mesh line, a single run for the 1-D
/// partition's linear boxes.  Runs ascend in global index, so
/// rank-ordered partial sums are deterministic and, on the 1-D
/// partition, identical to the PR 4 row loops.
template <class Fn>
void for_each_run(const Partition& part, const NodeBox& b, Fn&& fn) {
  if (b.empty()) return;
  for (std::size_t z = b.z0; z < b.z1; ++z) {
    for (std::size_t y = b.y0; y < b.y1; ++y) {
      const std::size_t base = part.global_index(0, y, z);
      fn(base + b.x0, base + b.x1);
    }
  }
}

/// The streaming chunk floor: max(4*s*radius, 256) target rows.
std::size_t floor_rows(std::size_t s, std::size_t radius) {
  return std::max<std::size_t>(4 * s * radius, 256);
}

/// Owned box @p o split into streaming chunks of whole lines: x-runs on
/// linear boxes (a line is one row), y-lines with their nz pencils
/// otherwise.  An explicit @p block_rows is block_rows rows in whole
/// lines.  The default takes the larger of the floor (floor_rows, in
/// whole lines) and the most lines whose s*radius-dilated bounding box
/// holds at most M2/(2s+1) rows, so that a chunk's 2s+1 basis columns
/// fit in L2 (the sequential matrix-powers blocking of Demmel, Hoemmen,
/// Mohiyuddin and Yelick, IPDPS 2008).  The box is clipped to the mesh
/// across the cut but not along it, where the neighbouring chunks'
/// targets lie; on a linear box the second size is M2/(2s+1) -
/// 2*s*radius rows.  O(1) per rank, and independent of the batch.
std::vector<NodeBox> stream_chunks(const Partition& part, const NodeBox& o,
                                   std::size_t s, std::size_t block_rows,
                                   std::size_t M2) {
  std::vector<NodeBox> out;
  if (o.empty()) return out;
  const bool along_x = part.ny() == 1 && part.nz() == 1;
  const std::size_t line = along_x ? 1 : o.dx() * o.dz();
  std::size_t lines = std::max<std::size_t>(1, block_rows / line);
  if (block_rows == 0) {
    const std::size_t h = s * part.radius();
    const auto dilated = [h](std::size_t lo, std::size_t hi, std::size_t n) {
      return std::min(n, hi + h) - (lo > h ? lo - h : 0);
    };
    const std::size_t across = along_x ? 1
                                       : dilated(o.x0, o.x1, part.nx()) *
                                             dilated(o.z0, o.z1, part.nz());
    const std::size_t fit = M2 / (2 * s + 1) / across;
    lines = std::max({std::size_t(1), floor_rows(s, part.radius()) / line,
                      fit > 2 * h ? fit - 2 * h : 0});
  }
  const std::size_t lo0 = along_x ? o.x0 : o.y0;
  const std::size_t hi0 = along_x ? o.x1 : o.y1;
  for (std::size_t lo = lo0; lo < hi0; lo += lines) {
    NodeBox c = o;
    (along_x ? c.x0 : c.y0) = lo;
    (along_x ? c.x1 : c.y1) = std::min(hi0, lo + lines);
    out.push_back(c);
  }
  return out;
}

// ---- matrix-powers plans ----------------------------------------------
//
// Every CA-CG basis build covers one chunk: its target rows (the
// rank's owned rows in stored mode, a slice of them when streaming)
// and the rows their basis [p, Ap, .., A^s p, r, Ar, .., A^(s-1) r]
// depends on.  A row's level-l value reads level l-1 at its
// columns, so the targets' last p level needs p's level l within s-l
// hops of the targets, and r, which stops at level s-1, needs its
// level l within s-1-l hops.  One walk of A's pattern from the targets
// (hop_walk) gives every row its hop count.  The chunk compiles those
// rows into a local matrix once per setup, the same way for every
// partition kind (the matrix-powers kernel of Demmel, Hoemmen,
// Mohiyuddin and Yelick, IPDPS 2008, and Mohiyuddin et al., SC09):
// slots in (hop count, global row) order, so the rows within k hops
// are a slot prefix, and each nonzero's column as a 32-bit slot.
// Every level, Gram accumulation and recovery then walk a prefix.
// Each row accumulates in A's stored column order, exactly the
// sparse::spmv sum, and the targets come first in ascending
// global order, so at P = 1 (every row a target, every level full) the
// iterates stay bitwise-identical to the shared-memory solver.

using Runs = std::vector<std::pair<std::size_t, std::size_t>>;

struct BasisChunk {
  // The rows within s hops of the targets in (hop count, global row)
  // order: basis slot li holds global row ext[li], and the rows within
  // k hops are the slots [0, cnt[k]), k = 0..s.  [0, cnt[0]) are the
  // targets, ascending.  p's level l lives on [0, cnt[s - l]), r's on
  // [0, cnt[s - 1 - l]).
  std::vector<std::uint32_t> ext;
  std::vector<std::size_t> cnt;
  // The local matrix: each nonzero's column as a slot, for the slots
  // [0, cnt[s - 1]) (the only rows a level advances), rows in slot
  // order, each in A's stored order.  Row lengths come from A.row_ptr,
  // which the setup's key pins; values are read from A on every walk.
  std::vector<std::uint32_t> cols;
  // A words (values + cols) one build reads, and the heads the rank
  // reads from slow memory: p within s hops plus r within s - 1, owned
  // rows only (ghosts arrive by network).
  std::uint64_t a_words = 0;
  std::size_t own_heads = 0;

  std::size_t targets() const { return cnt[0]; }
};

/// The chunk of a rank owning the row runs @p own, targeting the
/// sorted rows @p seed.  @p slot_of is n words of scratch; the entries
/// of this chunk's rows are overwritten.
BasisChunk make_chunk(const sparse::Csr& A, const Runs& own,
                      const std::vector<std::size_t>& seed, std::size_t s,
                      std::vector<std::uint32_t>& slot_of) {
  const HopSet hs = hop_walk(A.row_ptr, A.col_idx, seed, s);
  const std::size_t len = hs.rows.size();
  // Per hop count: the rows, their A nonzeros and how many the rank
  // owns (both row lists ascend, so one merge walk finds the owned
  // ones); then within k hops.
  BasisChunk ck;
  ck.cnt.assign(s + 1, 0);
  std::vector<std::uint64_t> nnz(s + 1, 0);
  std::vector<std::size_t> owned(s + 1, 0);
  auto run = own.begin();
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t i = hs.rows[li];
    ++ck.cnt[hs.hops[li]];
    nnz[hs.hops[li]] += A.row_ptr[i + 1] - A.row_ptr[i];
    while (run != own.end() && run->second <= i) ++run;
    if (run != own.end() && run->first <= i) ++owned[hs.hops[li]];
  }
  for (std::size_t k = 1; k <= s; ++k) {
    ck.cnt[k] += ck.cnt[k - 1];
    nnz[k] += nnz[k - 1];
    owned[k] += owned[k - 1];
  }
  for (std::size_t l = 1; l <= s; ++l) ck.a_words += 2 * nnz[s - l];
  for (std::size_t l = 1; l < s; ++l) ck.a_words += 2 * nnz[s - 1 - l];
  ck.own_heads = owned[s] + owned[s - 1];

  // Slots: a counting sort by hop count keeps each hop's rows in
  // ascending global order.
  std::vector<std::size_t> next(s + 1, 0);
  for (std::size_t k = 1; k <= s; ++k) next[k] = ck.cnt[k - 1];
  ck.ext.resize(len);
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t slot = next[hs.hops[li]]++;
    ck.ext[slot] = std::uint32_t(hs.rows[li]);
    slot_of[hs.rows[li]] = std::uint32_t(slot);
  }
  // A row within s - 1 hops has every column within s hops.
  ck.cols.resize(nnz[s - 1]);
  std::uint32_t* c = ck.cols.data();
  for (std::size_t li = 0; li < ck.cnt[s - 1]; ++li) {
    const std::size_t i = ck.ext[li];
    for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
      *c++ = slot_of[A.col_idx[q]];
    }
  }
  return ck;
}

/// Per-rank basis chunks of one solve, loop-invariant across outer
/// iterations and shared by every RHS: the whole owned set when
/// stored; when streaming, a box's stream_chunks, or block_rows
/// (default floor_rows) slices of a graph part's owned list.  Adjacent
/// chunks re-read the rows their hop sets share, so streaming reads
/// more than stored.  Machine-wide l3_read, streaming over stored, for
/// 5 outer iterations at tol 0 and M2 = 16,384 words:
///
///   operator, P                             s = 2   s = 4   s = 8
///   stencil_1d(8192, 2), 4                  1.47x   1.57x   1.64x
///   small_world_graph(16384, 2, 256, 1), 16 1.53x   1.79x   2.11x
///   stencil_2d(96, 96), 4                   1.64x   1.83x   3.87x
///   poisson_3d(48, 48, 8), 16               1.57x   2.32x   4.90x
///
/// At s = 8 fewer lines fit in M2/17 words than the floor holds on the
/// 2-D and 3-D tiles, so their chunks stay at the floor.
///
/// Each chunk is compiled into its local matrix here (make_chunk): slots
/// in (hop count, global row) order and a 32-bit slot per nonzero of
/// the rows within s - 1 hops, 4 bytes per nonzero with no offset
/// table.  Basis columns are sized to their level's prefix, so a basis
/// holds sum_l cnt[s - l] + sum_l cnt[s - 1 - l] words, not (2s+1)
/// times the s-hop set.  On the e2e workloads (P = 16, s = 4) the local
/// columns take 1.39 MiB over 48 chunks of poisson_3d(48, 48, 8)
/// (streaming) and 0.85 MiB over 16 of the small-world graph (stored),
/// and the bases shrink by 42% and 38%: 613,440 -> 354,112 and
/// 478,170 -> 297,034 words over all chunks, per RHS.
std::vector<std::vector<BasisChunk>> make_plan(
    const Partition& part, const sparse::Csr& A, const std::vector<Runs>& runs,
    std::size_t s, CaCgMode mode, std::size_t block_rows, std::size_t M2) {
  if (A.n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "dist::ca_cg: matrix-powers plans need n < 2^32 (32-bit basis "
        "slots)");
  }
  const GraphPartition* gp = part.graph();
  std::vector<std::uint32_t> slot_of(A.n);
  std::vector<std::vector<BasisChunk>> plan(runs.size());
  for (std::size_t p = 0; p < runs.size(); ++p) {
    if (runs[p].empty()) continue;
    std::vector<std::vector<std::size_t>> seeds;
    if (mode == CaCgMode::kStored) {
      seeds.emplace_back();
      for (const auto& [lo, hi] : runs[p]) {
        for (std::size_t i = lo; i < hi; ++i) seeds.back().push_back(i);
      }
    } else if (gp != nullptr) {
      const auto& own = gp->owned_rows(p);
      const std::size_t rows =
          block_rows != 0 ? block_rows : floor_rows(s, part.radius());
      for (std::size_t lo = 0; lo < own.size(); lo += rows) {
        const std::size_t hi = std::min(own.size(), lo + rows);
        seeds.emplace_back(own.begin() + lo, own.begin() + hi);
      }
    } else {
      for (const NodeBox& c :
           stream_chunks(part, part.owned(p), s, block_rows, M2)) {
        seeds.emplace_back();
        for_each_run(part, c, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) seeds.back().push_back(i);
        });
      }
    }
    for (const auto& seed : seeds) {
      plan[p].push_back(make_chunk(A, runs[p], seed, s, slot_of));
    }
  }
  return plan;
}

/// The basis exchange: p's rows at depth s*radius plus r's at depth
/// (s-1)*radius, one transfer per neighbour pair (a pair within the
/// shallower depth is also one within the deeper).  At s = 1 r ships
/// nothing.
std::vector<HaloTransfer> basis_halo(const Partition& part, std::size_t s) {
  std::vector<HaloTransfer> out = part.halo(s * part.radius());
  for (const HaloTransfer& t : part.halo((s - 1) * part.radius())) {
    const auto it = std::find_if(out.begin(), out.end(), [&](const auto& u) {
      return u.src == t.src && u.dst == t.dst;
    });
    if (it == out.end()) {
      throw std::logic_error("dist::ca_cg: halo depths are not nested");
    }
    it->rows += t.rows;
  }
  return out;
}

// ---- a solve's setup -----------------------------------------------------
//
// Everything a solve derives from its key and nothing else: the
// partition (by id), A's sparsity pattern, s (0 for classical CG, which
// needs no basis), the storage mode and block_rows, plus the Machine's P
// and M2.  A's values and the right-hand sides are not part of it, so a
// Machine keeps the setup between calls (acquire, below) and a repeat
// solve on the same operator and partition skips every hop walk.

struct SolveSetup {
  // The key.  The pattern is a copy, compared exactly on every call.
  std::uint64_t part_id = 0;
  std::vector<std::size_t> row_ptr, col_idx;
  std::size_t s = 0;
  CaCgMode mode = CaCgMode::kStored;
  std::size_t block_rows = 0;

  std::size_t P = 0;
  std::vector<std::size_t> group;
  // Every rank's owned rows as ascending [lo, hi) global-row runs --
  // from the box geometry for the mesh partitions (identical to walking
  // the box with for_each_run) or from GraphPartition's owned runs --
  // so the O(n) vector phases (setup, classical CG steps, delta
  // recomputes) iterate one shape whatever the partition.
  std::vector<Runs> runs;
  std::vector<std::size_t> own_sz;
  std::vector<std::size_t> own_nnz;  // A-words of the owned rows
  // The depth-radius exchange and CA-CG's basis exchange, with the
  // words each rank receives per vector.
  std::vector<HaloTransfer> halo1, halo_b;
  std::vector<std::size_t> recv1, recv_b;
  // CA-CG's per-rank basis chunks.  The partition kind shows only in
  // the streaming chunks' target rows (make_plan).
  std::vector<std::vector<BasisChunk>> plan;

  bool matches(const Partition& part, const sparse::Csr& A, std::size_t s2,
               CaCgMode mode2, std::size_t block_rows2) const {
    return part_id == part.id() && s == s2 && mode == mode2 &&
           block_rows == block_rows2 && row_ptr == A.row_ptr &&
           col_idx == A.col_idx;
  }
};

/// The setup of a solve of @p A on @p part with @p s-step bases
/// (none when s = 0).  Refuses a partition for another machine size,
/// another row count, or whose halos do not serve A (a graph partition
/// of another pattern, a box A's entries reach past).
SolveSetup build_setup(const Machine& m, const Partition& part,
                       const sparse::Csr& A, std::size_t s, CaCgMode mode,
                       std::size_t block_rows) {
  if (part.ranks() != m.nprocs()) {
    throw std::invalid_argument(
        "dist: partition rank count differs from the machine's P");
  }
  if (part.nodes() != A.n) {
    throw std::invalid_argument("dist: partition does not cover the matrix");
  }
  part.check_matrix(A);
  SolveSetup su;
  su.part_id = part.id();
  su.row_ptr = A.row_ptr;
  su.col_idx = A.col_idx;
  su.s = s;
  su.mode = mode;
  su.block_rows = block_rows;

  const std::size_t P = part.ranks();
  const GraphPartition* gp = part.graph();
  su.P = P;
  su.group = part.group();
  su.runs.resize(P);
  su.own_sz.resize(P);
  su.own_nnz.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    su.own_sz[p] = part.owned_count(p);
    if (gp != nullptr) {
      su.runs[p] = gp->owned_runs(p);
    } else {
      for_each_run(part, part.owned(p), [&](std::size_t lo, std::size_t hi) {
        su.runs[p].emplace_back(lo, hi);
      });
    }
    for (const auto& [lo, hi] : su.runs[p]) {
      su.own_nnz[p] += A.row_ptr[hi] - A.row_ptr[lo];
    }
  }
  su.halo1 = part.halo(part.radius());
  su.recv1 = recv_rows(su.halo1, P);
  if (s > 0) {
    su.halo_b = basis_halo(part, s);
    su.recv_b = recv_rows(su.halo_b, P);
    su.plan = make_plan(part, A, su.runs, s, mode, block_rows, m.M2());
  }
  return su;
}

/// One call's view of a setup: the Machine it charges and the A whose
/// values it reads, plus the ghost and allreduce plumbing.  Partial dot
/// products are combined in rank order on the calling thread
/// (deterministic under every backend, and exactly the full-range sum
/// when P = 1, which is what pins the P = 1 runs bitwise-equal to the
/// shared-memory solvers).
struct PartRun {
  Machine& m;
  const sparse::Csr& A;
  const SolveSetup& su;

  /// fn(lo, hi) over rank @p p's owned row runs, ascending.
  template <class Fn>
  void for_runs(std::size_t p, Fn&& fn) const {
    for (const auto& [lo, hi] : su.runs[p]) fn(lo, hi);
  }

  /// Ghost exchange of @p vecs partitioned vectors: owners read the
  /// shipped boundary nodes from slow memory once, then every
  /// transfer is a neighbour send charged to both endpoints, all of
  /// them issued as one batch.  The received nodes stay in the
  /// consumer's fast memory (charged as L2 transit where they are
  /// used), so ghosts never inflate W12.
  void exchange(const std::vector<HaloTransfer>& halos, std::size_t vecs) {
    if (halos.empty()) return;
    std::vector<std::size_t> sent(su.P, 0);
    std::vector<Transfer> sends;
    sends.reserve(halos.size());
    for (const HaloTransfer& t : halos) {
      sent[t.src] += t.rows * vecs;
      sends.push_back({t.src, t.dst, t.rows * vecs});
    }
    m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
      detail::charge_l3_read(h, sent[p], m.M2());
    });
    m.send_all(sends);
  }

  /// Charge a binomial-tree allreduce of @p vals among all ranks
  /// (reduce with per-round combines, then broadcast of the result),
  /// one word per value.  The caller combines the partials first, so
  /// under a data-moving transport the values charged are the values
  /// that travel both trees.
  void allreduce_charge(std::span<const double> vals) {
    const Machine::Tiles row = {
        linalg::ConstMatrixView<double>(vals.data(), 1, vals.size(),
                                        vals.size())};
    m.reduce(su.group, row);
    m.bcast(su.group, row);
  }
};

// ---- the row kernel ---------------------------------------------------------
//
// Every phase that reads A walks it here: each row's nonzeros once for
// a group of up to kRhsGroup right-hand sides (lanes).  Each lane sums
// in A's stored column order from +0, exactly the sparse::spmv sum, so
// every lane is bitwise the per-RHS product whatever the group
// holds.  The lane count is a template argument of the walk, so each
// width keeps its sums and column pointers in registers.  Two row
// sources feed the one per-nonzero loop: a rank's owned runs with A's
// global columns (owned_rows), and a chunk's slot prefix with its
// local columns (chunk_rows).

/// fn(first, last) over [0, count) in consecutive groups of at most
/// kRhsGroup.
template <class Fn>
void for_each_group(std::size_t count, Fn&& fn) {
  for (std::size_t g0 = 0; g0 < count; g0 += kRhsGroup) {
    fn(g0, std::min(count, g0 + kRhsGroup));
  }
}

/// Row source: fn(i, vals, cols, len) for each row i of rank-owned
/// @p runs, with A's global columns.
auto owned_rows(const sparse::Csr& A, const Runs& runs) {
  return [&A, &runs](auto&& fn) {
    const std::size_t* rptr = A.row_ptr.data();
    for (const auto& [lo, hi] : runs) {
      for (std::size_t i = lo; i < hi; ++i) {
        fn(i, A.values.data() + rptr[i], A.col_idx.data() + rptr[i],
           rptr[i + 1] - rptr[i]);
      }
    }
  };
}

/// Row source: fn(li, vals, cols, len) for each slot li < @p count of
/// chunk @p ck (count <= cnt[s - 1]), with the chunk's local columns.
auto chunk_rows(const sparse::Csr& A, const BasisChunk& ck,
                std::size_t count) {
  return [&A, &ck, count](auto&& fn) {
    const std::size_t* rptr = A.row_ptr.data();
    const std::uint32_t* ext = ck.ext.data();
    const std::uint32_t* cols = ck.cols.data();
    for (std::size_t li = 0; li < count; ++li) {
      const std::size_t i = ext[li];
      const std::size_t len = rptr[i + 1] - rptr[i];
      fn(li, A.values.data() + rptr[i], cols, len);
      cols += len;
    }
  };
}

template <std::size_t L, class Rows, class Done>
void walk_rows_of(const Rows& rows, const double* const* in, Done& done) {
  std::array<const double*, L> x{};
  std::copy_n(in, L, x.begin());
  rows([&](std::size_t li, const double* vals, const auto* cols,
           std::size_t len) {
    std::array<double, L> t{};
    for (std::size_t q = 0; q < len; ++q) {
      const double a = vals[q];
      const std::size_t c = cols[q];
      for (std::size_t k = 0; k < L; ++k) t[k] += a * x[k][c];
    }
    for (std::size_t k = 0; k < L; ++k) done(li, k, t[k]);
  });
}

/// For each row li of the row source @p rows and each lane k < g
/// (1 <= g <= kRhsGroup): the sum t = sum_q vals[q] * in[k][cols[q]],
/// handed to done(li, k, t).
template <class Rows, class Done>
void walk_rows(const Rows& rows, std::size_t g, const double* const* in,
               Done done) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((g == I + 1 && (walk_rows_of<I + 1>(rows, in, done), true)) || ...);
  }(std::make_index_sequence<kRhsGroup>{});
}

/// w[j] = A v(j) over rank @p rank's owned rows for every j of @p js,
/// one walk of A per group.
template <class V>
void spmv_owned(const PartRun& rp, std::size_t rank,
                const std::vector<std::size_t>& js, V v,
                std::vector<std::vector<double>>& w) {
  const auto rows = owned_rows(rp.A, rp.su.runs[rank]);
  for_each_group(js.size(), [&](std::size_t g0, std::size_t g1) {
    std::array<const double*, kRhsGroup> in{};
    std::array<double*, kRhsGroup> out{};
    for (std::size_t k = g0; k < g1; ++k) {
      in[k - g0] = v(js[k]);
      out[k - g0] = w[js[k]].data();
    }
    walk_rows(rows, g1 - g0, in.data(),
              [&](std::size_t i, std::size_t k, double t) { out[k][i] = t; });
  });
}

/// One chunk's 2s+1 basis columns: p's column l over the slots
/// [0, cnt[s - l]), then r's column l over [0, cnt[s - 1 - l]).
using Basis = std::vector<std::vector<double>>;

/// One group's operands for build_basis: lane k builds basis *W[k]
/// from heads p[k] and r[k].
struct BasisGroup {
  std::size_t size = 0;
  std::array<const double*, kRhsGroup> p{}, r{};
  std::array<Basis*, kRhsGroup> W{};
};

/// Fill every lane's basis with the 2s+1 columns of chunk @p ck: p's
/// heads within s hops and r's within s - 1, gathered through ext,
/// then the shifted recurrence, level l over its slot prefix, one walk
/// of the chunk's local matrix per level for the whole group.  One
/// definition serves the stored phase and both streaming passes, so
/// their arithmetic -- and the bitwise pins built on it -- cannot
/// drift apart.  Each column holds exactly the slots its level writes
/// and the next level reads (every column of a row within k hops lies
/// within k + 1 hops); the caller's buffers are recycled, and every
/// slot is written before it is read.
void build_basis(const sparse::Csr& A, const BasisChunk& ck,
                 const kd::BasisCoeffs& bc, std::size_t s,
                 const BasisGroup& grp) {
  const std::uint32_t* ext = ck.ext.data();
  for (std::size_t k = 0; k < grp.size; ++k) {
    Basis& W = *grp.W[k];
    W.resize(2 * s + 1);
    for (std::size_t l = 0; l <= s; ++l) W[l].resize(ck.cnt[s - l]);
    for (std::size_t l = 0; l < s; ++l) {
      W[s + 1 + l].resize(ck.cnt[s - 1 - l]);
    }
    double* p0 = W[0].data();
    for (std::size_t li = 0; li < ck.cnt[s]; ++li) p0[li] = grp.p[k][ext[li]];
    double* r0 = W[s + 1].data();
    for (std::size_t li = 0; li < ck.cnt[s - 1]; ++li) {
      r0[li] = grp.r[k][ext[li]];
    }
  }

  const double sigma = bc.sigma;
  const auto advance = [&](std::size_t from, std::size_t to,
                           std::size_t rows, double theta) {
    std::array<const double*, kRhsGroup> fc{};
    std::array<double*, kRhsGroup> tc{};
    for (std::size_t k = 0; k < grp.size; ++k) {
      fc[k] = (*grp.W[k])[from].data();
      tc[k] = (*grp.W[k])[to].data();
    }
    walk_rows(chunk_rows(A, ck, rows), grp.size, fc.data(),
              [&](std::size_t li, std::size_t k, double t) {
                tc[k][li] = (t - theta * fc[k][li]) / sigma;
              });
  };
  for (std::size_t l = 1; l <= s; ++l) {
    advance(l - 1, l, ck.cnt[s - l], bc.theta[l - 1]);
  }
  for (std::size_t l = 1; l < s; ++l) {
    advance(s + l, s + 1 + l, ck.cnt[s - 1 - l], bc.theta[l - 1]);
  }
}

/// Gram partial over the chunk's targets, one gram_upper_acc call: the
/// targets lead every column in ascending global order, so the entries
/// sum in the order of the shared-memory solver's one call at P = 1.
void gram_partial(const BasisChunk& ck, kd::Small& gacc, std::size_t mm,
                  const Basis& W) {
  std::vector<const double*> wp(mm);
  for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
  linalg::active_kernels().gram_upper_acc(gacc.a.data(), mm, wp.data(), 0,
                                          ck.targets());
}

/// Recovery over the chunk's targets:
/// [pout, rout, xout] = [W] [ph, rh, xh] + [0, 0, x], scattered to the
/// target rows' global indices.
void recover(const BasisChunk& ck, std::size_t mm, const Basis& W,
             const std::vector<double>& ph, const std::vector<double>& rh,
             const std::vector<double>& xh, const std::vector<double>& x,
             std::vector<double>& pout, std::vector<double>& rout,
             std::vector<double>& xout) {
  for (std::size_t li = 0; li < ck.targets(); ++li) {
    const std::size_t i = ck.ext[li];
    double np = 0, nr = 0, nx2 = x[i];
    for (std::size_t a = 0; a < mm; ++a) {
      np += W[a][li] * ph[a];
      nr += W[a][li] * rh[a];
      nx2 += W[a][li] * xh[a];
    }
    pout[i] = np;
    rout[i] = nr;
    xout[i] = nx2;
  }
}

// ---- what a Machine keeps between solves -----------------------------------

/// A solve's work vectors, kept with its setup and grown to the widest
/// batch seen.  Every call writes each entry it reads first: the setup
/// phase fills x, r, p and w over all n rows, recovery fills xn, pn
/// and rn before they are swapped in, and build_basis and the Gram
/// phase write what they read.
struct Workspace {
  // Per RHS, n words each.  Recovery writes the new x, p and r aside
  // into xn, pn and rn: later streaming chunks still read the old p and
  // r, and a rolled-back RHS swaps all three back.
  std::vector<std::vector<double>> x, r, p, w, xn, pn, rn;
  // Per rank: basis blocks (one per RHS when stored, one per group lane
  // when streaming) and one Gram partial per RHS.
  std::vector<std::vector<Basis>> V;
  std::vector<std::vector<kd::Small>> gpart;

  /// Room for @p nrhs RHS of @p n rows; for CA-CG (@p mm = 2s+1 > 0)
  /// also the recovery buffers, @p slots basis blocks per rank and the
  /// Gram partials.  Grow-only.
  void reserve(std::size_t n, std::size_t nrhs, std::size_t P,
               std::size_t mm, std::size_t slots) {
    const auto grow = [](auto& v, std::size_t count, auto make) {
      while (v.size() < count) v.push_back(make());
    };
    const auto vec = [n] { return std::vector<double>(n); };
    for (auto* v : {&x, &r, &p, &w}) grow(*v, nrhs, vec);
    if (mm == 0) return;
    for (auto* v : {&xn, &pn, &rn}) grow(*v, nrhs, vec);
    V.resize(P);
    gpart.resize(P);
    for (std::size_t q = 0; q < P; ++q) {
      grow(V[q], slots, [] { return Basis(); });
      grow(gpart[q], nrhs, [mm] { return kd::Small(mm); });
    }
  }
};

/// The Machine slot's content: the last solve's setup and workspace.
struct SolveState final : Machine::Kept {
  explicit SolveState(SolveSetup s) : setup(std::move(s)) {}
  SolveSetup setup;
  Workspace ws;
};

/// The state for a solve of @p A on @p part on @p m: the slot's, when
/// it holds a setup for the same key (no checks rerun: the key already
/// matched the pattern), else a new setup, built completely before it
/// replaces the slot's content, so a throw leaves the slot as it was.
SolveState& acquire(Machine& m, const Partition& part, const sparse::Csr& A,
                    std::size_t s, CaCgMode mode, std::size_t block_rows) {
  auto* st = dynamic_cast<SolveState*>(m.slot().get());
  if (st == nullptr || !st->setup.matches(part, A, s, mode, block_rows)) {
    auto fresh = std::make_unique<SolveState>(
        build_setup(m, part, A, s, mode, block_rows));
    st = fresh.get();
    m.slot() = std::move(fresh);
  }
  return *st;
}

// ---- the solvers ----------------------------------------------------------
//
// One body per method: the batched solvers below.  The batch keeps
// nrhs fully independent per-RHS recurrences: every floating-point
// operation an RHS sees is the same whatever else is in the batch, in
// the same order, so iterates are bitwise-identical for any batch
// composition and finished/broken-down RHS drop out without perturbing
// the others.  Sharing happens in the kernels and the charging: the
// row kernel walks A once per basis level or SpMV for each group of up
// to kRhsGroup active RHS, and A's words are charged once per batch;
// each halo exchange is one event shipping all active panels, and each
// allreduce is one event combining all active scalars/Grams.  Per-RHS vector words carry an active-count
// multiplier.  The single-RHS entry points are these bodies at
// nrhs = 1.

void check_batch_panels(std::size_t n, std::size_t nrhs, std::size_t bsz,
                        std::size_t xsz, const char* who) {
  if (bsz < n * nrhs || xsz < n * nrhs) {
    throw std::invalid_argument(std::string(who) +
                                ": panel spans must hold n*nrhs words");
  }
}

void check_single(std::size_t n, std::size_t bsz, std::size_t xsz,
                  const char* who) {
  if (bsz != n || xsz != n) {
    throw std::invalid_argument(std::string(who) + ": size mismatch");
  }
}

/// Sum of each RHS's per-rank partials, combined in rank order.
std::vector<double> combine(const std::vector<std::vector<double>>& partj,
                            const std::vector<std::size_t>& which) {
  std::vector<double> sums(which.size(), 0.0);
  for (std::size_t k = 0; k < which.size(); ++k) {
    for (const double v : partj[which[k]]) sums[k] += v;
  }
  return sums;
}

struct BatchSetupResult {
  std::vector<double> delta;
  std::vector<double> bb;
};

/// Shared solve setup: one exchange event ships all nrhs x panels, one
/// walk of A per group (charged once) serves every r = b - A x and
/// p = r, the nrhs deltas = <r, r> travel in one allreduce event, and
/// <b, b> for the stopping thresholds (partials formed in the <r, r>
/// job from uncharged reads, combined in rank order) in another.  Each rank also copies its rows of the caller's
/// X into the workspace's x, which the solve updates from then on; X
/// itself is written once, at the end (store_x).
BatchSetupResult residual_setup_batch(PartRun& rp, std::span<const double> B,
                                      std::span<const double> X,
                                      Workspace& ws, std::size_t nrhs) {
  Machine& m = rp.m;
  const SolveSetup& su = rp.su;
  const std::size_t n = rp.A.n;
  auto& x = ws.x;
  auto& r = ws.r;
  auto& p = ws.p;

  BatchSetupResult out;
  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(su.P, 0.0));
  std::vector<std::vector<double>> partb = partj;
  std::vector<std::size_t> all(nrhs);
  std::iota(all.begin(), all.end(), std::size_t(0));

  rp.exchange(su.halo1, nrhs);
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    spmv_owned(rp, rank, all,
               [&](std::size_t j) { return X.data() + j * n; }, ws.w);
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto bj = B.subspan(j * n, n);
      const auto xj = X.subspan(j * n, n);
      const auto& wj = ws.w[j];
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          x[j][i] = xj[i];
          r[j][i] = bj[i] - wj[i];
          p[j][i] = r[j][i];
        }
      });
    }
    detail::charge_l2_transit(h, nrhs * su.recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, su.own_nnz[rank] + nrhs * 3 * su.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nrhs * 2 * su.own_sz[rank], m.M2());
  });

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto bj = B.subspan(j * n, n);
      double sum = 0.0, bsum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          sum += r[j][i] * r[j][i];
        }
        for (std::size_t i = lo; i < hi; ++i) bsum += bj[i] * bj[i];
      });
      partj[j][rank] = sum;
      partb[j][rank] = bsum;
    }
    detail::charge_l3_read(h, nrhs * 2 * su.own_sz[rank], m.M2());
  });
  out.delta = combine(partj, all);
  rp.allreduce_charge(out.delta);
  out.bb = combine(partb, all);
  rp.allreduce_charge(out.bb);
  return out;
}

/// X = the workspace's x for the first @p nrhs RHS.
void store_x(const Workspace& ws, std::span<double> X, std::size_t nrhs) {
  for (std::size_t j = 0; j < nrhs; ++j) {
    const std::vector<double>& xj = ws.x[j];
    std::copy(xj.begin(), xj.end(), X.subspan(j * xj.size()).begin());
  }
}

/// One classical CG step over the RHS set @p act, charged at the
/// classical per-step rates (reads A + O(n)/P, writes 4n/P per rank
/// per RHS) with one exchange event, one walk of A per group (charged
/// once), and one allreduce event per scalar round.  With
/// @p check_den (the CA-CG restart fallback) a non-positive or
/// non-finite den retires that RHS after phase 1 (marked in @p broke,
/// no phase 2/3 work or charges, no delta update); classical CG
/// divides unconditionally.
void cg_step_batch(PartRun& rp, Workspace& ws, std::vector<double>& delta,
                   const std::vector<std::size_t>& act, bool check_den,
                   std::vector<char>* broke) {
  Machine& m = rp.m;
  const SolveSetup& su = rp.su;
  auto& x = ws.x;
  auto& r = ws.r;
  auto& p = ws.p;
  auto& w = ws.w;
  const std::uint64_t na = act.size();
  std::vector<std::vector<double>> partj(act.size(),
                                         std::vector<double>(su.P, 0.0));
  std::vector<std::size_t> all(act.size());
  std::iota(all.begin(), all.end(), std::size_t(0));

  rp.exchange(su.halo1, na);  // all active p panels travel together
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    spmv_owned(rp, rank, act, [&](std::size_t j) { return p[j].data(); },
               w);
    for (std::size_t idx = 0; idx < act.size(); ++idx) {
      const std::size_t j = act[idx];
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += p[j][i] * w[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l2_transit(h, na * su.recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, su.own_nnz[rank] + na * 3 * su.own_sz[rank], m.M2());
    detail::charge_l3_write(h, na * su.own_sz[rank], m.M2());  // w
  });
  const std::vector<double> den = combine(partj, all);
  rp.allreduce_charge(den);

  std::vector<std::size_t> live;
  std::vector<double> alpha(act.size(), 0.0);
  for (std::size_t idx = 0; idx < act.size(); ++idx) {
    const std::size_t j = act[idx];
    if (check_den && (den[idx] <= 0 || !std::isfinite(den[idx]))) {
      if (broke != nullptr) (*broke)[j] = 1;
      continue;
    }
    alpha[idx] = delta[j] / den[idx];
    live.push_back(idx);
  }
  if (live.empty()) return;
  const std::uint64_t nl = live.size();

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (const std::size_t idx : live) {
      const std::size_t j = act[idx];
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) x[j][i] += alpha[idx] * p[j][i];
        for (std::size_t i = lo; i < hi; ++i) r[j][i] -= alpha[idx] * w[j][i];
        for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l3_read(h, nl * 6 * su.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * 2 * su.own_sz[rank], m.M2());  // x, r
  });
  const std::vector<double> delta_new = combine(partj, live);
  rp.allreduce_charge(delta_new);
  std::vector<double> beta(act.size(), 0.0);
  for (std::size_t k = 0; k < live.size(); ++k) {
    const std::size_t j = act[live[k]];
    beta[live[k]] = delta_new[k] / delta[j];
    delta[j] = delta_new[k];
  }

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (const std::size_t idx : live) {
      const std::size_t j = act[idx];
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          p[j][i] = r[j][i] + beta[idx] * p[j][i];
        }
      });
    }
    detail::charge_l3_read(h, nl * 2 * su.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * su.own_sz[rank], m.M2());  // p
  });
}

}  // namespace

KrylovBatchResult cg_batch(Machine& m, const Partition& part,
                           const sparse::Csr& A, std::span<const double> B,
                           std::span<double> X, std::size_t nrhs,
                           std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  check_batch_panels(n, nrhs, B.size(), X.size(), "dist::cg_batch");
  SolveState& st = acquire(m, part, A, 0, CaCgMode::kStored, 0);
  PartRun rp{m, A, st.setup};

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  Workspace& ws = st.ws;
  ws.reserve(n, nrhs, st.setup.P, 0, 0);
  const BatchSetupResult init = residual_setup_batch(rp, B, X, ws, nrhs);
  std::vector<double> delta = init.delta, stop(nrhs);
  for (std::size_t j = 0; j < nrhs; ++j) {
    stop[j] = tol * tol * init.bb[j];
  }
  std::vector<char> done(nrhs, 0);

  for (std::size_t it = 0; it < max_iters; ++it) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (done[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        done[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;
    cg_step_batch(rp, ws, delta, act, /*check_den=*/false, nullptr);
    for (const std::size_t j : act) ++out.rhs[j].iterations;
  }

  store_x(ws, X, nrhs);
  kd::finish_rhs(A, B, X, tol, 1.0, out.rhs);
  return out;
}

KrylovBatchResult ca_cg_batch(Machine& m, const Partition& part,
                              const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs, const CaCgOptions& opt) {
  const std::size_t n = A.n;
  const std::size_t s = opt.s;
  if (s == 0) throw std::invalid_argument("dist::ca_cg_batch: s >= 1");
  check_batch_panels(n, nrhs, B.size(), X.size(), "dist::ca_cg_batch");
  const std::size_t mm = 2 * s + 1;
  const bool stored = opt.mode == CaCgMode::kStored;
  const kd::BasisCoeffs bc =
      kd::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  SolveState& st = acquire(m, part, A, s, opt.mode, opt.block_rows);
  const SolveSetup& su = st.setup;
  PartRun rp{m, A, su};
  const std::size_t P = su.P;

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  // The stored mode keeps every RHS's chunk basis alive until recovery
  // (rank x RHS slots); the streaming mode rebuilds chunkwise, so one
  // group's basis blocks per rank (rank x kRhsGroup slots) are recycled
  // across chunks and groups.
  Workspace& ws = st.ws;
  ws.reserve(n, nrhs, P, mm, stored ? nrhs : std::min(nrhs, kRhsGroup));
  auto& x = ws.x;
  auto& r = ws.r;
  auto& p = ws.p;

  const BatchSetupResult init = residual_setup_batch(rp, B, X, ws, nrhs);
  std::vector<double> delta = init.delta, stop(nrhs), delta_enter(nrhs, 0.0);
  for (std::size_t j = 0; j < nrhs; ++j) {
    stop[j] = opt.tol * opt.tol * init.bb[j];
  }

  std::vector<std::size_t> restarts(nrhs, 0);
  constexpr std::size_t kMaxRestarts = 25;
  std::vector<char> finished(nrhs, 0);

  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(P, 0.0));
  // Group js[g0, g1) on rank @p rank: its heads and basis blocks.
  const auto group_of = [&](std::size_t rank,
                            const std::vector<std::size_t>& js,
                            std::size_t g0, std::size_t g1) {
    BasisGroup g;
    g.size = g1 - g0;
    for (std::size_t k = 0; k < g.size; ++k) {
      const std::size_t j = js[g0 + k];
      g.p[k] = p[j].data();
      g.r[k] = r[j].data();
      g.W[k] = &ws.V[rank][stored ? j : k];
    }
    return g;
  };

  for (std::size_t outer = 0; outer < opt.max_outer; ++outer) {
    std::vector<std::size_t> act;
    for (std::size_t j = 0; j < nrhs; ++j) {
      if (finished[j]) continue;
      if (delta[j] <= stop[j]) {
        out.rhs[j].converged = true;
        finished[j] = 1;
      } else {
        act.push_back(j);
      }
    }
    if (act.empty()) break;
    const std::uint64_t na = act.size();

    for (const std::size_t j : act) delta_enter[j] = delta[j];

    std::vector<kd::Small> G(nrhs, kd::Small(mm));
    for (std::size_t q = 0; q < P; ++q) {
      for (const std::size_t j : act) {
        std::fill(ws.gpart[q][j].a.begin(), ws.gpart[q][j].a.end(), 0.0);
      }
    }

    // One ghost exchange covers every basis column of the outer
    // iteration (the matrix-powers optimization): p at depth s*radius
    // and r at (s-1)*radius, in one event for every active RHS.
    rp.exchange(su.halo_b, na);

    // ---- basis + Gram: per chunk, each group of active RHS builds
    // its bases in one walk of A per level, then each RHS accumulates
    // its Gram partial; A's words are charged once per chunk for the
    // whole batch.  Stored mode keeps the basis and writes each
    // finished own-node column to slow memory once (the Theta(n)
    // stored-basis write stream); streaming discards its fast blocks
    // chunk by chunk and writes nothing.
    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      if (su.own_sz[rank] == 0) return;
      detail::charge_l2_transit(h, na * su.recv_b[rank], m.M2(), 0);
      for (const BasisChunk& ck : su.plan[rank]) {
        const std::size_t tsz = ck.targets();
        for_each_group(act.size(), [&](std::size_t g0, std::size_t g1) {
          const BasisGroup g = group_of(rank, act, g0, g1);
          build_basis(A, ck, bc, s, g);
          for (std::size_t k = 0; k < g.size; ++k) {
            gram_partial(ck, ws.gpart[rank][act[g0 + k]], mm, *g.W[k]);
          }
        });
        detail::charge_l3_read(h, na * ck.own_heads, m.M2());
        if (stored) {
          detail::charge_l3_write(h, na * 2 * tsz, m.M2());  // basis heads
        }
        detail::charge_l3_read(h, ck.a_words, m.M2());  // A, shared
        if (stored) {
          detail::charge_l3_write(h, na * (2 * s - 1) * tsz, m.M2());
          detail::charge_l3_read(h, na * mm * tsz, m.M2());  // Gram re-read
        }
      }
    });

    // Gram combine per RHS, in rank order; the packed upper triangles
    // of every active RHS travel in one allreduce event.
    std::vector<double> tri;
    tri.reserve(na * (mm * (mm + 1) / 2));
    for (const std::size_t j : act) {
      for (std::size_t q = 0; q < P; ++q) {
        for (std::size_t a = 0; a < mm; ++a) {
          for (std::size_t c = a; c < mm; ++c) {
            G[j](a, c) += ws.gpart[q][j](a, c);
          }
        }
      }
      for (std::size_t a = 0; a < mm; ++a) {
        for (std::size_t c = a; c < mm; ++c) tri.push_back(G[j](a, c));
      }
      linalg::gram_mirror(G[j].a.data(), mm);
    }
    rp.allreduce_charge(tri);

    // ---- inner s steps in coordinates: O(s^2) data, replicated on
    // every rank (fast memory only, so nothing is charged).  A
    // breakdown retires that RHS with its entry iterates.
    std::vector<std::vector<double>> xh(nrhs), ph(nrhs), rh(nrhs);
    std::vector<std::size_t> act2;
    for (const std::size_t j : act) {
      xh[j].assign(mm, 0.0);
      ph[j].assign(mm, 0.0);
      rh[j].assign(mm, 0.0);
      ph[j][0] = 1.0;
      rh[j][s + 1] = 1.0;
      const auto inner =
          kd::inner_steps(s, bc, G[j], xh[j], ph[j], rh[j], delta[j]);
      if (inner.breakdown) {
        finished[j] = 1;
        continue;
      }
      out.rhs[j].iterations += s;
      act2.push_back(j);
    }
    if (act2.empty()) continue;
    const std::uint64_t na2 = act2.size();

    // ---- recovery: [p, r, x] = [P, R] [ph, rh, xh] + [0, 0, x].
    // Stored mode reads its kept basis; streaming recomputes the basis
    // chunkwise, one walk of A per level for each group, and fuses the
    // recovery (the <= 2x flop doubling the paper trades for the
    // Theta(s) write reduction).  Both write the new p, r and x aside
    // (Workspace), then swap them in.
    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      if (su.own_sz[rank] == 0) return;
      for (const BasisChunk& ck : su.plan[rank]) {
        const std::size_t tsz = ck.targets();
        for_each_group(act2.size(), [&](std::size_t g0, std::size_t g1) {
          const BasisGroup g = group_of(rank, act2, g0, g1);
          if (!stored) build_basis(A, ck, bc, s, g);
          for (std::size_t k = 0; k < g.size; ++k) {
            const std::size_t j = act2[g0 + k];
            recover(ck, mm, *g.W[k], ph[j], rh[j], xh[j], x[j], ws.pn[j],
                    ws.rn[j], ws.xn[j]);
          }
        });
        if (stored) {
          detail::charge_l3_read(h, na2 * (mm * tsz + tsz), m.M2());
        } else {
          detail::charge_l3_read(h, na2 * ck.own_heads, m.M2());
          detail::charge_l3_read(h, ck.a_words, m.M2());  // A, shared
          detail::charge_l3_read(h, na2 * tsz, m.M2());   // x
        }
        detail::charge_l3_write(h, na2 * 3 * tsz, m.M2());  // x, p, r
      }
    });
    for (const std::size_t j : act2) {
      p[j].swap(ws.pn[j]);
      r[j].swap(ws.rn[j]);
      x[j].swap(ws.xn[j]);
    }

    // Recompute delta from the *recovered* residual; a large
    // disagreement with the coordinate-space value flags breakdown.
    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      for (const std::size_t j : act2) {
        double sum = 0.0;
        rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
        });
        partj[j][rank] = sum;
      }
      detail::charge_l3_read(h, na2 * 2 * su.own_sz[rank], m.M2());
    });
    const std::vector<double> delta_true = combine(partj, act2);
    rp.allreduce_charge(delta_true);

    std::vector<std::size_t> restart_set;
    for (std::size_t k = 0; k < act2.size(); ++k) {
      const std::size_t j = act2[k];
      if (!std::isfinite(delta_true[k]) ||
          delta_true[k] > 16.0 * delta_enter[j]) {
        // Basis breakdown: roll back this outer iteration (simulation
        // bookkeeping, uncharged).
        if (++restarts[j] > kMaxRestarts) {
          finished[j] = 1;
          continue;
        }
        out.rhs[j].iterations -= s;
        p[j].swap(ws.pn[j]);  // the entry p, r and x, set aside by recovery
        r[j].swap(ws.rn[j]);
        x[j].swap(ws.xn[j]);
        delta[j] = delta_enter[j];
        restart_set.push_back(j);
      } else {
        delta[j] = delta_true[k];
      }
    }

    // Classical-CG fallback for the rolled-back RHS: each of the s
    // steps is one shared traversal/exchange over the RHS still
    // falling back; a den breakdown retires its RHS from the fallback
    // only (it rejoins the next outer iteration).
    if (!restart_set.empty()) {
      std::vector<char> fb_broke(nrhs, 0);
      for (std::size_t step = 0; step < s; ++step) {
        std::vector<std::size_t> R;
        for (const std::size_t j : restart_set) {
          if (!fb_broke[j] && delta[j] > stop[j]) R.push_back(j);
        }
        if (R.empty()) break;
        cg_step_batch(rp, ws, delta, R, /*check_den=*/true, &fb_broke);
        for (const std::size_t j : R) {
          if (!fb_broke[j]) ++out.rhs[j].iterations;
        }
      }
    }
  }

  store_x(ws, X, nrhs);
  kd::finish_rhs(A, B, X, opt.tol, 10.0, out.rhs);
  return out;
}

KrylovResult cg(Machine& m, const Partition& part, const sparse::Csr& A,
                std::span<const double> b, std::span<double> x,
                std::size_t max_iters, double tol) {
  check_single(A.n, b.size(), x.size(), "dist::cg");
  return cg_batch(m, part, A, b, x, 1, max_iters, tol).rhs[0];
}

KrylovResult ca_cg(Machine& m, const Partition& part, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const CaCgOptions& opt) {
  check_single(A.n, b.size(), x.size(), "dist::ca_cg");
  return ca_cg_batch(m, part, A, b, x, 1, opt).rhs[0];
}

KrylovResult cg(Machine& m, const sparse::Csr& A, std::span<const double> b,
                std::span<double> x, std::size_t max_iters, double tol) {
  const auto part = make_partition(m.nprocs(), A);
  return cg(m, *part, A, b, x, max_iters, tol);
}

KrylovResult ca_cg(Machine& m, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const CaCgOptions& opt) {
  const auto part = make_partition(m.nprocs(), A);
  return ca_cg(m, *part, A, b, x, opt);
}

KrylovBatchResult cg_batch(Machine& m, const sparse::Csr& A,
                           std::span<const double> B, std::span<double> X,
                           std::size_t nrhs, std::size_t max_iters,
                           double tol) {
  const auto part = make_partition(m.nprocs(), A);
  return cg_batch(m, *part, A, B, X, nrhs, max_iters, tol);
}

KrylovBatchResult ca_cg_batch(Machine& m, const sparse::Csr& A,
                              std::span<const double> B, std::span<double> X,
                              std::size_t nrhs,
                              const CaCgOptions& opt) {
  const auto part = make_partition(m.nprocs(), A);
  return ca_cg_batch(m, *part, A, B, X, nrhs, opt);
}

}  // namespace wa::dist
