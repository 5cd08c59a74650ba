#include "dist/krylov.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
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

std::size_t rows_nnz(const sparse::Csr& A, std::size_t lo, std::size_t hi) {
  if (hi <= lo) return 0;  // clamped-empty validity window
  return A.row_ptr[hi] - A.row_ptr[lo];
}

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

/// Same, with the local index of glo inside the enclosing extent box
/// @p ebox as a third argument (the slot basis columns of the extent
/// are stored at).
template <class Fn>
void for_each_run_local(const Partition& part, const NodeBox& b,
                        const NodeBox& ebox, Fn&& fn) {
  if (b.empty()) return;
  const std::size_t w = ebox.dx(), h = ebox.dy();
  for (std::size_t z = b.z0; z < b.z1; ++z) {
    for (std::size_t y = b.y0; y < b.y1; ++y) {
      const std::size_t base = part.global_index(0, y, z);
      const std::size_t lbase =
          ((z - ebox.z0) * h + (y - ebox.y0)) * w + (b.x0 - ebox.x0);
      fn(base + b.x0, base + b.x1, lbase);
    }
  }
}

/// The extent of one streaming chunk: the chunk box dilated by the
/// basis depth, exactly as Partition::extended dilates whole owned
/// boxes (same dilate_box).
NodeBox dilate_clipped(const Partition& part, const NodeBox& b,
                       std::size_t depth) {
  return dilate_box(b, depth, part.nx(), part.ny(), part.nz());
}

/// Owned box @p o split into streaming chunks of ~@p block_rows owned
/// words: along x for linear boxes (exactly the PR 4 row blocks),
/// along y otherwise (whole tile lines with their nz pencils).
std::vector<NodeBox> stream_chunks(const Partition& part, const NodeBox& o,
                                   std::size_t block_rows) {
  std::vector<NodeBox> out;
  if (o.empty()) return out;
  if (part.ny() == 1 && part.nz() == 1) {
    for (std::size_t lo = o.x0; lo < o.x1; lo += block_rows) {
      NodeBox c = o;
      c.x0 = lo;
      c.x1 = std::min(o.x1, lo + block_rows);
      out.push_back(c);
    }
    return out;
  }
  const std::size_t line = std::max<std::size_t>(1, o.dx() * o.dz());
  const std::size_t ych = std::max<std::size_t>(1, block_rows / line);
  for (std::size_t lo = o.y0; lo < o.y1; lo += ych) {
    NodeBox c = o;
    c.y0 = lo;
    c.y1 = std::min(o.y1, lo + ych);
    out.push_back(c);
  }
  return out;
}

/// The partition a solve runs on, plus its ghost and allreduce
/// plumbing.  Partial dot products are combined in rank order on the
/// calling thread (deterministic under every backend, and exactly the
/// full-range sum when P = 1, which is what pins the P = 1 runs
/// bitwise-equal to the shared-memory solvers).
///
/// Every rank's owned rows are flattened into ascending [lo, hi)
/// global-row runs once here -- from the box geometry for the mesh
/// partitions (identical to walking the box with for_each_run) or
/// from GraphPartition's owned runs -- so the O(n) vector phases
/// (setup, classical CG steps, delta recomputes) iterate one shape
/// whatever the partition.  Only the matrix-powers basis phases still
/// dispatch on geometry (box extents vs. sparsity-derived plans).
struct PartRun {
  Machine& m;
  const sparse::Csr& A;
  const Partition& part;
  const GraphPartition* gp;  // non-null on sparsity-driven partitions
  std::size_t P;
  std::vector<std::size_t> group;
  std::vector<NodeBox> own;  // box partitions only (empty boxes on graphs)
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> runs;
  std::vector<std::size_t> own_sz;
  std::vector<std::size_t> own_nnz;  // A-words of the owned rows
  std::vector<double> partial;

  PartRun(Machine& mm, const sparse::Csr& a, const Partition& pt)
      : m(mm), A(a), part(pt), gp(pt.graph()), P(pt.ranks()),
        group(pt.group()), own(P), runs(P), own_sz(P), own_nnz(P),
        partial(P, 0.0) {
    if (pt.ranks() != mm.nprocs()) {
      throw std::invalid_argument(
          "dist: partition rank count differs from the machine's P");
    }
    if (pt.nodes() != a.n) {
      throw std::invalid_argument("dist: partition does not cover the matrix");
    }
    for (std::size_t p = 0; p < P; ++p) {
      if (gp != nullptr) {
        runs[p] = gp->owned_runs(p);
        own_sz[p] = gp->owned_count(p);
      } else {
        own[p] = pt.owned(p);
        own_sz[p] = own[p].volume();
        for_each_run(pt, own[p], [&](std::size_t lo, std::size_t hi) {
          runs[p].emplace_back(lo, hi);
        });
      }
      std::size_t words = 0;
      for (const auto& [lo, hi] : runs[p]) words += rows_nnz(a, lo, hi);
      own_nnz[p] = words;
    }
  }

  /// fn(lo, hi) over rank @p p's owned row runs, ascending.
  template <class Fn>
  void for_runs(std::size_t p, Fn&& fn) const {
    for (const auto& [lo, hi] : runs[p]) fn(lo, hi);
  }

  /// Ghost exchange of @p vecs partitioned vectors: owners read the
  /// shipped boundary nodes from slow memory once, then every
  /// transfer is a neighbour send charged to both endpoints.  The
  /// received nodes stay in the consumer's fast memory (charged as L2
  /// transit where they are used), so ghosts never inflate W12.
  void exchange(const std::vector<HaloTransfer>& halos, std::size_t vecs) {
    if (halos.empty()) return;
    std::vector<std::size_t> sent(P, 0);
    for (const HaloTransfer& t : halos) sent[t.src] += t.rows * vecs;
    m.run_local_each([&](std::size_t p, memsim::Hierarchy& h) {
      detail::charge_l3_read(h, sent[p], m.M2());
    });
    for (const HaloTransfer& t : halos) {
      m.send(t.src, t.dst, t.rows * vecs);
    }
  }

  /// Charge a binomial-tree allreduce of @p words among all ranks
  /// (reduce with per-round combines, then broadcast of the result).
  /// Under a data-moving transport @p payload (the combined value,
  /// when it is available at charge time) really travels both trees.
  void allreduce_charge(std::size_t words, const double* payload = nullptr) {
    m.reduce(group, words, payload);
    m.bcast(group, words, payload);
  }

  /// Combine the per-rank partials and charge a one-word allreduce
  /// that carries the combined scalar.
  double allreduce(const std::vector<double>& part_sums) {
    double sum = 0.0;
    for (std::size_t p = 0; p < P; ++p) sum += part_sums[p];
    allreduce_charge(1, &sum);
    return sum;
  }
};

/// Fill @p W with the 2s+1 basis columns over the extent box @p ebox:
/// heads copied from p and r, then the shifted recurrence with
/// per-level per-axis shrinking validity (basis_valid_window: nodes
/// computable inside the extent, clamped at mesh edges, clamped empty
/// instead of inverting).  Returns the A-words (values + cols of
/// every computed row) the caller charges as slow reads.  One
/// definition serves the stored phase and both streaming passes, so
/// their arithmetic -- and the bitwise pins built on it -- cannot
/// drift apart.  The caller's buffers are recycled (never read before
/// being written: heads cover the whole extent, and Gram/recovery only
/// read owned nodes, valid in every column).
///
/// Neighbours are gathered through an extent-local slot map: loc[j] is
/// the slot of global row j in the extent, filled with the heads, so
/// one loop serves 1-D, 2-D and 3-D boxes with no coordinate decode.
/// Each row accumulates in A's stored column order, exactly the
/// kd::row_dot / spmv sum.  Only extent rows' slots are read: a
/// computable row's columns lie within the partition radius
/// (check_mesh_geometry), which the validity windows shrink by per
/// level.  The map is per-worker scratch; slots left by earlier calls
/// are never read.
std::uint64_t build_basis_box(const sparse::Csr& A, const Partition& part,
                              const kd::BasisCoeffs& bc, std::size_t s,
                              const std::vector<double>& p,
                              const std::vector<double>& r,
                              const NodeBox& ebox,
                              std::vector<std::vector<double>>& W) {
  if (A.n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(
        "dist::ca_cg: box partitions need n < 2^32 (32-bit extent slots)");
  }
  const std::size_t mm = 2 * s + 1;
  const std::size_t len = ebox.volume();
  W.resize(mm);
  for (auto& col : W) col.resize(len);
  thread_local std::vector<std::uint32_t> loc;
  if (loc.size() < A.n) loc.resize(A.n);
  for_each_run_local(part, ebox, ebox,
                     [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                       for (std::size_t i = glo; i < ghi; ++i) {
                         const std::size_t li = lb + i - glo;
                         W[0][li] = p[i];
                         W[s + 1][li] = r[i];
                         loc[i] = std::uint32_t(li);
                       }
                     });

  const std::size_t nx = part.nx(), ny = part.ny(), nz = part.nz();
  const std::size_t rad = part.radius();
  std::uint64_t a_words = 0;
  const auto advance = [&](std::size_t from, std::size_t to,
                           std::size_t level, double theta) {
    const BlockRange vx = basis_valid_window(ebox.x0, ebox.x1, nx, level, rad);
    const BlockRange vy = basis_valid_window(ebox.y0, ebox.y1, ny, level, rad);
    const BlockRange vz = basis_valid_window(ebox.z0, ebox.z1, nz, level, rad);
    const NodeBox v{vx.off, vx.off + vx.sz, vy.off, vy.off + vy.sz,
                    vz.off, vz.off + vz.sz};
    if (v.empty()) return;
    const double* fc = W[from].data();
    double* tc = W[to].data();
    for_each_run_local(
        part, v, ebox,
        [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
          for (std::size_t i = glo; i < ghi; ++i) {
            double t = 0;
            for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
              t += A.values[q] * fc[loc[A.col_idx[q]]];
            }
            tc[lb + i - glo] = (t - theta * fc[lb + i - glo]) / bc.sigma;
          }
          a_words += 2 * rows_nnz(A, glo, ghi);  // A values + cols
        });
  };
  for (std::size_t j = 0; j < s; ++j) {
    advance(j, j + 1, j + 1, bc.theta[j]);
  }
  for (std::size_t j = 0; j + 1 < s; ++j) {
    advance(s + 1 + j, s + 1 + j + 1, j + 1, bc.theta[j]);
  }
  return a_words;
}

// ---- graph-partition matrix-powers plans --------------------------------
//
// The box solvers derive every extent, validity window, and charge
// from NodeBox geometry.  On a GraphPartition the owned sets are
// general index sets, so each rank's basis work is precomputed once
// per solve as GraphChunks: the exact s-hop closure of the chunk's
// target rows (the extent the ghost exchange fills), a local CSR
// over the extent, and the per-level computable row sets read off
// the sparsity -- level l keeps the rows whose every column lies in
// level l-1's set, the graph form of basis_valid_window's per-axis
// shrink (owned rows survive to level s because the extent is their
// s-hop closure).  The per-row arithmetic is the same shifted
// recurrence as build_basis_box, accumulated in A's stored column
// order, so at P = 1 (extent = every row, all levels full) the
// iterates stay bitwise-identical to the shared-memory solver.

struct GraphChunk {
  std::vector<std::size_t> ext;  // sorted global rows of the extent
  // Extent-local CSR: full rows for level-1 rows (all columns inside
  // the extent), empty rows otherwise -- rows outside level 1 are
  // never advanced, so their columns are never read.
  std::vector<std::size_t> lrp, lcols;
  std::vector<double> lvals;
  // Extent-local [lo, hi) runs of the level-l computable set
  // (lvl[l - 1], l = 1..s) and the A-words each level reads.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> lvl;
  std::vector<std::uint64_t> lvl_nnz;
  // Extent-local runs of the rows this chunk Grams and recovers: the
  // rank's owned rows (stored mode) or its streaming slice.
  std::vector<std::pair<std::size_t, std::size_t>> target;
  std::size_t tsz = 0;        // rows in target
  std::size_t overlap = 0;    // |extent ∩ owned(p)|: slow-read words
  std::uint64_t a_words = 0;  // A words one basis build reads
};

/// Maximal contiguous [lo, hi) runs of a sorted index list.
std::vector<std::pair<std::size_t, std::size_t>> index_runs(
    const std::vector<std::size_t>& v) {
  std::vector<std::pair<std::size_t, std::size_t>> rn;
  for (std::size_t k = 0; k < v.size();) {
    std::size_t e = k + 1;
    while (e < v.size() && v[e] == v[e - 1] + 1) ++e;
    rn.emplace_back(v[k], v[e - 1] + 1);
    k = e;
  }
  return rn;
}

GraphChunk make_graph_chunk(const sparse::Csr& A, const GraphPartition& gp,
                            std::size_t rank,
                            const std::vector<std::size_t>& seed,
                            std::size_t s) {
  GraphChunk ck;
  ck.ext = gp.closure(seed, s);
  const std::size_t len = ck.ext.size();
  ck.tsz = seed.size();

  std::vector<std::size_t> loc(A.n, std::size_t(-1));
  for (std::size_t li = 0; li < len; ++li) loc[ck.ext[li]] = li;

  // Local CSR and the level-1 set in one pass: a row joins level 1
  // iff every column is inside the extent (an empty local row must
  // not count -- membership is tested on the global pattern).
  ck.lrp.assign(len + 1, 0);
  std::vector<std::size_t> cur;
  cur.reserve(len);
  for (std::size_t li = 0; li < len; ++li) {
    const std::size_t i = ck.ext[li];
    bool all_in = true;
    for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
      if (loc[A.col_idx[q]] == std::size_t(-1)) {
        all_in = false;
        break;
      }
    }
    if (all_in) {
      for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
        ck.lcols.push_back(loc[A.col_idx[q]]);
        ck.lvals.push_back(A.values[q]);
      }
      cur.push_back(li);
    }
    ck.lrp[li + 1] = ck.lcols.size();
  }

  ck.lvl.reserve(s);
  ck.lvl_nnz.reserve(s);
  std::vector<char> mem(len, 0);
  std::vector<std::size_t> next;
  for (std::size_t l = 1; l <= s; ++l) {
    if (l > 1) {
      // Shrink: level l keeps the rows of level l-1 whose columns
      // all sit in level l-1 (local columns suffice -- the kept rows
      // are level-1 rows, whose local rows are complete).
      std::fill(mem.begin(), mem.end(), 0);
      for (const std::size_t li : cur) mem[li] = 1;
      next.clear();
      for (const std::size_t li : cur) {
        bool ok = true;
        for (std::size_t q = ck.lrp[li]; q < ck.lrp[li + 1]; ++q) {
          if (!mem[ck.lcols[q]]) {
            ok = false;
            break;
          }
        }
        if (ok) next.push_back(li);
      }
      cur.swap(next);
    }
    std::uint64_t nz = 0;
    for (const std::size_t li : cur) nz += ck.lrp[li + 1] - ck.lrp[li];
    ck.lvl.push_back(index_runs(cur));
    ck.lvl_nnz.push_back(nz);
  }

  // A values + cols per advance: p-chain levels 1..s, r-chain 1..s-1
  // (the same accounting build_basis_box's advance makes per run).
  for (std::size_t l = 1; l <= s; ++l) ck.a_words += 2 * ck.lvl_nnz[l - 1];
  for (std::size_t l = 1; l + 1 <= s; ++l) {
    ck.a_words += 2 * ck.lvl_nnz[l - 1];
  }

  std::vector<std::size_t> tloc(seed.size());
  for (std::size_t k = 0; k < seed.size(); ++k) tloc[k] = loc[seed[k]];
  ck.target = index_runs(tloc);  // seed and ext sorted => tloc ascending

  for (const std::size_t i : ck.ext) {
    if (gp.owner_of(i) == rank) ++ck.overlap;
  }
  return ck;
}

/// Per-rank basis plans for one solve, loop-invariant across outer
/// iterations: one whole-owned-set chunk per rank when stored,
/// ~block_rows-row slices of the owned list when streaming (the
/// graph analogue of stream_chunks, including the <= 2x extent
/// re-read amplification between adjacent chunks).
std::vector<std::vector<GraphChunk>> make_graph_plan(
    const sparse::Csr& A, const GraphPartition& gp, std::size_t s,
    CaCgMode mode, std::size_t block_rows) {
  const std::size_t P = gp.ranks();
  std::vector<std::vector<GraphChunk>> plan(P);
  for (std::size_t p = 0; p < P; ++p) {
    const auto& own = gp.owned_rows(p);
    if (own.empty()) continue;
    if (mode == CaCgMode::kStored) {
      plan[p].push_back(make_graph_chunk(A, gp, p, own, s));
      continue;
    }
    for (std::size_t lo = 0; lo < own.size(); lo += block_rows) {
      const std::size_t hi = std::min(own.size(), lo + block_rows);
      const std::vector<std::size_t> slice(own.begin() + lo,
                                           own.begin() + hi);
      plan[p].push_back(make_graph_chunk(A, gp, p, slice, s));
    }
  }
  return plan;
}

/// build_basis_box's graph twin: heads gathered from p and r over the
/// extent, then the shifted recurrence over the shrinking level runs.
std::uint64_t build_basis_graph(const GraphChunk& ck,
                                const kd::BasisCoeffs& bc, std::size_t s,
                                const std::vector<double>& p,
                                const std::vector<double>& r,
                                std::vector<std::vector<double>>& W) {
  const std::size_t mm = 2 * s + 1;
  const std::size_t len = ck.ext.size();
  W.resize(mm);
  for (auto& col : W) col.resize(len);
  for (std::size_t li = 0; li < len; ++li) {
    W[0][li] = p[ck.ext[li]];
    W[s + 1][li] = r[ck.ext[li]];
  }
  const auto advance = [&](std::size_t from, std::size_t to,
                           std::size_t level, double theta) {
    const double* fc = W[from].data();
    double* tc = W[to].data();
    for (const auto& [llo, lhi] : ck.lvl[level - 1]) {
      for (std::size_t li = llo; li < lhi; ++li) {
        double t = 0;
        for (std::size_t q = ck.lrp[li]; q < ck.lrp[li + 1]; ++q) {
          t += ck.lvals[q] * fc[ck.lcols[q]];
        }
        tc[li] = (t - theta * fc[li]) / bc.sigma;
      }
    }
  };
  for (std::size_t j = 0; j < s; ++j) {
    advance(j, j + 1, j + 1, bc.theta[j]);
  }
  for (std::size_t j = 0; j + 1 < s; ++j) {
    advance(s + 1 + j, s + 1 + j + 1, j + 1, bc.theta[j]);
  }
  return ck.a_words;
}

/// Gram partial over the chunk's target runs (one gram_upper_acc call
/// per run: the whole-vs-split bitwise invariance of the kernel keeps
/// P = 1, with its single [0, n) run, equal to the shared-memory
/// solver's one call).
void graph_gram(const GraphChunk& ck, kd::Small& gacc, std::size_t mm,
                const std::vector<std::vector<double>>& W) {
  std::vector<const double*> wp(mm);
  for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
  for (const auto& [llo, lhi] : ck.target) {
    linalg::active_kernels().gram_upper_acc(gacc.a.data(), mm, wp.data(),
                                            llo, lhi);
  }
}

/// Recovery over the chunk's target rows:
/// [pout, rout, x] = [W] [ph, rh, xh] + [0, 0, x], scattered back to
/// global indices through ext.
void graph_recover(const GraphChunk& ck, std::size_t mm,
                   const std::vector<std::vector<double>>& W,
                   const std::vector<double>& ph,
                   const std::vector<double>& rh,
                   const std::vector<double>& xh, std::span<double> x,
                   std::vector<double>& pout, std::vector<double>& rout) {
  for (const auto& [llo, lhi] : ck.target) {
    for (std::size_t li = llo; li < lhi; ++li) {
      const std::size_t i = ck.ext[li];
      double np = 0, nr = 0, nx2 = x[i];
      for (std::size_t a = 0; a < mm; ++a) {
        np += W[a][li] * ph[a];
        nr += W[a][li] * rh[a];
        nx2 += W[a][li] * xh[a];
      }
      pout[i] = np;
      rout[i] = nr;
      x[i] = nx2;
    }
  }
}

/// Shared solve setup: ghost exchange of x, per-rank r = b - A x and
/// p = r (charged at the shared-memory rates), delta = <r, r> via
/// allreduce, and <b, b> for the stopping threshold (rank-ordered but
/// uncharged reads, matching the shared-memory solvers).
struct SetupResult {
  double delta;
  double bb;
};

SetupResult residual_setup(PartRun& rp,
                           const std::vector<HaloTransfer>& halo1,
                           const std::vector<std::size_t>& recv1,
                           std::span<const double> b, std::span<double> x,
                           std::vector<double>& r, std::vector<double>& p,
                           std::vector<double>& w) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;

  rp.exchange(halo1, 1);
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        w[i] = kd::row_dot(A, i, x.data(), 0);
      }
    });
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        r[i] = b[i] - w[i];
        p[i] = r[i];
      }
    });
    detail::charge_l2_transit(h, recv1[rank], m.M2(), 0);
    detail::charge_l3_read(h, rp.own_nnz[rank] + 3 * rp.own_sz[rank],
                           m.M2());
    detail::charge_l3_write(h, 2 * rp.own_sz[rank], m.M2());
  });

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    double sum = 0.0;
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sum += r[i] * r[i];
    });
    rp.partial[rank] = sum;
    detail::charge_l3_read(h, 2 * rp.own_sz[rank], m.M2());
  });
  const double delta = rp.allreduce(rp.partial);

  double bb = 0.0;
  for (std::size_t q = 0; q < rp.P; ++q) {
    double sum = 0.0;
    rp.for_runs(q, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sum += b[i] * b[i];
    });
    bb += sum;
  }
  rp.allreduce_charge(1, &bb);
  return {delta, bb};
}

/// One classical CG step on the partition, charged at the classical
/// per-step rates (reads A + O(n)/P, writes 4n/P per rank).
/// @p check_den mirrors the caller: krylov::cg runs the division
/// unconditionally, the CA-CG restart fallback bails on breakdown.
struct StepResult {
  double delta;
  bool breakdown;
};

StepResult cg_step(PartRun& rp, const std::vector<HaloTransfer>& halo1,
                   const std::vector<std::size_t>& recv1,
                   std::span<double> x, std::vector<double>& r,
                   std::vector<double>& p, std::vector<double>& w,
                   double delta, bool check_den) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;

  rp.exchange(halo1, 1);  // p ghosts for the spmv
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    double sum = 0.0;
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        w[i] = kd::row_dot(A, i, p.data(), 0);
      }
    });
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) sum += p[i] * w[i];
    });
    rp.partial[rank] = sum;
    detail::charge_l2_transit(h, recv1[rank], m.M2(), 0);
    detail::charge_l3_read(h, rp.own_nnz[rank] + 3 * rp.own_sz[rank],
                           m.M2());
    detail::charge_l3_write(h, rp.own_sz[rank], m.M2());  // w
  });
  const double den = rp.allreduce(rp.partial);
  if (check_den && (den <= 0 || !std::isfinite(den))) {
    return {delta, true};
  }
  const double alpha = delta / den;

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    double sum = 0.0;
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) x[i] += alpha * p[i];
      for (std::size_t i = lo; i < hi; ++i) r[i] -= alpha * w[i];
      for (std::size_t i = lo; i < hi; ++i) sum += r[i] * r[i];
    });
    rp.partial[rank] = sum;
    detail::charge_l3_read(h, 6 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, 2 * rp.own_sz[rank], m.M2());  // x, r
  });
  const double delta_new = rp.allreduce(rp.partial);
  const double beta = delta_new / delta;

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        p[i] = r[i] + beta * p[i];
      }
    });
    detail::charge_l3_read(h, 2 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, rp.own_sz[rank], m.M2());  // p
  });
  return {delta_new, false};
}

/// Uncharged diagnostic shared with the shared-memory solvers: the
/// true residual of the final iterate, computed globally.
double true_residual(const sparse::Csr& A, std::span<const double> b,
                     std::span<const double> x) {
  std::vector<double> ax(A.n);
  sparse::spmv(A, x, ax);
  double rn = 0;
  for (std::size_t i = 0; i < A.n; ++i) {
    const double d = b[i] - ax[i];
    rn += d * d;
  }
  return std::sqrt(rn);
}

}  // namespace

KrylovResult cg(Machine& m, const Partition& part, const sparse::Csr& A,
                std::span<const double> b, std::span<double> x,
                std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("dist::cg: size mismatch");
  }
  PartRun rp(m, A, part);
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, rp.P);

  KrylovResult out;
  std::vector<double> r(n), p(n), w(n);

  const SetupResult init = residual_setup(rp, halo1, recv1, b, x, r, p, w);
  double delta = init.delta;
  const double stop = tol * tol * init.bb;

  for (std::size_t it = 0; it < max_iters; ++it) {
    if (delta <= stop) {
      out.converged = true;
      break;
    }
    delta = cg_step(rp, halo1, recv1, x, r, p, w, delta,
                    /*check_den=*/false)
                .delta;
    ++out.iterations;
  }

  out.residual_norm = true_residual(A, b, x);
  if (!out.converged) {
    out.converged = out.residual_norm <= tol * sparse::norm2(b);
  }
  return out;
}

KrylovResult ca_cg(Machine& m, const Partition& part, const sparse::Csr& A,
                   std::span<const double> b, std::span<double> x,
                   const CaCgOptions& opt) {
  const std::size_t n = A.n;
  const std::size_t s = opt.s;
  if (s == 0) throw std::invalid_argument("dist::ca_cg: s >= 1");
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("dist::ca_cg: size mismatch");
  }
  const std::size_t mm = 2 * s + 1;
  const kd::BasisCoeffs bc =
      kd::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  PartRun rp(m, A, part);
  const std::size_t P = rp.P;
  const std::size_t ext = s * part.radius();
  std::size_t block_rows = opt.block_rows;
  if (block_rows == 0) {
    block_rows = std::max<std::size_t>(4 * s * part.radius(), 256);
  }
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, P);
  const auto halo_s = part.halo(ext);
  const auto recv_s = recv_rows(halo_s, P);

  KrylovResult out;
  std::vector<double> r(n), p(n), w(n);

  const SetupResult init = residual_setup(rp, halo1, recv1, b, x, r, p, w);
  double delta = init.delta;
  const double stop = opt.tol * opt.tol * init.bb;

  std::size_t restarts = 0;
  constexpr std::size_t kMaxRestarts = 25;

  std::vector<double> x_snap(n), p_snap(n), r_snap(n);
  std::vector<double> pn(n), rn(n);  // streaming recovery targets

  // Per-rank scratch living across the basis and recovery phases of
  // one outer iteration, recycled across outer iterations and
  // streaming blocks: the rank's extended basis and
  // its Gram partial.  Indexed by rank, so concurrent phases touch
  // disjoint slots.
  std::vector<std::vector<std::vector<double>>> Vloc(P);
  std::vector<kd::Small> gpart(P, kd::Small(mm));

  // Sparsity-derived basis plans, built once per solve (the closure
  // and level sets depend only on the pattern and s).
  std::vector<std::vector<GraphChunk>> gplan;
  if (rp.gp != nullptr) {
    gplan = make_graph_plan(A, *rp.gp, s, opt.mode, block_rows);
  }

  for (std::size_t outer = 0; outer < opt.max_outer; ++outer) {
    if (delta <= stop) {
      out.converged = true;
      break;
    }
    const double delta_enter = delta;
    x_snap.assign(x.begin(), x.end());
    p_snap = p;
    r_snap = r;

    kd::Small G(mm);
    for (kd::Small& gp : gpart) std::fill(gp.a.begin(), gp.a.end(), 0.0);

    // One ghost exchange of depth s*radius covers every basis column
    // of the outer iteration (the matrix-powers optimization).
    rp.exchange(halo_s, 2);  // p and r travel together

    if (opt.mode == CaCgMode::kStored) {
      // ---- basis + Gram phase: each rank materializes all 2s+1
      // columns of its own nodes (redundantly extending into the
      // ghost region), writing each finished own-node column to slow
      // memory once, then accumulates its Gram partial.
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        auto& W = Vloc[rank];
        if (rp.own_sz[rank] == 0) {
          W.clear();
          return;
        }
        if (rp.gp != nullptr) {
          // Same charge shapes as the box body below; only the basis
          // extent and Gram ranges come from the sparsity plan.
          const std::size_t osz = rp.own_sz[rank];
          const GraphChunk& ck = gplan[rank][0];
          const std::uint64_t a_words =
              build_basis_graph(ck, bc, s, p, r, W);
          detail::charge_l2_transit(h, 2 * recv_s[rank], m.M2(), 0);
          detail::charge_l3_read(h, 2 * osz, m.M2());
          detail::charge_l3_write(h, 2 * osz, m.M2());  // basis heads
          detail::charge_l3_read(h, a_words, m.M2());
          detail::charge_l3_write(h, (2 * s - 1) * osz, m.M2());
          graph_gram(ck, gpart[rank], mm, W);
          detail::charge_l3_read(h, mm * osz, m.M2());  // basis re-read
          return;
        }
        const NodeBox& o = rp.own[rank];
        const std::size_t osz = rp.own_sz[rank];
        const NodeBox ebox = part.extended(rank, ext);
        const std::uint64_t a_words =
            build_basis_box(A, part, bc, s, p, r, ebox, W);
        detail::charge_l2_transit(h, 2 * recv_s[rank], m.M2(), 0);
        detail::charge_l3_read(h, 2 * osz, m.M2());
        detail::charge_l3_write(h, 2 * osz, m.M2());  // basis heads
        detail::charge_l3_read(h, a_words, m.M2());
        // Every non-head column of the rank's own nodes hits slow
        // memory once -- the Theta(n) stored-basis write stream.
        detail::charge_l3_write(h, (2 * s - 1) * osz, m.M2());

        kd::Small& gp = gpart[rank];
        std::vector<const double*> wp(mm);
        for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
        for_each_run_local(
            part, o, ebox,
            [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
              linalg::active_kernels().gram_upper_acc(
                  gp.a.data(), mm, wp.data(), lb, lb + (ghi - glo));
            });
        detail::charge_l3_read(h, mm * osz, m.M2());  // basis re-read
      });
    } else {
      // ---- streaming pass 1: blockwise basis + Gram accumulation;
      // basis blocks live in fast buffers and are discarded, so this
      // pass writes nothing to slow memory.
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        detail::charge_l2_transit(h, 2 * recv_s[rank], m.M2(), 0);
        kd::Small& gp = gpart[rank];
        auto& W = Vloc[rank];
        if (rp.gp != nullptr) {
          for (const GraphChunk& ck : gplan[rank]) {
            const std::uint64_t a_words =
                build_basis_graph(ck, bc, s, p, r, W);
            detail::charge_l3_read(h, 2 * ck.overlap, m.M2());
            detail::charge_l3_read(h, a_words, m.M2());
            graph_gram(ck, gp, mm, W);
          }
          return;
        }
        const NodeBox& o = rp.own[rank];
        for (const NodeBox& c : stream_chunks(part, o, block_rows)) {
          const NodeBox ebox = dilate_clipped(part, c, ext);
          const std::uint64_t a_words =
              build_basis_box(A, part, bc, s, p, r, ebox, W);
          // Slow-memory reads: the extent's overlap with the rank's
          // own nodes (adjacent own blocks re-read the overlap -- the
          // <= 2x read amplification); ghost nodes arrived by network.
          detail::charge_l3_read(h, 2 * box_overlap(ebox, o), m.M2());
          detail::charge_l3_read(h, a_words, m.M2());

          std::vector<const double*> wp(mm);
          for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
          for_each_run_local(
              part, c, ebox,
              [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                linalg::active_kernels().gram_upper_acc(
                    gp.a.data(), mm, wp.data(), lb, lb + (ghi - glo));
              });
        }
      });
    }

    // Allreduce of the Gram partials: combined in rank order, charged
    // as reduce + bcast of the upper triangle.
    for (std::size_t q = 0; q < P; ++q) {
      for (std::size_t a = 0; a < mm; ++a) {
        for (std::size_t c = a; c < mm; ++c) G(a, c) += gpart[q](a, c);
      }
    }
    linalg::gram_mirror(G.a.data(), mm);
    // The combined Gram matrix is in hand; its packed triangle rides
    // the charged allreduce as the real payload.
    rp.allreduce_charge(mm * (mm + 1) / 2, G.a.data());

    // ---- inner s steps in coordinates: O(s^2) data, replicated on
    // every rank (fast memory only, so nothing is charged).
    std::vector<double> xh(mm, 0.0), ph(mm, 0.0), rh(mm, 0.0);
    ph[0] = 1.0;
    rh[s + 1] = 1.0;
    krylov::Traffic fast;  // inner-step flops; no slow channel to charge
    const auto inner = kd::inner_steps(s, bc, G, xh, ph, rh, delta, fast);
    if (inner.breakdown) break;
    out.iterations += s;

    // ---- recovery: [p, r, x] = [P, R] [ph, rh, xh] + [0, 0, x].
    if (opt.mode == CaCgMode::kStored) {
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        const std::size_t osz = rp.own_sz[rank];
        if (rp.gp != nullptr) {
          graph_recover(gplan[rank][0], mm, Vloc[rank], ph, rh, xh, x, p,
                        r);
          detail::charge_l3_read(h, mm * osz + osz, m.M2());
          detail::charge_l3_write(h, 3 * osz, m.M2());
          return;
        }
        const NodeBox& o = rp.own[rank];
        const NodeBox ebox = part.extended(rank, ext);
        const auto& W = Vloc[rank];
        for_each_run_local(
            part, o, ebox,
            [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
              for (std::size_t i = glo; i < ghi; ++i) {
                const std::size_t li = lb + i - glo;
                double np = 0, nr = 0, nx2 = x[i];
                for (std::size_t a = 0; a < mm; ++a) {
                  np += W[a][li] * ph[a];
                  nr += W[a][li] * rh[a];
                  nx2 += W[a][li] * xh[a];
                }
                p[i] = np;
                r[i] = nr;
                x[i] = nx2;
              }
            });
        detail::charge_l3_read(h, mm * osz + osz, m.M2());
        detail::charge_l3_write(h, 3 * osz, m.M2());
      });
    } else {
      // ---- streaming pass 2: recompute the basis blockwise and fuse
      // the recovery (the <= 2x flop doubling the paper trades for
      // the Theta(s) write reduction); only x, p, r are written.
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        auto& W = Vloc[rank];
        if (rp.gp != nullptr) {
          for (const GraphChunk& ck : gplan[rank]) {
            const std::uint64_t a_words =
                build_basis_graph(ck, bc, s, p, r, W);
            detail::charge_l3_read(h, 2 * ck.overlap, m.M2());
            detail::charge_l3_read(h, a_words, m.M2());
            graph_recover(ck, mm, W, ph, rh, xh, x, pn, rn);
            detail::charge_l3_read(h, ck.tsz, m.M2());       // x
            detail::charge_l3_write(h, 3 * ck.tsz, m.M2());  // x, p, r
          }
          return;
        }
        const NodeBox& o = rp.own[rank];
        for (const NodeBox& c : stream_chunks(part, o, block_rows)) {
          const NodeBox ebox = dilate_clipped(part, c, ext);
          const std::uint64_t a_words =
              build_basis_box(A, part, bc, s, p, r, ebox, W);
          detail::charge_l3_read(h, 2 * box_overlap(ebox, o), m.M2());
          detail::charge_l3_read(h, a_words, m.M2());

          for_each_run_local(
              part, c, ebox,
              [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                for (std::size_t i = glo; i < ghi; ++i) {
                  const std::size_t li = lb + i - glo;
                  double np = 0, nr = 0, nx2 = x[i];
                  for (std::size_t a = 0; a < mm; ++a) {
                    np += W[a][li] * ph[a];
                    nr += W[a][li] * rh[a];
                    nx2 += W[a][li] * xh[a];
                  }
                  pn[i] = np;
                  rn[i] = nr;
                  x[i] = nx2;
                }
              });
          const std::size_t csz = c.volume();
          detail::charge_l3_read(h, csz, m.M2());       // x
          detail::charge_l3_write(h, 3 * csz, m.M2());  // x, p, r
        }
      });
      p.swap(pn);
      r.swap(rn);
    }

    // Recompute delta from the *recovered* residual; a large
    // disagreement with the coordinate-space value flags breakdown.
    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += r[i] * r[i];
      });
      rp.partial[rank] = sum;
      detail::charge_l3_read(h, 2 * rp.own_sz[rank], m.M2());
    });
    const double delta_true = rp.allreduce(rp.partial);

    if (!std::isfinite(delta_true) || delta_true > 16.0 * delta_enter) {
      // Basis breakdown: roll back this outer iteration (simulation
      // bookkeeping, uncharged -- as in the shared-memory solver) and
      // take the same s steps with distributed classical CG instead.
      if (++restarts > kMaxRestarts) break;
      out.iterations -= s;
      std::copy(x_snap.begin(), x_snap.end(), x.begin());
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = p_snap[i];
        r[i] = r_snap[i];
      }
      delta = delta_enter;
      for (std::size_t j = 0; j < s && delta > stop; ++j) {
        const StepResult step = cg_step(rp, halo1, recv1, x, r, p, w,
                                        delta, /*check_den=*/true);
        if (step.breakdown) break;
        delta = step.delta;
        ++out.iterations;
      }
      continue;
    }
    delta = delta_true;
  }

  out.residual_norm = true_residual(A, b, x);
  if (!out.converged) {
    out.converged = out.residual_norm <= opt.tol * sparse::norm2(b) * 10.0;
  }
  return out;
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

// ---- batched multi-RHS solvers ------------------------------------------
//
// The batch keeps nrhs fully independent per-RHS recurrences: every
// floating-point operation an RHS sees is the one the single-RHS
// solver would execute, in the same order, so iterates are bitwise-
// identical for any batch composition and finished/broken-down RHS
// drop out without perturbing the others.  Sharing happens in the
// *charging*: words of A are read once per traversal, each halo
// exchange is one event shipping all active panels, and each
// allreduce is one event combining all active scalars/Grams.  Per-RHS
// vector words carry an active-count multiplier, so at nrhs == 1
// every counter is identical to the single-RHS solver's.

namespace {

void check_batch_panels(std::size_t n, std::size_t nrhs, std::size_t bsz,
                        std::size_t xsz, const char* who) {
  if (bsz < n * nrhs || xsz < n * nrhs) {
    throw std::invalid_argument(std::string(who) +
                                ": panel spans must hold n*nrhs words");
  }
}

struct BatchSetupResult {
  std::vector<double> delta;
  std::vector<double> bb;
};

/// Batched residual_setup: one exchange event ships all nrhs x
/// panels, one A traversal serves every initial residual, and the
/// nrhs deltas travel in one allreduce event.
BatchSetupResult residual_setup_batch(
    PartRun& rp, const std::vector<HaloTransfer>& halo1,
    const std::vector<std::size_t>& recv1, std::span<const double> B,
    std::span<double> X, std::vector<std::vector<double>>& r,
    std::vector<std::vector<double>>& p, std::vector<std::vector<double>>& w,
    std::size_t nrhs) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;
  const std::size_t n = A.n;

  BatchSetupResult out;
  out.delta.assign(nrhs, 0.0);
  out.bb.assign(nrhs, 0.0);
  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(rp.P, 0.0));

  rp.exchange(halo1, nrhs);
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t j = 0; j < nrhs; ++j) {
      const auto xj = X.subspan(j * n, n);
      const auto bj = B.subspan(j * n, n);
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          w[j][i] = kd::row_dot(A, i, xj.data(), 0);
        }
      });
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          r[j][i] = bj[i] - w[j][i];
          p[j][i] = r[j][i];
        }
      });
    }
    detail::charge_l2_transit(h, nrhs * recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, rp.own_nnz[rank] + nrhs * 3 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nrhs * 2 * rp.own_sz[rank], m.M2());
  });

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t j = 0; j < nrhs; ++j) {
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          sum += r[j][i] * r[j][i];
        }
      });
      partj[j][rank] = sum;
    }
    detail::charge_l3_read(h, nrhs * 2 * rp.own_sz[rank], m.M2());
  });
  for (std::size_t j = 0; j < nrhs; ++j) {
    double sum = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) sum += partj[j][q];
    out.delta[j] = sum;
  }
  rp.allreduce_charge(nrhs, out.delta.data());

  for (std::size_t j = 0; j < nrhs; ++j) {
    const auto bj = B.subspan(j * n, n);
    double bb = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) {
      double sum = 0.0;
      rp.for_runs(q, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += bj[i] * bj[i];
      });
      bb += sum;
    }
    out.bb[j] = bb;
  }
  rp.allreduce_charge(nrhs, out.bb.data());
  return out;
}

/// One batched classical CG step over the RHS set @p act: the phases
/// and per-RHS charges of cg_step with an active-count multiplier on
/// the vector words, one exchange event, one A traversal, and one
/// allreduce event per scalar round.  With @p check_den a non-positive
/// or non-finite den retires that RHS after phase 1 (marked in
/// @p broke, no phase 2/3 work or charges, no delta update), exactly
/// mirroring the single solver's early return.
void cg_step_batch(PartRun& rp, const std::vector<HaloTransfer>& halo1,
                   const std::vector<std::size_t>& recv1,
                   std::span<double> X, std::vector<std::vector<double>>& r,
                   std::vector<std::vector<double>>& p,
                   std::vector<std::vector<double>>& w,
                   std::vector<double>& delta,
                   const std::vector<std::size_t>& act, bool check_den,
                   std::vector<char>* broke) {
  Machine& m = rp.m;
  const sparse::Csr& A = rp.A;
  const std::size_t n = A.n;
  const std::uint64_t na = act.size();
  std::vector<std::vector<double>> partj(act.size(),
                                         std::vector<double>(rp.P, 0.0));

  rp.exchange(halo1, na);  // all active p panels travel together
  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (std::size_t idx = 0; idx < act.size(); ++idx) {
      const std::size_t j = act[idx];
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          w[j][i] = kd::row_dot(A, i, p[j].data(), 0);
        }
      });
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) sum += p[j][i] * w[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l2_transit(h, na * recv1[rank], m.M2(), 0);
    detail::charge_l3_read(
        h, rp.own_nnz[rank] + na * 3 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, na * rp.own_sz[rank], m.M2());  // w
  });
  rp.allreduce_charge(na);

  std::vector<std::size_t> live;
  std::vector<double> alpha(act.size(), 0.0);
  for (std::size_t idx = 0; idx < act.size(); ++idx) {
    const std::size_t j = act[idx];
    double den = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) den += partj[idx][q];
    if (check_den && (den <= 0 || !std::isfinite(den))) {
      if (broke != nullptr) (*broke)[j] = 1;
      continue;
    }
    alpha[idx] = delta[j] / den;
    live.push_back(idx);
  }
  if (live.empty()) return;
  const std::uint64_t nl = live.size();

  m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
    for (const std::size_t idx : live) {
      const std::size_t j = act[idx];
      const auto xj = X.subspan(j * n, n);
      double sum = 0.0;
      rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) xj[i] += alpha[idx] * p[j][i];
        for (std::size_t i = lo; i < hi; ++i) r[j][i] -= alpha[idx] * w[j][i];
        for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
      });
      partj[idx][rank] = sum;
    }
    detail::charge_l3_read(h, nl * 6 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * 2 * rp.own_sz[rank], m.M2());  // x, r
  });
  rp.allreduce_charge(nl);
  std::vector<double> beta(act.size(), 0.0);
  for (const std::size_t idx : live) {
    const std::size_t j = act[idx];
    double delta_new = 0.0;
    for (std::size_t q = 0; q < rp.P; ++q) delta_new += partj[idx][q];
    beta[idx] = delta_new / delta[j];
    delta[j] = delta_new;
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
    detail::charge_l3_read(h, nl * 2 * rp.own_sz[rank], m.M2());
    detail::charge_l3_write(h, nl * rp.own_sz[rank], m.M2());  // p
  });
}

}  // namespace

KrylovBatchResult cg_batch(Machine& m, const Partition& part,
                           const sparse::Csr& A, std::span<const double> B,
                           std::span<double> X, std::size_t nrhs,
                           std::size_t max_iters, double tol) {
  const std::size_t n = A.n;
  check_batch_panels(n, nrhs, B.size(), X.size(), "dist::cg_batch");
  PartRun rp(m, A, part);
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, rp.P);

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> w(nrhs, std::vector<double>(n));

  const BatchSetupResult init =
      residual_setup_batch(rp, halo1, recv1, B, X, r, p, w, nrhs);
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
    cg_step_batch(rp, halo1, recv1, X, r, p, w, delta, act,
                  /*check_den=*/false, nullptr);
    for (const std::size_t j : act) ++out.rhs[j].iterations;
  }

  for (std::size_t j = 0; j < nrhs; ++j) {
    const auto bj = B.subspan(j * n, n);
    out.rhs[j].residual_norm = true_residual(A, bj, X.subspan(j * n, n));
    if (!out.rhs[j].converged) {
      out.rhs[j].converged =
          out.rhs[j].residual_norm <= tol * sparse::norm2(bj);
    }
  }
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
  const kd::BasisCoeffs bc =
      kd::make_basis(A, s, opt.basis == CaCgBasis::kNewton);

  PartRun rp(m, A, part);
  const std::size_t P = rp.P;
  const std::size_t ext = s * part.radius();
  std::size_t block_rows = opt.block_rows;
  if (block_rows == 0) {
    block_rows = std::max<std::size_t>(4 * s * part.radius(), 256);
  }
  const auto halo1 = part.halo(part.radius());
  const auto recv1 = recv_rows(halo1, P);
  const auto halo_s = part.halo(ext);
  const auto recv_s = recv_rows(halo_s, P);

  KrylovBatchResult out;
  out.rhs.resize(nrhs);
  if (nrhs == 0) return out;

  std::vector<std::vector<double>> r(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> p(nrhs, std::vector<double>(n));
  std::vector<std::vector<double>> w(nrhs, std::vector<double>(n));

  const BatchSetupResult init =
      residual_setup_batch(rp, halo1, recv1, B, X, r, p, w, nrhs);
  std::vector<double> delta = init.delta, stop(nrhs), delta_enter(nrhs, 0.0);
  for (std::size_t j = 0; j < nrhs; ++j) {
    stop[j] = opt.tol * opt.tol * init.bb[j];
  }

  std::vector<std::size_t> restarts(nrhs, 0);
  constexpr std::size_t kMaxRestarts = 25;
  std::vector<char> finished(nrhs, 0);

  std::vector<std::vector<double>> x_snap(nrhs), p_snap(nrhs), r_snap(nrhs);
  std::vector<std::vector<double>> pn(nrhs), rn(nrhs);

  // Per-rank scratch: the stored mode keeps every RHS's extended
  // basis alive until recovery (rank x RHS slots); the streaming mode
  // rebuilds blockwise, so one basis block per rank is recycled
  // across chunks and RHS.  Gram partials are per rank per RHS.
  std::vector<std::vector<std::vector<std::vector<double>>>> Vloc(
      P, std::vector<std::vector<std::vector<double>>>(nrhs));
  std::vector<std::vector<std::vector<double>>> Wloc(P);
  std::vector<std::vector<kd::Small>> gpart(
      P, std::vector<kd::Small>(nrhs, kd::Small(mm)));
  std::vector<std::vector<double>> partj(nrhs,
                                         std::vector<double>(P, 0.0));

  // Sparsity-derived basis plans, shared by every RHS (the closure
  // and level sets depend only on the pattern and s).
  std::vector<std::vector<GraphChunk>> gplan;
  if (rp.gp != nullptr) {
    gplan = make_graph_plan(A, *rp.gp, s, opt.mode, block_rows);
  }

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

    for (const std::size_t j : act) {
      delta_enter[j] = delta[j];
      const auto xj = X.subspan(j * n, n);
      x_snap[j].assign(xj.begin(), xj.end());
      p_snap[j] = p[j];
      r_snap[j] = r[j];
    }

    std::vector<kd::Small> G(nrhs, kd::Small(mm));
    for (std::size_t q = 0; q < P; ++q) {
      for (const std::size_t j : act) {
        std::fill(gpart[q][j].a.begin(), gpart[q][j].a.end(), 0.0);
      }
    }

    // One ghost exchange event per outer iteration ships the p and r
    // panels of every active RHS together.
    rp.exchange(halo_s, 2 * na);

    if (opt.mode == CaCgMode::kStored) {
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) {
          for (const std::size_t j : act) Vloc[rank][j].clear();
          return;
        }
        const std::size_t osz = rp.own_sz[rank];
        if (rp.gp != nullptr) {
          const GraphChunk& ck = gplan[rank][0];
          std::uint64_t a_words = 0;
          for (const std::size_t j : act) {
            a_words = build_basis_graph(ck, bc, s, p[j], r[j],
                                        Vloc[rank][j]);
            graph_gram(ck, gpart[rank][j], mm, Vloc[rank][j]);
          }
          detail::charge_l2_transit(h, 2 * na * recv_s[rank], m.M2(), 0);
          detail::charge_l3_read(h, na * 2 * osz, m.M2());
          detail::charge_l3_write(h, na * 2 * osz, m.M2());  // basis heads
          detail::charge_l3_read(h, a_words, m.M2());        // A, shared
          detail::charge_l3_write(h, na * (2 * s - 1) * osz, m.M2());
          detail::charge_l3_read(h, na * mm * osz, m.M2());  // Gram re-read
          return;
        }
        const NodeBox& o = rp.own[rank];
        const NodeBox ebox = part.extended(rank, ext);
        std::uint64_t a_words = 0;
        for (const std::size_t j : act) {
          auto& W = Vloc[rank][j];
          // Identical geometry for every RHS, so a_words is the same
          // each time; it is charged once for the whole batch below.
          a_words = build_basis_box(A, part, bc, s, p[j], r[j], ebox, W);
          kd::Small& gp = gpart[rank][j];
          std::vector<const double*> wp(mm);
          for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
          for_each_run_local(
              part, o, ebox,
              [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                linalg::active_kernels().gram_upper_acc(
                    gp.a.data(), mm, wp.data(), lb, lb + (ghi - glo));
              });
        }
        detail::charge_l2_transit(h, 2 * na * recv_s[rank], m.M2(), 0);
        detail::charge_l3_read(h, na * 2 * osz, m.M2());
        detail::charge_l3_write(h, na * 2 * osz, m.M2());  // basis heads
        detail::charge_l3_read(h, a_words, m.M2());        // A, shared
        detail::charge_l3_write(h, na * (2 * s - 1) * osz, m.M2());
        detail::charge_l3_read(h, na * mm * osz, m.M2());  // Gram re-read
      });
    } else {
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        detail::charge_l2_transit(h, 2 * na * recv_s[rank], m.M2(), 0);
        auto& W = Wloc[rank];
        if (rp.gp != nullptr) {
          for (const GraphChunk& ck : gplan[rank]) {
            std::uint64_t a_words = 0;
            for (const std::size_t j : act) {
              a_words = build_basis_graph(ck, bc, s, p[j], r[j], W);
              graph_gram(ck, gpart[rank][j], mm, W);
            }
            detail::charge_l3_read(h, na * 2 * ck.overlap, m.M2());
            detail::charge_l3_read(h, a_words, m.M2());  // A, shared
          }
          return;
        }
        const NodeBox& o = rp.own[rank];
        for (const NodeBox& c : stream_chunks(part, o, block_rows)) {
          const NodeBox ebox = dilate_clipped(part, c, ext);
          std::uint64_t a_words = 0;
          for (const std::size_t j : act) {
            a_words = build_basis_box(A, part, bc, s, p[j], r[j], ebox, W);
            kd::Small& gp = gpart[rank][j];
            std::vector<const double*> wp(mm);
            for (std::size_t a = 0; a < mm; ++a) wp[a] = W[a].data();
            for_each_run_local(
                part, c, ebox,
                [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                  linalg::active_kernels().gram_upper_acc(
                      gp.a.data(), mm, wp.data(), lb, lb + (ghi - glo));
                });
          }
          detail::charge_l3_read(h, na * 2 * box_overlap(ebox, o), m.M2());
          detail::charge_l3_read(h, a_words, m.M2());  // A, shared
        }
      });
    }

    // Gram combine per RHS, one allreduce event for all active
    // triangles.
    for (const std::size_t j : act) {
      for (std::size_t q = 0; q < P; ++q) {
        for (std::size_t a = 0; a < mm; ++a) {
          for (std::size_t c = a; c < mm; ++c) G[j](a, c) += gpart[q][j](a, c);
        }
      }
      linalg::gram_mirror(G[j].a.data(), mm);
    }
    rp.allreduce_charge(na * (mm * (mm + 1) / 2));

    std::vector<std::vector<double>> xh(nrhs), ph(nrhs), rh(nrhs);
    std::vector<std::size_t> act2;
    for (const std::size_t j : act) {
      xh[j].assign(mm, 0.0);
      ph[j].assign(mm, 0.0);
      rh[j].assign(mm, 0.0);
      ph[j][0] = 1.0;
      rh[j][s + 1] = 1.0;
      krylov::Traffic fast;  // inner-step flops; no slow channel
      const auto inner =
          kd::inner_steps(s, bc, G[j], xh[j], ph[j], rh[j], delta[j], fast);
      if (inner.breakdown) {
        finished[j] = 1;
        continue;
      }
      out.rhs[j].iterations += s;
      act2.push_back(j);
    }
    if (act2.empty()) continue;
    const std::uint64_t na2 = act2.size();

    if (opt.mode == CaCgMode::kStored) {
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        const std::size_t osz = rp.own_sz[rank];
        if (rp.gp != nullptr) {
          const GraphChunk& ck = gplan[rank][0];
          for (const std::size_t j : act2) {
            const auto xj = X.subspan(j * n, n);
            graph_recover(ck, mm, Vloc[rank][j], ph[j], rh[j], xh[j], xj,
                          p[j], r[j]);
          }
          detail::charge_l3_read(h, na2 * (mm * osz + osz), m.M2());
          detail::charge_l3_write(h, na2 * 3 * osz, m.M2());
          return;
        }
        const NodeBox& o = rp.own[rank];
        const NodeBox ebox = part.extended(rank, ext);
        for (const std::size_t j : act2) {
          const auto xj = X.subspan(j * n, n);
          const auto& W = Vloc[rank][j];
          for_each_run_local(
              part, o, ebox,
              [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                for (std::size_t i = glo; i < ghi; ++i) {
                  const std::size_t li = lb + i - glo;
                  double np = 0, nr = 0, nx2 = xj[i];
                  for (std::size_t a = 0; a < mm; ++a) {
                    np += W[a][li] * ph[j][a];
                    nr += W[a][li] * rh[j][a];
                    nx2 += W[a][li] * xh[j][a];
                  }
                  p[j][i] = np;
                  r[j][i] = nr;
                  xj[i] = nx2;
                }
              });
        }
        detail::charge_l3_read(h, na2 * (mm * osz + osz), m.M2());
        detail::charge_l3_write(h, na2 * 3 * osz, m.M2());
      });
    } else {
      for (const std::size_t j : act2) {
        pn[j].resize(n);
        rn[j].resize(n);
      }
      m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
        if (rp.own_sz[rank] == 0) return;
        auto& W = Wloc[rank];
        if (rp.gp != nullptr) {
          for (const GraphChunk& ck : gplan[rank]) {
            std::uint64_t a_words = 0;
            for (const std::size_t j : act2) {
              a_words = build_basis_graph(ck, bc, s, p[j], r[j], W);
              const auto xj = X.subspan(j * n, n);
              graph_recover(ck, mm, W, ph[j], rh[j], xh[j], xj, pn[j],
                            rn[j]);
            }
            detail::charge_l3_read(h, na2 * 2 * ck.overlap, m.M2());
            detail::charge_l3_read(h, a_words, m.M2());  // A, shared
            detail::charge_l3_read(h, na2 * ck.tsz, m.M2());       // x
            detail::charge_l3_write(h, na2 * 3 * ck.tsz, m.M2());  // x, p, r
          }
          return;
        }
        const NodeBox& o = rp.own[rank];
        for (const NodeBox& c : stream_chunks(part, o, block_rows)) {
          const NodeBox ebox = dilate_clipped(part, c, ext);
          std::uint64_t a_words = 0;
          for (const std::size_t j : act2) {
            a_words = build_basis_box(A, part, bc, s, p[j], r[j], ebox, W);
            const auto xj = X.subspan(j * n, n);
            for_each_run_local(
                part, c, ebox,
                [&](std::size_t glo, std::size_t ghi, std::size_t lb) {
                  for (std::size_t i = glo; i < ghi; ++i) {
                    const std::size_t li = lb + i - glo;
                    double np = 0, nr = 0, nx2 = xj[i];
                    for (std::size_t a = 0; a < mm; ++a) {
                      np += W[a][li] * ph[j][a];
                      nr += W[a][li] * rh[j][a];
                      nx2 += W[a][li] * xh[j][a];
                    }
                    pn[j][i] = np;
                    rn[j][i] = nr;
                    xj[i] = nx2;
                  }
                });
          }
          const std::size_t csz = c.volume();
          detail::charge_l3_read(h, na2 * 2 * box_overlap(ebox, o), m.M2());
          detail::charge_l3_read(h, a_words, m.M2());      // A, shared
          detail::charge_l3_read(h, na2 * csz, m.M2());    // x
          detail::charge_l3_write(h, na2 * 3 * csz, m.M2());  // x, p, r
        }
      });
      for (const std::size_t j : act2) {
        p[j].swap(pn[j]);
        r[j].swap(rn[j]);
      }
    }

    m.run_local_each([&](std::size_t rank, memsim::Hierarchy& h) {
      for (const std::size_t j : act2) {
        double sum = 0.0;
        rp.for_runs(rank, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) sum += r[j][i] * r[j][i];
        });
        partj[j][rank] = sum;
      }
      detail::charge_l3_read(h, na2 * 2 * rp.own_sz[rank], m.M2());
    });
    rp.allreduce_charge(na2);

    std::vector<std::size_t> restart_set;
    for (const std::size_t j : act2) {
      double delta_true = 0.0;
      for (std::size_t q = 0; q < P; ++q) delta_true += partj[j][q];
      if (!std::isfinite(delta_true) ||
          delta_true > 16.0 * delta_enter[j]) {
        if (++restarts[j] > kMaxRestarts) {
          finished[j] = 1;
          continue;
        }
        out.rhs[j].iterations -= s;
        const auto xj = X.subspan(j * n, n);
        std::copy(x_snap[j].begin(), x_snap[j].end(), xj.begin());
        for (std::size_t i = 0; i < n; ++i) {
          p[j][i] = p_snap[j][i];
          r[j][i] = r_snap[j][i];
        }
        delta[j] = delta_enter[j];
        restart_set.push_back(j);
      } else {
        delta[j] = delta_true;
      }
    }

    // Batched classical-CG fallback for the rolled-back RHS: each of
    // the s steps is one shared traversal/exchange over the RHS still
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
        cg_step_batch(rp, halo1, recv1, X, r, p, w, delta, R,
                      /*check_den=*/true, &fb_broke);
        for (const std::size_t j : R) {
          if (!fb_broke[j]) ++out.rhs[j].iterations;
        }
      }
    }
  }

  for (std::size_t j = 0; j < nrhs; ++j) {
    const auto bj = B.subspan(j * n, n);
    out.rhs[j].residual_norm = true_residual(A, bj, X.subspan(j * n, n));
    if (!out.rhs[j].converged) {
      out.rhs[j].converged =
          out.rhs[j].residual_norm <= opt.tol * sparse::norm2(bj) * 10.0;
    }
  }
  return out;
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
