#pragma once
// wa::dist -- the partition seam between mesh geometry and the
// distributed Krylov solvers.
//
// A Partition decides which mesh nodes (= matrix rows) each rank
// owns, how wide a ghost exchange of a given depth is, and therefore
// what every l3_read/l3_write/nw charge of the solvers is based on.
// Two implementations:
//
//  * BlockPartition2D -- ProcessGrid tiles over the nx x ny node
//    mesh (grid rows <-> y, grid columns <-> x), each tile carrying
//    its full pencil of nz mesh layers (the layered variant for
//    poisson_3d).  Ghost depth is measured in mesh nodes per axis, so
//    the exchange ships faces + corners of width s*radius per side --
//    Theta(s * sqrt(n/P)) words instead of Theta(s * bandwidth).
//    The balanced 1-D row split is the same class on a 1 x P grid of
//    the linear n x 1 x 1 pseudo-mesh, with the matrix bandwidth as
//    its radius.  Its halo depth is then measured in *rows*: correct
//    for any banded matrix, but degenerate on 2-D/3-D stencils, where
//    a (2b+1)^2 stencil on an nx-wide mesh has bandwidth b*nx + b and
//    a ghost of s*bandwidth rows spans nearly the whole domain.
//
//  * GraphPartition -- no geometry at all: the CSR adjacency is
//    ordered by a deterministic BFS and sliced into P balanced
//    chunks, and halos are the *exact* level-d dependency sets read
//    off the sparsity pattern, so a depth-d exchange ships exactly
//    the rows within d hops of the owned set (the general-graph form
//    of the 2-D diamond halos).  Owned sets are index sets, not
//    boxes; the solvers detect it via Partition::graph() and switch
//    to run-list iteration and sparsity-derived matrix-powers plans.
//
// Every box partition's owned node set is an axis-aligned NodeBox of
// the mesh; the 1-D row split is the nx = n, ny = nz = 1 case, so the
// solvers speak one box-shaped geometry for every mesh partition.
// What a matrix-powers basis reads is not a box: it is the rows within
// so many hops of the owned set, found by one walk of A's pattern
// (hop_walk) on every partition kind.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "dist/grid.hpp"
#include "sparse/csr.hpp"

namespace wa::dist {

/// Axis-aligned box of mesh nodes [x0,x1) x [y0,y1) x [z0,z1).
struct NodeBox {
  std::size_t x0 = 0, x1 = 0, y0 = 0, y1 = 0, z0 = 0, z1 = 0;

  std::size_t dx() const { return x1 > x0 ? x1 - x0 : 0; }
  std::size_t dy() const { return y1 > y0 ? y1 - y0 : 0; }
  std::size_t dz() const { return z1 > z0 ? z1 - z0 : 0; }
  std::size_t volume() const { return dx() * dy() * dz(); }
  bool empty() const { return volume() == 0; }
};

/// Rows within some number of hops of a seed set in a CSR pattern,
/// one hop being a step from a row to the columns it stores.
struct HopSet {
  std::vector<std::size_t> rows;  ///< ascending
  std::vector<std::size_t> hops;  ///< hop count of rows[k]; 0 on the seed
};

/// The one breadth-first walk of a sparsity pattern: every row within
/// @p depth hops of the duplicate-free @p seed, with its hop count.
/// GraphPartition's closures and halos and the CA-CG matrix-powers
/// plans (dist/krylov.cpp) all read it.
HopSet hop_walk(std::span<const std::size_t> row_ptr,
                std::span<const std::size_t> col_idx,
                const std::vector<std::size_t>& seed, std::size_t depth);

/// Throw std::invalid_argument, prefixed by @p who, unless every
/// stored entry of @p A couples nodes of the row-major nx x ny (x nz)
/// mesh at most @p radius apart per axis and, when @p cross, along one
/// axis only -- the reach a halo of that radius ships.  O(nnz).
void check_stencil_reach(const sparse::Csr& A, std::size_t nx,
                         std::size_t ny, std::size_t radius, bool cross,
                         const std::string& who);

class GraphPartition;

/// Which mesh nodes each rank owns, and what a ghost exchange costs.
class Partition {
 public:
  explicit Partition(ProcessGrid g) : g_(std::move(g)), id_(next_id()) {}
  virtual ~Partition() = default;

  const ProcessGrid& grid() const { return g_; }
  std::size_t ranks() const { return g_.size(); }

  /// Process-unique identity, fixed at construction: what a solver
  /// derives from a partition is kept under its id, never its address
  /// (a freed partition's address comes back for the next one).
  /// Partitions are immutable, so a copy shares the id.
  std::uint64_t id() const { return id_; }

  /// Throw std::invalid_argument unless @p A, whose rows this
  /// partition covers (nodes() == A.n), is a matrix its halos serve:
  /// a box partition needs every entry within radius() per axis of
  /// its mesh (one axis only under a cross halo), the graph partition
  /// A's exact sparsity pattern.  O(nnz).
  virtual void check_matrix(const sparse::Csr& A) const = 0;

  /// Mesh dims; nx*ny*nz == n.  The 1-D row split and the graph
  /// partition view the rows as a linear nx = n mesh whatever the
  /// matrix really is.
  virtual std::size_t nx() const = 0;
  virtual std::size_t ny() const = 0;
  virtual std::size_t nz() const = 0;
  std::size_t nodes() const { return nx() * ny() * nz(); }

  /// Ghost layers one matrix-power level consumes per axis (the
  /// stencil radius; the 1-D row split uses the matrix bandwidth).
  virtual std::size_t radius() const = 0;

  /// Nodes owned by rank @p p.  The boxes of all ranks tile the mesh.
  virtual NodeBox owned(std::size_t p) const = 0;

  /// Ghost shipments of one depth-@p exchange, one word per vector
  /// element (`rows` already counts the layered nz pencils).
  virtual std::vector<HaloTransfer> halo(std::size_t depth) const = 0;

  /// How many rows rank @p p owns: its box's volume, or its owned
  /// index set's size on the graph partition.
  virtual std::size_t owned_count(std::size_t p) const {
    return owned(p).volume();
  }

  /// Global row of mesh node (x, y, z).
  std::size_t global_index(std::size_t x, std::size_t y,
                           std::size_t z) const {
    return (z * ny() + y) * nx() + x;
  }

  /// All ranks, the solvers' allreduce group.
  std::vector<std::size_t> group() const { return g_.linear_group(); }

  /// Non-null when this partition is sparsity-driven (owned sets are
  /// general index sets, not boxes) -- the solvers' dispatch seam
  /// between box-geometry and run-list iteration.
  virtual const GraphPartition* graph() const { return nullptr; }

 private:
  static std::uint64_t next_id();

  ProcessGrid g_;
  std::uint64_t id_;
};

/// ProcessGrid tiles over the nx x ny mesh, each tile owning its full
/// pencil of nz layers (see file comment).
class BlockPartition2D final : public Partition {
 public:
  /// @p cross_halo: the matrix is a cross stencil (axis offsets
  /// only), so halo() ships the Manhattan-diamond ghost region
  /// instead of the full dilated box -- a strict subset, exact for
  /// radius-1 stencils and a safe superset of the s-hop reach
  /// otherwise (see halo_transfers_2d).  An empty mesh yields empty
  /// boxes and no shipments.
  BlockPartition2D(ProcessGrid g, std::size_t mesh_nx, std::size_t mesh_ny,
                   std::size_t mesh_nz, std::size_t radius,
                   bool cross_halo = false)
      : Partition(std::move(g)), nx_(mesh_nx), ny_(mesh_ny), nz_(mesh_nz),
        radius_(std::max<std::size_t>(1, radius)), cross_halo_(cross_halo) {}

  std::size_t nx() const override { return nx_; }
  std::size_t ny() const override { return ny_; }
  std::size_t nz() const override { return nz_; }
  std::size_t radius() const override { return radius_; }

  NodeBox owned(std::size_t p) const override {
    const BlockRange ty = grid().row_block(ny_, grid().row_of(p));
    const BlockRange tx = grid().col_block(nx_, grid().col_of(p));
    return NodeBox{tx.off, tx.off + tx.sz, ty.off, ty.off + ty.sz, 0, nz_};
  }

  std::vector<HaloTransfer> halo(std::size_t depth) const override {
    std::vector<HaloTransfer> out =
        halo_transfers_2d(grid(), nx_, ny_, depth, cross_halo_);
    for (HaloTransfer& t : out) t.rows *= nz_;  // whole pencils travel
    return out;
  }

  bool cross_halo() const { return cross_halo_; }

  void check_matrix(const sparse::Csr& A) const override {
    check_stencil_reach(A, nx_, ny_, radius_, cross_halo_, "dist");
  }

 private:
  std::size_t nx_, ny_, nz_, radius_;
  bool cross_halo_;
};

/// Sparsity-driven partition for matrices that carry no mesh
/// geometry (Csr::nx == 0): circuit/FEM systems, SuiteSparse-style
/// downloads, power-law graphs.
///
/// Partitioning is greedy BFS growth: the adjacency is traversed
/// breadth-first in deterministic order (neighbours in stored column
/// order, restarting at the lowest unvisited vertex, so disconnected
/// components concatenate), and the visit order is sliced into P
/// balanced contiguous chunks -- wherever the graph is connected each
/// part is a grown BFS frontier, and part sizes match the box
/// partitions' balanced split exactly.  No external partitioner, no
/// randomness: the same matrix always yields the same parts.
///
/// Halo contract: halo(depth) ships the *exact* level-depth
/// dependency sets.  For each destination rank the closure of its
/// owned rows under `depth` adjacency hops is computed from the
/// sparsity pattern, and every non-owned row in it becomes one
/// shipped word from its owner.  CA-CG's basis reads p within s hops
/// and r within s - 1 hops, so halo(s) for p plus halo(s - 1) for r
/// ship exactly the rows it reads, nothing else.  This generalizes the
/// 2-D diamond halos (which are the closure of a cross stencil) to
/// arbitrary graphs.
class GraphPartition final : public Partition {
 public:
  /// Copies A's pattern: the partition outlives the matrix view it
  /// was built from, and closure()/halo() need the adjacency.
  GraphPartition(ProcessGrid g, const sparse::Csr& A);

  /// Rows are viewed as a linear pseudo-mesh (like the 1-D row split)
  /// so nodes() covers the matrix; no box geometry is implied.
  std::size_t nx() const override { return n_; }
  std::size_t ny() const override { return 1; }
  std::size_t nz() const override { return 1; }

  /// One matrix-power level consumes one adjacency *hop*, whatever
  /// the matrix bandwidth: halo depths here count hops, so the
  /// solvers' depth = s * radius() is exactly s hops.
  std::size_t radius() const override { return 1; }

  /// Owned sets are general index sets, never boxes.  Box-geometry
  /// callers must dispatch on graph() first; reaching this is a bug.
  NodeBox owned(std::size_t) const override {
    throw std::logic_error(
        "GraphPartition: owned sets are index sets, not boxes");
  }

  std::vector<HaloTransfer> halo(std::size_t depth) const override;

  const GraphPartition* graph() const override { return this; }

  void check_matrix(const sparse::Csr& A) const override {
    if (A.row_ptr != rp_ || A.col_idx != ci_) {
      throw std::invalid_argument(
          "dist: the graph partition was built for another sparsity "
          "pattern");
    }
  }

  /// Global rows owned by rank @p p, sorted ascending.
  const std::vector<std::size_t>& owned_rows(std::size_t p) const {
    return owned_[p];
  }

  /// Maximal contiguous [lo, hi) runs of owned_rows(p), ascending --
  /// what the solvers iterate (one run [0, n) at P = 1).
  const std::vector<std::pair<std::size_t, std::size_t>>& owned_runs(
      std::size_t p) const {
    return runs_[p];
  }

  std::size_t owned_count(std::size_t p) const override {
    return owned_[p].size();
  }
  std::size_t owner_of(std::size_t row) const { return owner_[row]; }

  /// @p seed (duplicate-free) plus every row within @p depth
  /// adjacency hops of it, sorted ascending -- the rows a depth-level
  /// matrix-powers computation on seed reads (hop_walk's rows).
  std::vector<std::size_t> closure(const std::vector<std::size_t>& seed,
                                   std::size_t depth) const;

  /// Ghost words rank @p p receives in one depth-@p d exchange, per
  /// vector: |closure(owned, depth)| - |owned|.  The counted s-hop
  /// model the bench and planner quote.
  std::size_t recv_words(std::size_t p, std::size_t depth) const;

  /// recv_words of the busiest rank.
  std::size_t max_recv_words(std::size_t depth) const;

 private:
  std::size_t n_;
  std::vector<std::size_t> rp_, ci_;  // adjacency (copied pattern)
  std::vector<std::size_t> owner_;
  std::vector<std::vector<std::size_t>> owned_;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> runs_;
};

/// The pr x pc factorization of P whose tiles of the nx x ny mesh
/// have the smallest half-perimeter (= smallest face halo), so long
/// thin meshes get long thin grids instead of the square default.
inline ProcessGrid best_grid_2d(std::size_t P, std::size_t nx,
                                std::size_t ny) {
  if (P == 0) throw std::invalid_argument("best_grid_2d: P must be positive");
  std::size_t best_pr = 1;
  std::size_t best_cost = std::size_t(-1);
  for (std::size_t pr = 1; pr <= P; ++pr) {
    if (P % pr != 0) continue;
    const std::size_t pc = P / pr;
    const std::size_t cost =
        (ny + pr - 1) / pr + (nx + pc - 1) / pc;  // tile height + width
    if (cost < best_cost) {
      best_cost = cost;
      best_pr = pr;
    }
  }
  return ProcessGrid(best_pr, P / best_pr);
}

/// Throw unless @p A's declared mesh geometry is consistent: the dims
/// cover the matrix, every stored entry couples nodes at most `radius`
/// apart per axis, and a `cross` matrix couples nodes along one axis
/// only.  An under-declared radius or a false cross flag would size
/// the halos too small -- the basis would depend on rows the exchange
/// never ships, with no diagnostic -- so the front door refuses them
/// up front (O(nnz), once per partition construction).
inline void check_mesh_geometry(const sparse::Csr& A) {
  if (A.nx * A.ny * A.nz != A.n) {
    throw std::invalid_argument(
        "make_partition: mesh dims do not cover the matrix");
  }
  check_stencil_reach(A, A.nx, A.ny, A.radius, A.cross, "make_partition");
}

enum class PartitionKind {
  kAuto,      ///< see auto_partition_kind
  kRows1D,    ///< BlockPartition2D on a 1 x P grid of the n x 1 x 1
              ///< pseudo-mesh: balanced rows, bandwidth-derived halo
  kBlocks2D,  ///< 2-D tiles (layered over nz), stencil-radius halo
  kGraph      ///< BFS-sliced adjacency partition, exact s-hop halos
};

/// What kAuto means for a matrix declaring an nx x ny x nz mesh
/// (nx == 0: no geometry): 2-D blocks on a 2-D/3-D mesh, 1-D rows on a
/// 1-D mesh, the graph partition without geometry.
inline PartitionKind auto_partition_kind(std::size_t nx, std::size_t ny,
                                         std::size_t nz) {
  if (nx == 0) return PartitionKind::kGraph;
  return ny * nz > 1 ? PartitionKind::kBlocks2D : PartitionKind::kRows1D;
}

/// Partition of @p A's rows over @p P ranks.  kRows1D splits the rows
/// into P balanced blocks with halo depth = matrix bandwidth, on any
/// matrix, empty ones included; kBlocks2D requires a non-empty mesh
/// declared on A and picks the aspect-fitting grid; kGraph partitions
/// the adjacency directly and works on any matrix; kAuto picks one by
/// auto_partition_kind.
inline std::unique_ptr<Partition> make_partition(
    std::size_t P, const sparse::Csr& A,
    PartitionKind kind = PartitionKind::kAuto) {
  if (kind == PartitionKind::kAuto) {
    kind = auto_partition_kind(A.nx, A.ny, A.nz);
  }
  if (kind == PartitionKind::kGraph) {
    return std::make_unique<GraphPartition>(ProcessGrid(P), A);
  }
  if (kind == PartitionKind::kBlocks2D) {
    if (!A.has_geometry()) {
      throw std::invalid_argument(
          "make_partition: 2-D blocks need mesh geometry on the matrix");
    }
    check_mesh_geometry(A);
    if (A.n == 0) {
      throw std::invalid_argument(
          "make_partition: 2-D blocks need a non-empty mesh");
    }
    return std::make_unique<BlockPartition2D>(best_grid_2d(P, A.nx, A.ny),
                                              A.nx, A.ny, A.nz, A.radius,
                                              A.cross);
  }
  return std::make_unique<BlockPartition2D>(ProcessGrid(1, P), A.n, 1, 1,
                                            A.bandwidth());
}

}  // namespace wa::dist
