#pragma once
// wa::sparse -- CSR matrices and stencil generators.
//
// Substrate for the Krylov experiments of Section 8.  The paper's
// write-reduction claim (W12 = O(N*n/s)) is stated for matrices where
// the matrix-powers optimization gives f(s) = Theta(s), e.g. a
// (2b+1)^d-point stencil on a d-dimensional Cartesian mesh, so the
// generators here produce exactly those matrices.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace wa::sparse {

/// Compressed sparse row matrix.
struct Csr {
  std::size_t n = 0;  ///< square dimension
  std::vector<std::size_t> row_ptr;
  std::vector<std::size_t> col_idx;
  std::vector<double> values;

  /// Stencil geometry carried by the mesh generators: node (x, y, z)
  /// of the nx * ny * nz Cartesian mesh is row (z*ny + y)*nx + x, and
  /// every stored entry couples nodes at most `radius` apart per
  /// axis.  nx == 0 means the matrix did not come from a mesh
  /// (make_partition's kAuto then picks the graph partition).
  std::size_t nx = 0, ny = 0, nz = 0;
  std::size_t radius = 0;

  /// True when the stencil couples along the axes only (a cross /
  /// 5- or 7-point pattern): the level-e dependency region is then
  /// the Manhattan diamond |dx| + |dy| <= e rather than the full
  /// dilated box, and the 2-D partition ships the smaller diamond
  /// halo.  Box-neighbourhood generators leave it false.
  bool cross = false;

  bool has_geometry() const { return nx != 0; }

  std::size_t nnz() const { return values.size(); }

  /// Maximum |i - j| over stored entries (bandwidth).
  std::size_t bandwidth() const;
};

/// y = A * x.
void spmv(const Csr& a, std::span<const double> x, std::span<double> y);

/// (2b+1)-point 1-D Laplacian-like stencil on a mesh of @p n points.
/// Diagonally dominant, symmetric positive-definite.
Csr stencil_1d(std::size_t n, unsigned b = 1);

/// (2b+1)^2-point 2-D stencil on an nx-by-ny mesh (full square
/// neighbourhood), diagonally dominant SPD.
Csr stencil_2d(std::size_t nx, std::size_t ny, unsigned b = 1);

/// (4b+1)-point 2-D cross stencil on an nx-by-ny mesh: axis offsets
/// +-1..+-b only (b = 1 is the classic 5-point Laplacian).
/// Diagonally dominant SPD; sets `cross` so the 2-D partition ships
/// diamond halos.
Csr stencil_2d_cross(std::size_t nx, std::size_t ny, unsigned b = 1);

/// 7-point 3-D Poisson stencil on an nx*ny*nz mesh (a cross stencil).
Csr poisson_3d(std::size_t nx, std::size_t ny, std::size_t nz);

/// Random symmetric diagonally-dominant SPD matrix with ~avg_deg
/// off-diagonal entries per row and *no* mesh geometry (nx == 0, so
/// make_partition(kAuto) routes to GraphPartition).  Deterministic
/// for a given (n, avg_deg, seed) on every platform: the entry
/// pattern and values come from an internal splitmix64 mix, not
/// <random>'s implementation-defined distributions.
Csr random_spd_graph(std::size_t n, std::size_t avg_deg,
                     std::uint64_t seed = 1);

/// Watts-Strogatz-style small-world SPD matrix, no mesh geometry: a
/// ring lattice coupling i to i +- 1..k *with wraparound* (so the
/// 1-D bandwidth is n - 1 and a bandwidth-derived halo degenerates
/// to all-to-all) plus `chords` deterministic random long-range
/// edges.  Symmetric, diagonally dominant.
Csr small_world_graph(std::size_t n, std::size_t k, std::size_t chords,
                      std::uint64_t seed = 1);

/// Dense vector helpers used throughout the Krylov module.
double dot(std::span<const double> x, std::span<const double> y);
void axpy(double alpha, std::span<const double> x, std::span<double> y);
double norm2(std::span<const double> x);

}  // namespace wa::sparse
