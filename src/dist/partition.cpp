#include "dist/partition.hpp"

#include <atomic>

namespace wa::dist {

std::uint64_t Partition::next_id() {
  static std::atomic<std::uint64_t> last{0};
  return ++last;
}

void check_stencil_reach(const sparse::Csr& A, std::size_t nx,
                         std::size_t ny, std::size_t radius, bool cross,
                         const std::string& who) {
  const auto apart = [](std::size_t a, std::size_t b) {
    return a > b ? a - b : b - a;
  };
  const std::size_t plane = nx * ny;
  for (std::size_t i = 0; i < A.n; ++i) {
    const std::size_t iz = i / plane, irem = i - iz * plane;
    const std::size_t iy = irem / nx, ix = irem - iy * nx;
    for (std::size_t q = A.row_ptr[i]; q < A.row_ptr[i + 1]; ++q) {
      const std::size_t j = A.col_idx[q];
      const std::size_t jz = j / plane, jrem = j - jz * plane;
      const std::size_t jy = jrem / nx, jx = jrem - jy * nx;
      if (apart(ix, jx) > radius || apart(iy, jy) > radius ||
          apart(iz, jz) > radius) {
        throw std::invalid_argument(
            who + ": matrix entries reach beyond the declared stencil radius");
      }
      if (cross && int(ix != jx) + int(iy != jy) + int(iz != jz) > 1) {
        throw std::invalid_argument(
            who +
            ": a cross stencil's entries must couple nodes along one axis "
            "only");
      }
    }
  }
}

GraphPartition::GraphPartition(ProcessGrid g, const sparse::Csr& A)
    : Partition(std::move(g)), n_(A.n), rp_(A.row_ptr), ci_(A.col_idx) {
  const std::size_t P = ranks();
  // Deterministic BFS visit order over the adjacency: neighbours in
  // stored (row) order, FIFO frontier, restart at the lowest
  // unvisited vertex so disconnected components concatenate.
  std::vector<std::size_t> order;
  order.reserve(n_);
  std::vector<char> vis(n_, 0);
  std::size_t scan = 0;
  while (order.size() < n_) {
    while (vis[scan]) ++scan;
    vis[scan] = 1;
    const std::size_t head0 = order.size();
    order.push_back(scan);
    for (std::size_t head = head0; head < order.size(); ++head) {
      const std::size_t i = order[head];
      for (std::size_t q = rp_[i]; q < rp_[i + 1]; ++q) {
        const std::size_t j = ci_[q];
        if (!vis[j]) {
          vis[j] = 1;
          order.push_back(j);
        }
      }
    }
  }
  // Greedy BFS growth: part p owns the p-th balanced contiguous slice
  // of the visit order, so each part is a grown BFS frontier wherever
  // the graph is connected and part sizes match the box partitions'
  // balanced split exactly (n < P leaves the trailing parts empty).
  owner_.assign(n_, 0);
  owned_.resize(P);
  runs_.resize(P);
  for (std::size_t p = 0; p < P; ++p) {
    const BlockRange b = balanced_block(n_, P, p);
    auto& own = owned_[p];
    own.assign(order.begin() + b.off, order.begin() + b.off + b.sz);
    std::sort(own.begin(), own.end());
    auto& rn = runs_[p];
    for (std::size_t k = 0; k < own.size();) {
      owner_[own[k]] = p;
      std::size_t e = k + 1;
      while (e < own.size() && own[e] == own[e - 1] + 1) {
        owner_[own[e]] = p;
        ++e;
      }
      rn.emplace_back(own[k], own[e - 1] + 1);
      k = e;
    }
  }
}

HopSet hop_walk(std::span<const std::size_t> row_ptr,
                std::span<const std::size_t> col_idx,
                const std::vector<std::size_t>& seed, std::size_t depth) {
  const std::size_t n = row_ptr.empty() ? 0 : row_ptr.size() - 1;
  std::vector<char> in(n, 0);
  // (row, hops) in visit order: one FIFO frontier per hop, columns in
  // stored order.
  std::vector<std::pair<std::size_t, std::size_t>> found;
  found.reserve(seed.size());
  for (const std::size_t i : seed) {
    in[i] = 1;
    found.emplace_back(i, 0);
  }
  std::size_t head = 0;
  for (std::size_t d = 1; d <= depth && head < found.size(); ++d) {
    for (const std::size_t end = found.size(); head < end; ++head) {
      const std::size_t i = found[head].first;
      for (std::size_t q = row_ptr[i]; q < row_ptr[i + 1]; ++q) {
        const std::size_t j = col_idx[q];
        if (!in[j]) {
          in[j] = 1;
          found.emplace_back(j, d);
        }
      }
    }
  }
  std::sort(found.begin(), found.end());
  HopSet out;
  out.rows.reserve(found.size());
  out.hops.reserve(found.size());
  for (const auto& [i, h] : found) {
    out.rows.push_back(i);
    out.hops.push_back(h);
  }
  return out;
}

std::vector<std::size_t> GraphPartition::closure(
    const std::vector<std::size_t>& seed, std::size_t depth) const {
  return hop_walk(rp_, ci_, seed, depth).rows;
}

std::vector<HaloTransfer> GraphPartition::halo(std::size_t depth) const {
  std::vector<HaloTransfer> out;
  if (depth == 0) return out;
  const std::size_t P = ranks();
  std::vector<std::size_t> cnt(P);
  for (std::size_t dst = 0; dst < P; ++dst) {
    if (owned_[dst].empty()) continue;
    std::fill(cnt.begin(), cnt.end(), 0);
    for (const std::size_t i : closure(owned_[dst], depth)) {
      if (owner_[i] != dst) ++cnt[owner_[i]];
    }
    for (std::size_t src = 0; src < P; ++src) {
      if (cnt[src] > 0) out.push_back(HaloTransfer{src, dst, cnt[src]});
    }
  }
  return out;
}

std::size_t GraphPartition::recv_words(std::size_t p,
                                       std::size_t depth) const {
  if (depth == 0 || owned_[p].empty()) return 0;
  return closure(owned_[p], depth).size() - owned_[p].size();
}

std::size_t GraphPartition::max_recv_words(std::size_t depth) const {
  std::size_t mx = 0;
  for (std::size_t p = 0; p < ranks(); ++p) {
    mx = std::max(mx, recv_words(p, depth));
  }
  return mx;
}

}  // namespace wa::dist
